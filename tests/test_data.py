import hashlib
import math

import numpy as np
import pytest

from eventsnn.core import InvalidParameter
from eventsnn.config import DatasetConfig
from eventsnn.data import (
    EncodingConfig,
    LabelledRows,
    YinYangLabel,
    build_dataset,
    classify,
    draw_test,
    draw_train,
    encode_dataset,
    generate,
    write_dataset,
)
from eventsnn.train import pack_samples

from conftest import per_point_data_path


def points(xy, label=YinYangLabel.YIN) -> LabelledRows:
    xy = np.array(xy, dtype=np.float64).reshape(-1, 2)
    return LabelledRows(xy, np.full(len(xy), int(label), dtype=np.int64))


class TestGeometry:
    def test_dot_centers_are_dots(self):
        assert classify(0.75, 0.5) == int(YinYangLabel.DOT)
        assert classify(0.25, 0.5) == int(YinYangLabel.DOT)

    def test_lobe_interiors(self):
        # above-center far from the right lobe vs its mirror image
        a = classify(0.5, 0.85)
        b = classify(0.5, 0.15)
        assert {int(a), int(b)} == {int(YinYangLabel.YIN), int(YinYangLabel.YANG)}
        # the half-disk lobes flip the side: left lobe belongs to the class
        # of the upper half, right lobe to the lower half
        assert classify(0.25, 0.35) == a
        assert classify(0.75, 0.65) == b

    def test_class_histogram_balanced(self):
        pts = generate(seed=7, n=3000)
        assert np.bincount(pts.labels, minlength=3).tolist() == [1000, 1000, 1000]

    def test_quota_for_tiny_n(self):
        pts = generate(seed=7, n=3)
        assert sorted(pts.labels.tolist()) == [0, 1, 2]

    def test_all_points_inside_big_disk(self):
        pts = generate(seed=3, n=2000)
        x, y = pts.values.T
        assert np.all(np.hypot(x - 0.5, y - 0.5) <= 0.5 + 1e-12)

    def test_determinism(self):
        def same(p, q):
            return np.array_equal(p.values, q.values) and np.array_equal(p.labels, q.labels)

        a = generate(seed=11, n=500)
        b = generate(seed=11, n=500)
        assert same(a, b)
        c = generate(seed=12, n=500)
        assert not same(a, c)

    def test_no_duplicate_coordinates(self):
        pts = generate(seed=5, n=10_000)
        assert len(set(map(tuple, pts.values.tolist()))) == len(pts)

    @pytest.mark.parametrize("r_small", [0.0, -0.1, math.nan, 0.26, 0.71, 1.0])
    def test_r_small_outside_its_lobe_rejected(self, r_small):
        with pytest.raises(InvalidParameter, match="r_small"):
            generate(seed=1, n=300, r_small=r_small)

    def test_dot_area_fraction_monte_carlo(self):
        # before balancing, the dot class covers 2*(r_small/R)^2 of the disk
        rng = np.random.default_rng(99)
        n = 200_000
        xs = rng.uniform(0, 1, n)
        ys = rng.uniform(0, 1, n)
        inside = np.hypot(xs - 0.5, ys - 0.5) <= 0.5
        labels = classify(xs[inside], ys[inside])
        frac = np.mean(labels == int(YinYangLabel.DOT))
        expected = 2 * (0.1 / 0.5) ** 2
        assert frac == pytest.approx(expected, rel=0.05)
        # yin and yang split the remainder evenly (S-curve symmetry)
        yin = np.mean(labels == int(YinYangLabel.YIN))
        yang = np.mean(labels == int(YinYangLabel.YANG))
        assert yin == pytest.approx(yang, abs=0.01)


def sha256_of(pts: LabelledRows) -> str:
    return hashlib.sha256(pts.values.tobytes() + pts.labels.tobytes()).hexdigest()


class TestPrefixDraw:
    """A draw of the first rows of a set is bit for bit the full draw's
    first rows, and the full draws did not move."""

    @pytest.mark.parametrize("r_small", [0.1, 0.05])
    @pytest.mark.parametrize("n", [7, 30, 1280, 3001, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2, 42])
    def test_prefix_is_the_full_draws_first_rows(self, seed, n, r_small):
        # n = 7 and 30 fill every class quota within the first round
        full = generate(seed, n, r_small)
        for rows in sorted({1, min(64, n), n - 1, n}):
            head = generate(seed, n, r_small, rows)
            assert len(head) == rows
            for got, want in ((head.values, full.values), (head.labels, full.labels)):
                assert got.dtype == want.dtype and got.shape == (rows, *want.shape[1:])
                assert got.tobytes() == want[:rows].tobytes()

    @pytest.mark.parametrize("rows", [0, -1, 31, 1000])
    def test_rows_outside_one_to_n_rejected(self, rows):
        with pytest.raises(InvalidParameter, match="rows"):
            generate(1, 30, 0.1, rows)

    @pytest.mark.parametrize(
        "seed, n, digest",
        [
            (1, 5000, "d297ad5e4479debf609622eb4b618763a4e13edf6088d372cc15e1e6af82c037"),
            (2, 3000, "c5a645f8b56689c16f2a3ac0f76b924dd74bf85ab73c2986e384cebe07c7d057"),
            (1, 1280, "7492841a0bd57c09f82c3f3932ba655df0c9259835261cdfeecc382fc267f60c"),
            (2, 512, "d384fb971bb713b1fa91bf25b4a415ca6f37d88cedb342d60361690ebaf7f836"),
        ],
    )
    def test_full_draws_of_the_benchmark_workloads_pinned(self, seed, n, digest):
        # taken before the prefix stop was added: the full draw is unchanged
        assert sha256_of(generate(seed, n, 0.1)) == digest

    def test_sets_of_a_config(self):
        dcfg = DatasetConfig(seed=5, n_train=100, n_test=40)
        train, test = build_dataset(dcfg)
        assert sha256_of(train) == sha256_of(draw_train(dcfg)) == sha256_of(generate(5, 100))
        assert sha256_of(test) == sha256_of(draw_test(dcfg)) == sha256_of(generate(6, 40))
        assert sha256_of(draw_train(dcfg, 9)) == sha256_of(train[:9])


class TestEncoding:
    CFG = EncodingConfig(t_early=0.0, t_late=1.5)

    def test_origin_boundary(self):
        times = encode_dataset(points([0.0, 0.0]), self.CFG).values[0].tolist()
        assert times == [0.0, 0.0, 1.5, 1.5, pytest.approx(1.35)]

    def test_far_corner_symmetry(self):
        times = encode_dataset(points([1.0, 1.0]), self.CFG).values[0].tolist()
        assert times == [1.5, 1.5, 0.0, 0.0, pytest.approx(1.35)]

    def test_mirror_identity_exact(self, rng):
        t = encode_dataset(points(rng.random((200, 2))), self.CFG).values
        assert np.all(t[:, 0] + t[:, 2] == self.CFG.t_early + self.CFG.t_late)
        assert np.all(t[:, 1] + t[:, 3] == self.CFG.t_early + self.CFG.t_late)

    def test_encode_decode_roundtrip(self, rng):
        # the affine map inverts on neurons 0 and 1
        pts = points(rng.random((100, 2)), YinYangLabel.DOT)
        t = encode_dataset(pts, self.CFG).values
        span = self.CFG.t_late - self.CFG.t_early
        assert np.all(np.abs((t[:, :2] - self.CFG.t_early) / span - pts.values) <= 1e-12)

    def test_bias_disabled_gives_four_spikes(self):
        cfg = EncodingConfig(bias_enabled=False)
        encoded = encode_dataset(points([0.5, 0.5]), cfg)
        assert encoded.values.shape == (1, 4)
        assert set(pack_samples(encoded).sorted_neurons[0].tolist()) == {0, 1, 2, 3}

    def test_bad_window_rejected(self):
        windows = [
            dict(t_early=1.0, t_late=0.5),
            dict(t_early=1.0, t_late=1.0),
            dict(t_early=0.0, t_late=math.nan),
            dict(t_early=math.nan, t_late=1.5),
            dict(t_early=-0.5, t_late=1.5),
            dict(t_early=0.0, t_late=math.inf),
            dict(t_bias=-1.0),
            dict(t_bias=math.nan),
        ]
        for window in windows:
            with pytest.raises(InvalidParameter):
                EncodingConfig(**window)
        # a bias time is only checked when the bias spike is sent
        assert EncodingConfig(t_bias=-1.0, bias_enabled=False).n_inputs == 4


class TestArraysMatchPerPointPath:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("r_small", [0.1, 0.05])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 99, 1280, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 43])
    def test_bitwise(self, tmp_path, seed, n, r_small, bias):
        enc = EncodingConfig(bias_enabled=bias)
        want, text = per_point_data_path(seed, n, r_small, enc)
        pts = generate(seed, n, r_small)
        got = pack_samples(encode_dataset(pts, enc))
        for name in ("sorted_neurons", "sorted_times", "by_neuron_times", "labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        write_dataset(tmp_path / "d.csv", pts)
        assert (tmp_path / "d.csv").read_bytes() == text.encode("utf-8")

    def test_slice_packs_the_leading_rows(self):
        encoded = encode_dataset(generate(seed=9, n=40))
        whole, head = pack_samples(encoded), pack_samples(encoded[:7])
        assert len(encoded[:7]) == len(head) == 7
        assert np.array_equal(head.sorted_times, whole.sorted_times[:7])
        assert np.array_equal(head.labels, whole.labels[:7])


class TestFiles:
    def test_dataset_roundtrip(self, tmp_path):
        # repr floats: the written file holds every point exactly
        pts = generate(seed=21, n=99)
        path = tmp_path / "d.csv"
        write_dataset(path, pts)
        header, *rows = path.read_text().splitlines()
        assert header == "x,y,label"
        fields = [row.split(",") for row in rows]
        assert np.array_equal(np.array([[float(x), float(y)] for x, y, _ in fields]), pts.values)
        assert [YinYangLabel[name.upper()] for *_, name in fields] == pts.labels.tolist()

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        for k in (1, 2):
            write_dataset(tmp_path / f"d{k}.csv", generate(seed=33, n=200))
        assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()
