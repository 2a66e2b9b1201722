import math

import numpy as np
import pytest

from eventsnn.core import InvalidParameter
from eventsnn.data import (
    EncodingConfig,
    YinYangLabel,
    classify,
    decode,
    encode,
    encode_dataset,
    generate,
    read_dataset,
    read_encoded_set,
    write_dataset,
    write_encoded_set,
)


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
        counts = [0, 0, 0]
        for p in pts:
            counts[int(p.label)] += 1
        assert counts == [1000, 1000, 1000]

    def test_quota_for_tiny_n(self):
        pts = generate(seed=7, n=3)
        assert sorted(int(p.label) for p in pts) == [0, 1, 2]

    def test_all_points_inside_big_disk(self):
        pts = generate(seed=3, n=2000)
        for p in pts:
            assert math.hypot(p.x - 0.5, p.y - 0.5) <= 0.5 + 1e-12

    def test_determinism(self):
        a = generate(seed=11, n=500)
        b = generate(seed=11, n=500)
        assert a == b
        c = generate(seed=12, n=500)
        assert a != c

    def test_no_duplicate_coordinates(self):
        pts = generate(seed=5, n=10_000)
        assert len({(p.x, p.y) for p in pts}) == len(pts)

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


class TestEncoding:
    CFG = EncodingConfig(t_early=0.0, t_late=1.5)

    def test_origin_boundary(self):
        from eventsnn.data import YinYangPoint

        s = encode(YinYangPoint(0.0, 0.0, YinYangLabel.YIN), self.CFG)
        times = [sp.time for sp in s.spikes]
        assert times == [0.0, 0.0, 1.5, 1.5, pytest.approx(1.35)]

    def test_far_corner_symmetry(self):
        from eventsnn.data import YinYangPoint

        s = encode(YinYangPoint(1.0, 1.0, YinYangLabel.YIN), self.CFG)
        times = [sp.time for sp in s.spikes]
        assert times == [1.5, 1.5, 0.0, 0.0, pytest.approx(1.35)]

    def test_mirror_identity_exact(self, rng):
        from eventsnn.data import YinYangPoint

        for _ in range(200):
            p = YinYangPoint(float(rng.random()), float(rng.random()), YinYangLabel.YIN)
            s = encode(p, self.CFG)
            t = {sp.neuron: sp.time for sp in s.spikes}
            assert t[0] + t[2] == self.CFG.t_early + self.CFG.t_late
            assert t[1] + t[3] == self.CFG.t_early + self.CFG.t_late

    def test_encode_decode_roundtrip(self, rng):
        from eventsnn.data import YinYangPoint

        for _ in range(100):
            p = YinYangPoint(float(rng.random()), float(rng.random()), YinYangLabel.DOT)
            x, y = decode(encode(p, self.CFG), self.CFG)
            assert abs(x - p.x) <= 1e-12 and abs(y - p.y) <= 1e-12

    def test_bias_disabled_gives_four_spikes(self):
        from eventsnn.data import YinYangPoint

        cfg = EncodingConfig(bias_enabled=False)
        s = encode(YinYangPoint(0.5, 0.5, YinYangLabel.YIN), cfg)
        assert len(s.spikes) == 4
        assert {sp.neuron for sp in s.spikes} == {0, 1, 2, 3}

    def test_bad_window_rejected(self):
        from eventsnn.data import YinYangPoint

        with pytest.raises(InvalidParameter):
            encode(
                YinYangPoint(0.5, 0.5, YinYangLabel.YIN),
                EncodingConfig(t_early=1.0, t_late=0.5),
            )


class TestFiles:
    def test_dataset_roundtrip(self, tmp_path):
        pts = generate(seed=21, n=99)
        path = tmp_path / "d.csv"
        write_dataset(path, pts)
        assert read_dataset(path) == pts

    def test_encoded_set_roundtrip(self, tmp_path):
        pts = generate(seed=22, n=30)
        samples = encode_dataset(pts)
        path = tmp_path / "e.spikes"
        write_encoded_set(path, samples)
        back = read_encoded_set(path)
        assert back == samples
        write_encoded_set(path, [])
        assert read_encoded_set(path) == []

    @pytest.mark.parametrize(
        "row, match",
        [("0.5,0.5", "line 3: bad dataset row '0.5,0.5'"), ("0.5,0.5,yan", "line 3: bad")],
        ids=["short_row", "unknown_label"],
    )
    def test_malformed_dataset_row_names_its_line(self, tmp_path, row, match):
        path = tmp_path / "d.csv"
        path.write_text(f"x,y,label\n0.1,0.2,yin\n{row}\n0.3,0.4,dot\n")
        with pytest.raises(InvalidParameter, match=match):
            read_dataset(path)

    @pytest.mark.parametrize(
        "records, match",
        [
            ("0,0.1\n1,0.2\n", "line 2: a record before the first separator"),
            ("0,0.1\n-2,1.0\n1,0.2\n", "line 2: a record before the first separator"),
            ("-2,0.0\n0,0.1\n-2,1.5\n1,0.2\n", "line 4: label 1.5 is not a class index"),
            ("-2,3.0\n0,0.1\n", "line 2: label 3.0 is not a class index"),
        ],
        ids=["no_separator", "records_before_separator", "fractional_label", "label_out_of_range"],
    )
    def test_malformed_encoded_set_names_its_line(self, tmp_path, records, match):
        path = tmp_path / "e.spikes"
        path.write_text("neuron,time\n" + records)
        with pytest.raises(InvalidParameter, match=match):
            read_encoded_set(path)

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        for k in (1, 2):
            write_dataset(tmp_path / f"d{k}.csv", generate(seed=33, n=200))
        assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()
