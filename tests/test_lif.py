import dataclasses
import math

import numpy as np
import pytest

from eventsnn.core import LifParams, UnsupportedTauRatio
from eventsnn.lif import (
    EPS_LAMBERT,
    EPS_ROOT,
    _lambertw0,
    next_crossing_double_tau,
    next_crossing_equal_tau,
    next_crossing_safe,
    propagate_arrays,
)

from conftest import (
    bisect_crossing,
    crossing_dt_double_tau_guarded,
    crossing_dt_equal_tau_guarded,
    euler_first_crossing,
    lambertw0_halley,
    voltage_at,
)

P2 = LifParams(tau_mem=2.0)
P1 = LifParams(tau_mem=1.0)


class TestPropagate:
    def test_dt_zero_is_identity(self):
        v, i = np.array([0.3, -0.1]), np.array([1.0, 0.0])
        v_out, i_out = propagate_arrays(v, i, 0.0, P2)
        np.testing.assert_array_equal(v_out, v)
        np.testing.assert_array_equal(i_out, i)

    def test_pure_exponential_decay(self):
        # V0=0.5, I0=0, tau_m=2: after dt = 2 ln 2 the voltage halves
        v, i = propagate_arrays(np.array([0.5]), np.array([0.0]), 2.0 * math.log(2.0), P2)
        assert v[0] == pytest.approx(0.25, abs=1e-12)
        assert i[0] == 0.0

    def test_crossing_value_against_euler(self):
        # V0=0, I0=4 reaches threshold near dt=0.3166 (Euler oracle, dt=1e-6)
        t_star = euler_first_crossing(0.0, 4.0, P2, dt=1e-6)
        v, _ = propagate_arrays(np.array([0.0]), np.array([4.0]), t_star, P2)
        assert abs(v[0] - P2.v_th) < 1e-4

    @pytest.mark.parametrize("params", [P1, P2, LifParams(tau_mem=3.3)])
    def test_composition(self, params, rng):
        # propagate(dt1+dt2) == propagate(dt1) then propagate(dt2)
        for _ in range(50):
            v, i = rng.normal(size=3) * 0.5, rng.normal(size=3)
            dt1, dt2 = rng.uniform(0, 2, size=2)
            once = propagate_arrays(v, i, dt1 + dt2, params)
            twice = propagate_arrays(*propagate_arrays(v, i, dt1, params), dt2, params)
            np.testing.assert_allclose(once[0], twice[0], atol=1e-12)
            np.testing.assert_allclose(once[1], twice[1], atol=1e-12)


class TestTauRatio:
    """``LifParams`` decides its tau ratio once, when it is built, by the
    rule math.isclose(tau_mem, r * tau_syn, rel_tol=1e-9) for r = 2 and 1;
    the solvers branch on that decision."""

    @staticmethod
    def rule(p):
        double = math.isclose(p.tau_mem, 2.0 * p.tau_syn, rel_tol=1e-9)
        equal = math.isclose(p.tau_mem, p.tau_syn, rel_tol=1e-9)
        return double, equal

    def test_agrees_with_isclose_on_both_sides_of_the_tolerance(self):
        for ratio in (1.0, 2.0):
            for tau_syn in (1e-3, 0.25, 1.0, 3.0, 1e6):
                for sign in (1.0, -1.0):
                    near = []
                    for rel in (0.0, 1e-12, 5e-10, 0.99e-9, 1.01e-9, 2e-9, 1e-6, 0.1):
                        p = LifParams(tau_mem=ratio * tau_syn * (1.0 + sign * rel), tau_syn=tau_syn)
                        double, equal = self.rule(p)
                        assert (p.is_double_tau, p.is_equal_tau) == (double, equal)
                        assert p.is_analytic == (double or equal)
                        assert p.analytic_ratio == (2 if double else 1 if equal else 0)
                        if rel in (0.99e-9, 1.01e-9):
                            near.append(double or equal)
                    assert near == [True, False], (ratio, tau_syn, sign)

    def test_decided_again_on_replace_and_kept_out_of_eq_and_repr(self):
        p = dataclasses.replace(P2, tau_mem=1.0)
        assert p.is_equal_tau and not p.is_double_tau
        assert not dataclasses.replace(P2, tau_mem=1.5).is_analytic
        assert p == LifParams(tau_mem=1.0) and hash(p) == hash(LifParams(tau_mem=1.0))
        assert repr(P2) == "LifParams(tau_mem=2.0, tau_syn=1.0, v_th=1.0, v_reset=0.0)"

    @pytest.mark.parametrize("tau_mem", [1.5, 3.0, 0.5, 2.0 * (1.0 + 2e-9), 1.0 - 2e-9])
    def test_unsupported_ratio(self, tau_mem):
        p = LifParams(tau_mem=tau_mem)
        assert not p.is_analytic
        for solve in (next_crossing_double_tau, next_crossing_equal_tau):
            with pytest.raises(UnsupportedTauRatio):
                solve(0.0, 4.0, p)
        with pytest.raises(UnsupportedTauRatio):
            next_crossing_safe(np.zeros(3), np.full(3, 4.0), p)
        # the free flow integrates any ratio: the two-exponential closed form
        v0, i0 = np.array([0.3, -0.2, 0.0]), np.array([1.5, 2.0, -0.7])
        dt = np.array([0.25, 1.0, 3.0])
        v, i = propagate_arrays(v0, i0, dt, p)
        em, es = np.exp(-dt / tau_mem), np.exp(-dt)
        np.testing.assert_allclose(i, i0 * es, rtol=1e-15)
        if abs(tau_mem - 1.0) > 1e-3:  # off the near-equal ratio, where it cancels
            want = v0 * em + i0 * (es - em) / (1.0 / tau_mem - 1.0)
            np.testing.assert_allclose(v, want, rtol=1e-13, atol=1e-15)


class TestDoubleTauCrossing:
    def test_subthreshold_never_crosses(self):
        assert next_crossing_double_tau(-0.5, -1.0, P2).time is None
        assert next_crossing_double_tau(0.0, 0.0, P2).time is None

    def test_reference_case_matches_quadratic_root(self):
        # larger root of 8x^2 - 8x + 1 = 0, dt = -2 ln x
        x = (2.0 + math.sqrt(2.0)) / 4.0
        expected = -2.0 * math.log(x)
        got = next_crossing_double_tau(0.0, 4.0, P2).time
        assert got == pytest.approx(expected, abs=1e-12)
        t_euler = euler_first_crossing(0.0, 4.0, P2, dt=1e-6)
        assert got == pytest.approx(t_euler, abs=1e-4)

    def test_negative_discriminant_means_no_crossing(self):
        # weak positive current that peaks below threshold
        assert next_crossing_double_tau(0.0, 0.3, P2).time is None

    def test_wrong_ratio_rejected(self):
        with pytest.raises(UnsupportedTauRatio):
            next_crossing_double_tau(0.0, 4.0, P1)

    def test_residuals_and_agreement_with_bisection(self, rng):
        # |V(t*) - v_th| <= EPS_ROOT and bisection agreement to 1e-10
        n_checked = 0
        for _ in range(2000):
            v0 = float(rng.uniform(-2.0, 0.99))
            i0 = float(rng.uniform(-3.0, 5.0))
            t_a = next_crossing_double_tau(v0, i0, P2).time
            if t_a is None:
                assert bisect_crossing(v0, i0, P2, t_hi=12.0) is None
                continue
            resid = abs(float(voltage_at(v0, i0, t_a, P2)) - P2.v_th)
            assert resid <= EPS_ROOT, (v0, i0, resid)
            t_b = bisect_crossing(v0, i0, P2, t_hi=max(2 * t_a, 1.0), tol=1e-13)
            assert t_b is not None and abs(t_a - t_b) <= 1e-10, (v0, i0, t_a, t_b)
            n_checked += 1
        assert n_checked > 500

    def test_minimality_no_earlier_crossing(self, rng):
        # Euler probe never exceeds v_th + 1e-4 before the reported time
        for _ in range(40):
            v0 = float(rng.uniform(-1.0, 0.9))
            i0 = float(rng.uniform(0.5, 5.0))
            t_a = next_crossing_double_tau(v0, i0, P2).time
            if t_a is None:
                continue
            grid = np.linspace(0.0, t_a * (1 - 1e-9), 2000)
            v = voltage_at(v0, i0, grid, P2)
            assert np.all(v <= P2.v_th + 1e-4)

    def test_matches_guarded_reference_bitwise(self, rng):
        # random grid plus edge lanes: signed zeros, v0 = v_th, an exactly
        # zero discriminant ((v0 + 2 i0)^2 = 8 i0 with ts = v_th = 1), a ~ 0
        v_grid = rng.uniform(-3.0, 1.5, size=400) * 10.0 ** rng.integers(-6, 2, size=400)
        i_grid = rng.uniform(-5.0, 8.0, size=400) * 10.0 ** rng.integers(-6, 2, size=400)
        v_edge = [0.0, -0.0, 1.0, 0.0, 1.0, -3.0, 0.75, -1.25, 0.5, 1.0 - 1e-16, 0.99]
        i_edge = [0.0, -0.0, 2.0, 2.0, 0.5, 0.5, 0.125, 0.125, 1e-300, 5e-324, -5e-324]
        vv, ii = np.meshgrid(
            np.concatenate([v_grid[:40], v_edge]), np.concatenate([i_grid[:40], i_edge])
        )
        v0 = np.concatenate([v_grid, vv.ravel(), v_edge, [0.0, -0.0, -0.0, 1.0]])
        i0 = np.concatenate([i_grid, ii.ravel(), i_edge, [-0.0, 0.0, -0.0, -0.0]])
        got = next_crossing_safe(v0, i0, P2)
        want = crossing_dt_double_tau_guarded(v0, i0, P2)
        assert not np.isnan(got).any()
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.isfinite(got).sum() > 100 and np.isinf(got).sum() > 100

    @pytest.mark.parametrize(
        "params",
        [P2, LifParams(tau_mem=3.0, tau_syn=1.5, v_th=0.7),
         LifParams(tau_mem=3.0, tau_syn=1.5, v_th=-0.7, v_reset=-1.0)],
        ids=["P2", "scaled", "below_rest"],
    )
    def test_near_tangent_lanes_match_two_root_reference_bitwise(self, params, rng):
        # lanes whose discriminant b^2 - 8 ts i0 v_th is within a few ulps of
        # 0 on either side: the rounded roots q/a and c/q may swap order, so
        # the one tested candidate must still be the one the two-root pick
        # returns; both signs of b, and a -> +-0 through tiny currents.  A
        # threshold below rest puts the tangent at falling currents.
        ts, vth = params.tau_syn, params.v_th
        i0 = rng.uniform(0.01, 10.0, size=4000) * 10.0 ** rng.integers(-3, 2, size=4000)
        i0 *= np.sign(vth)
        a = -2.0 * ts * i0
        b = np.sqrt(8.0 * ts * i0 * vth) * rng.choice([-1.0, 1.0], size=i0.size)
        v0 = b + a
        v0 = v0 + rng.integers(-6, 7, size=i0.size) * np.spacing(v0)
        tiny = np.array([5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 0.0, -0.0])
        vv, ii = np.meshgrid(np.array([-1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, vth]), tiny)
        v0 = np.concatenate([v0, vv.ravel()])
        i0 = np.concatenate([i0, ii.ravel()])
        disc = (v0 + 2.0 * ts * i0) ** 2 - 8.0 * ts * i0 * vth
        near = np.abs(disc) <= 64 * np.spacing(8.0 * ts * np.abs(i0 * vth))
        assert near[:4000].mean() > 0.5 and (disc[near] < 0).any() and (disc[near] > 0).any()
        got = next_crossing_safe(v0, i0, params)
        want = crossing_dt_double_tau_guarded(v0, i0, params)
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.isfinite(got).sum() > 300 and np.isinf(got).sum() > 1000

    def test_threshold_below_rest_matches_two_root_reference_bitwise(self, rng):
        # below rest the direction test can fail at the larger root and pass
        # at the smaller one, so the larger is taken only where it passes
        p = LifParams(tau_mem=2.0, v_th=-0.5, v_reset=-1.0)
        v0 = rng.normal(scale=2.0, size=200_000)
        i0 = rng.normal(scale=2.0, size=200_000)
        got = next_crossing_safe(v0, i0, p)
        want = crossing_dt_double_tau_guarded(v0, i0, p)
        np.testing.assert_array_equal(got, want)
        assert np.isfinite(got).sum() > 1000


class TestEqualTauCrossing:
    def test_monotone_decay_never_crosses(self):
        assert next_crossing_equal_tau(0.5, 0.0, P1).time is None

    def test_strong_drive_crossing_residual(self):
        t = next_crossing_equal_tau(0.0, 10.0, P1).time
        assert t is not None
        assert abs(float(voltage_at(0.0, 10.0, t, P1)) - P1.v_th) <= EPS_ROOT
        t_euler = euler_first_crossing(0.0, 10.0, P1, dt=1e-6)
        assert t == pytest.approx(t_euler, abs=1e-4)

    def test_below_branch_point_is_none(self):
        # tiny current cannot lift the membrane to threshold
        assert next_crossing_equal_tau(0.0, 0.2, P1).time is None

    def test_wrong_ratio_rejected(self):
        with pytest.raises(UnsupportedTauRatio):
            next_crossing_equal_tau(0.0, 4.0, P2)

    def test_residuals_random_states(self, rng):
        hits = 0
        for _ in range(2000):
            v0 = float(rng.uniform(-2.0, 0.99))
            i0 = float(rng.uniform(-3.0, 8.0))
            t = next_crossing_equal_tau(v0, i0, P1).time
            t_b = bisect_crossing(v0, i0, P1, t_hi=12.0)
            if t is None:
                assert t_b is None
                continue
            assert abs(float(voltage_at(v0, i0, t, P1)) - P1.v_th) <= EPS_ROOT
            assert t_b is not None and abs(t - t_b) <= 1e-9
            hits += 1
        assert hits > 400

    def test_lambert_convergence(self, rng):
        z = np.concatenate(
            [rng.uniform(-1 / math.e, 0.0, size=1000), np.array([-1 / math.e, -1e-300, -0.367879])]
        )
        with np.errstate(all="ignore"):
            w = _lambertw0(z)
        assert np.all(np.abs(w * np.exp(w) - z) <= EPS_LAMBERT)

    @pytest.mark.parametrize(
        "params",
        [LifParams(tau_mem=0.7, tau_syn=0.7, v_th=1.3), LifParams(tau_mem=1.0, v_th=0.6)],
        ids=["scaled", "low_threshold"],
    )
    def test_matches_guarded_halley_reference(self, params, rng):
        # 1M random lanes, lanes whose Lambert argument z lies 1e-18 to 0.1
        # above the branch point -1/e or has |z| from 0.1 down to subnormal,
        # and currents near the float maximum: the two-step solver and the
        # 12-step guarded one agree on which lanes cross, every crossing
        # meets EPS_ROOT, and dt agrees within 4 eps times its condition
        # number tau / (1 + W) + |v0 / i0| (measured at most 1.3)
        tau, vth = params.tau_syn, params.v_th
        n = 1_000_000
        v0 = rng.uniform(-3.0, 1.5, size=n) * 10.0 ** rng.integers(-3, 2, size=n)
        i0 = rng.uniform(-3.0, 10.0, size=n) * 10.0 ** rng.integers(-3, 2, size=n)
        k = n // 4
        z = np.concatenate([
            -1.0 / math.e + 10.0 ** rng.uniform(-18.0, -1.0, size=k),
            -(10.0 ** rng.uniform(-323.5, -1.0, size=k)),
        ])
        i_z = rng.uniform(0.01, 10.0, size=2 * k) * 10.0 ** rng.integers(-2, 2, size=2 * k)
        v_z = i_z * tau * (np.log(vth / (i_z * tau)) - np.log(-z))
        i_big = 10.0 ** rng.uniform(300.0, 308.0, size=1000)
        v0 = np.concatenate([v0, v_z, rng.uniform(-1.0, 0.0, size=1000), [0.0, -0.0, 0.5]])
        i0 = np.concatenate([i0, i_z, i_big, [0.0, -0.0, 5e-324]])
        got = next_crossing_safe(v0, i0, params)
        want = crossing_dt_equal_tau_guarded(v0, i0, params)
        hit = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), hit)
        assert not np.isnan(got).any() and np.all(got[hit] > 0.0)
        v0, i0, got, want = v0[hit], i0[hit], got[hit], want[hit]
        assert np.all(np.abs(voltage_at(v0, i0, got, params) - vth) <= EPS_ROOT)
        with np.errstate(divide="ignore", over="ignore"):
            z = -np.exp(np.log(vth / (i0 * tau)) - v0 / (i0 * tau))
            w = lambertw0_halley(z)
            cond = tau / (1.0 + w) + np.abs(v0 / i0)
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * cond)
        assert hit.sum() > 250_000 and (z < -1.0 / math.e + 1e-12).sum() > 10_000
        assert (np.abs(z) < np.finfo(float).tiny).sum() > 5

    def test_threshold_at_or_below_rest_never_crosses(self):
        v0, i0 = np.array([-1.0, -0.5, 0.0]), np.array([2.0, 5.0, 1.0])
        for vth in (0.0, -0.5):
            p = LifParams(tau_mem=1.0, v_th=vth, v_reset=-1.0)
            assert np.all(np.isinf(next_crossing_safe(v0, i0, p)))
            assert np.all(np.isinf(crossing_dt_equal_tau_guarded(v0, i0, p)))


class TestVectorizedSafety:
    def test_all_zero_states_give_inf(self):
        out = next_crossing_safe(np.zeros(5), np.zeros(5), P2)
        assert np.all(np.isinf(out))

    def test_scalar_vector_agreement_bitwise(self, rng):
        v0 = rng.uniform(-2, 0.99, size=200)
        i0 = rng.uniform(-3, 5, size=200)
        vec = next_crossing_safe(v0, i0, P2)
        for k in range(200):
            r = next_crossing_double_tau(float(v0[k]), float(i0[k]), P2)
            scalar = math.inf if r.time is None else r.time
            assert scalar == vec[k]

    def test_mixed_vector_one_spiking(self):
        out = next_crossing_safe(np.array([0.0, 0.0]), np.array([4.0, 0.0]), P2)
        assert np.isfinite(out[0]) and np.isinf(out[1])

    @pytest.mark.parametrize("params", [P1, P2])
    def test_fuzz_no_nan(self, params, rng):
        # 1e5 random + hostile states: outputs are finite-or-inf, never NaN
        n = 100_000
        v0 = rng.uniform(-1e3, 1e3, size=n) * 10.0 ** rng.integers(-12, 3, size=n)
        i0 = rng.uniform(-1e3, 1e3, size=n) * 10.0 ** rng.integers(-12, 3, size=n)
        hostile_v = np.array([0.0, -0.0, 1.0, 1.0 - 1e-16, -1e308, 1e-308, 0.999999, 0.5])
        hostile_i = np.array([0.0, -0.0, 0.0, 1e-300, 1e308, -1e308, 0.25, 0.5])
        v0 = np.concatenate([v0, hostile_v])
        i0 = np.concatenate([i0, hostile_i])
        out = next_crossing_safe(v0, i0, params)
        assert not np.any(np.isnan(out))
        assert np.all(out[np.isfinite(out)] > 0.0)

    def test_double_root_touch_is_finite_or_inf(self):
        # state whose peak exactly touches v_th: quadratic double root
        # peak of V = a x^2 + b x at x = -b/2a equals vth when b^2 = -4 a c
        i0 = 2.0
        a = -2.0 * i0
        # choose v0 so that b^2 - 4 a c = 0 with c = -1
        b = math.sqrt(-4.0 * a * 1.0)
        v0 = b - 2.0 * i0
        out = next_crossing_safe(np.array([v0]), np.array([i0]), P2)
        assert not np.isnan(out[0])
