"""Closed-form LIF dynamics and exact next-threshold-crossing solvers.

Between events the membrane obeys

    dV/dt = -V/tau_mem + I,      dI/dt = -I/tau_syn,

which integrates to a two-exponential flow; at tau_mem = 2 tau_syn the
synaptic factor is the square of the membrane factor, so that flow takes one
exp.  Crossings of v_th have closed forms for two tau ratios: tau_mem =
2*tau_syn reduces to a quadratic in x = exp(-dt / (2 tau_syn)), and
tau_mem = tau_syn to the principal branch of the Lambert W function.  Branch
choices were fixed against a forward-Euler oracle; the test suite re-verifies
both.  Of the two quadratic roots the solver tests one candidate, the larger
root below 1, and takes one log, with the bits of testing both.

All solvers here are NaN-safe in the vectorized form: invalid lanes end at
the +inf "no crossing" sentinel.  Both solvers divide, take roots and logs
unguarded under the ``errstate`` of ``next_crossing_safe``: a NaN or
infinite candidate fails its window and direction comparisons, which are
false on NaN.  The simulator passes only the lanes an event touched, all of
them in one call per event step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LifParams, UnsupportedTauRatio

# residual tolerance for |V(t*) - v_th| at solver-reported crossings
EPS_ROOT = 1e-9
# convergence target |w e^w - z| for the Lambert W evaluation
EPS_LAMBERT = 1e-12


@dataclass(frozen=True)
class CrossingResult:
    """Relative time of the next upward threshold crossing, None if never."""

    time: float | None

    @property
    def found(self) -> bool:
        return self.time is not None


def propagate_arrays(v, i, dt, params: LifParams):
    """Advance (v, i) arrays by dt along the free flow; dt may broadcast."""
    v = np.asarray(v, dtype=np.float64)
    i = np.asarray(i, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    tm, ts, ratio = params.tau_mem, params.tau_syn, params.analytic_ratio
    # dt / -tau is -dt / tau bit for bit, without negating the array
    if ratio == 1:
        es = np.exp(dt / -ts)
        return (v + np.where(np.isfinite(dt), i * dt, 0.0)) * es, i * es
    em = np.exp(dt / -tm)
    es = em * em if ratio == 2 else np.exp(dt / -ts)
    return v * em + i * (es - em) / (1.0 / tm - 1.0 / ts), i * es


def _crossing_dt_double_tau(v0, i0, params: LifParams):
    """Vectorized crossing solver for tau_mem = 2 tau_syn.

    With x = exp(-dt/(2 ts)) the condition V(dt) = v_th becomes
    a x^2 + b x + c = 0, a = -2 ts i0, b = v0 + 2 ts i0, c = -v_th.  The
    crossing is upward where dV/dt = i0 x^2 - v_th/tau_mem > 0, and the
    earliest one is the surviving root with the larger x.  With v_th >= 0
    the direction test needs i0 > 0, where it rises with x, so if the
    smaller root passes it so does the larger: the one candidate is the
    larger root below 1.  Below rest a falling current can pass it at the
    smaller root only, so there the larger must pass it too.  Both
    quotients are formed because near a tangent rounding can swap their
    order.

    Runs under the caller's ``errstate``: a negative discriminant gives a
    NaN root and a zero denominator an infinite or NaN one, and the window
    and direction tests are comparisons that are false on NaN, so no root
    survives from such a lane; it ends at the +inf sentinel.
    """
    ts, tm, vth = params.tau_syn, params.tau_mem, params.v_th
    a = -2.0 * ts * i0
    b = v0 - a
    c = -vth
    # numerically stable pair of roots: q/a and c/q; copysign differs from a
    # b >= 0 test only at b = -0, where a = +0, sq = 0 and no root survives
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - (4.0 * c) * a), b))
    x1, x2 = q / a, c / q
    del a, b, q  # dead arrays, freed to bound a wide call's memory
    hi = np.maximum(x1, x2)
    take_hi = hi < 1.0
    if vth < 0.0:
        take_hi &= i0 * hi * hi > vth / tm
    x = np.where(take_hi, hi, np.minimum(x1, x2))
    del x1, x2, hi
    # dt > 0 is the window 0 < x < 1; x = 0 gives dt = inf, no crossing
    dt = -2.0 * ts * np.log(x)
    return np.where((dt > 0.0) & (i0 * x * x > vth / tm), dt, np.inf)


def _lambertw0(z):
    """Principal-branch Lambert W on -1/e <= z <= 0 by two Fritsch steps.

    They reach double precision (Fritsch, Shafer & Crowley 1973; Veberic
    2012) from the branch-point series in p = sqrt(2 (e z + 1)) below
    z = -0.32 and from Winitzki's log guess elsewhere.  A step is NaN only
    at z = -1/e and z = 0, where the start is exact and is kept.  Runs under
    the caller's ``errstate``; below -1/e the start, so W, is NaN.
    """
    p, lg = np.sqrt(2.0 * (np.e * z + 1.0)), np.log1p(z)
    near = -1.0 + p * (1.0 - p / 3.0 + (11.0 / 72.0) * p * p)
    w = np.where(z < -0.32, near, lg * (1.0 - np.log1p(lg) / (2.0 + lg)))
    for _ in range(2):
        y = w + 1.0
        zn = np.log(z / w) - w
        q = 2.0 * y * (y + (2.0 / 3.0) * zn)
        step = w * (1.0 + zn / y * (q - zn) / (q - 2.0 * zn))
        w = np.where(np.isnan(step), w, step)
    return w


def _crossing_dt_equal_tau(v0, i0, params: LifParams):
    """Vectorized crossing solver for tau_mem = tau_syn = tau.

    V(dt) = (v0 + i0 dt) e^{-dt/tau} = v_th gives dt = -tau W(z) - v0/i0 on
    the principal branch, z = -(v_th / (i0 tau)) e^{-v0 / (i0 tau)}, formed
    in log space so weak-current lanes underflow to "no crossing" instead of
    overflowing.  A threshold at or below rest, v_th <= 0, gives none.

    Runs under the caller's ``errstate``: i0 <= 0 gives a NaN log, a peak
    below v_th a z below -1/e and so a NaN W, and the window and direction
    tests are comparisons, false on NaN; such a lane ends at +inf.
    """
    tau, vth, tm = params.tau_syn, params.v_th, params.tau_mem
    if not vth > 0.0:
        return np.full(np.broadcast(v0, i0).shape, np.inf)
    w = _lambertw0(-np.exp(np.log(vth / (i0 * tau)) - v0 / (i0 * tau)))
    dt = -tau * w - v0 / i0
    return np.where((dt > 0.0) & (i0 * np.exp(dt / -tau) > vth / tm), dt, np.inf)


def next_crossing_safe(v0, i0, params: LifParams) -> np.ndarray:
    """Elementwise next-crossing times; +inf marks "no crossing", never NaN."""
    ratio = params.analytic_ratio
    if not ratio:
        raise UnsupportedTauRatio(
            f"no analytic crossing solver for tau_mem/tau_syn = {params.tau_mem / params.tau_syn:g}"
        )
    v0 = np.asarray(v0, dtype=np.float64)
    i0 = np.asarray(i0, dtype=np.float64)
    solve = _crossing_dt_double_tau if ratio == 2 else _crossing_dt_equal_tau
    with np.errstate(all="ignore"):
        return solve(v0, i0, params)


def _scalar_crossing(v0: float, i0: float, params: LifParams) -> CrossingResult:
    dt = next_crossing_safe(np.array([v0]), np.array([i0]), params)[0]
    return CrossingResult(None if math.isinf(dt) else float(dt))


def next_crossing_double_tau(v0: float, i0: float, params: LifParams) -> CrossingResult:
    if not params.is_double_tau:
        raise UnsupportedTauRatio("next_crossing_double_tau requires tau_mem = 2 tau_syn")
    return _scalar_crossing(v0, i0, params)


def next_crossing_equal_tau(v0: float, i0: float, params: LifParams) -> CrossingResult:
    if not params.is_equal_tau:
        raise UnsupportedTauRatio("next_crossing_equal_tau requires tau_mem = tau_syn")
    return _scalar_crossing(v0, i0, params)
