"""Closed-form dephasing of one qubit by a bath of static spins.

Model: a central qubit couples to N bath spins through a pure-dephasing
interaction with couplings g_k; bath spin k starts in alpha_k|up> +
beta_k|down>.  The qubit's off-diagonal element decays by the factor

    r(t) = prod_k [ cos(2 g_k t) + i (|alpha_k|^2 - |beta_k|^2) sin(2 g_k t) ],

which this module evaluates spin by spin: O(T*N) time and O(T) extra memory
for T times, with spins in an even superposition (|alpha_k| = |beta_k|)
entering as a real product of cosines.  Around it sit the branch states of
the environment, long-time averages, Gaussian-decay fits, and a recurrence
scanner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import DensityMatrix, DimensionCapError, StateVector

#: Seed used whenever a caller asks for a random ensemble without providing one.
DEFAULT_SEED = 42

_NORM_ATOL = 1e-12


class FitWindowError(RuntimeError):
    """Raised when a trace never decays enough to define the fit window."""


@dataclass(frozen=True)
class SpinBathConfig:
    """Qubit amplitudes plus per-spin couplings and initial bath amplitudes.

    Parameters
    ----------
    a, b : complex
        Qubit amplitudes on up/down; |a|^2 + |b|^2 = 1 within 1e-12.
    g : (N,) array_like of float
        Coupling of each bath spin; N >= 1.
    alpha, beta : (N,) array_like of complex
        Initial amplitudes of each bath spin, normalized pairwise to 1e-12.
    """

    a: complex
    b: complex
    g: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        g = np.array(self.g, dtype=float).reshape(-1)
        alpha = np.array(self.alpha, dtype=complex).reshape(-1)
        beta = np.array(self.beta, dtype=complex).reshape(-1)
        if g.size < 1:
            raise ValueError("need at least one bath spin")
        if not (g.size == alpha.size == beta.size):
            raise ValueError(
                f"g, alpha, beta must have equal length, got "
                f"{g.size}, {alpha.size}, {beta.size}"
            )
        if not np.all(np.isfinite(g)):
            raise ValueError("couplings must be finite")
        sys_norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(sys_norm - 1.0) > _NORM_ATOL:
            raise ValueError(f"|a|^2 + |b|^2 = {sys_norm!r}, expected 1")
        spin_norms = np.abs(alpha) ** 2 + np.abs(beta) ** 2
        worst = float(np.max(np.abs(spin_norms - 1.0)))
        if worst > _NORM_ATOL:
            raise ValueError(f"bath spin normalization off by {worst:g}")
        for name, arr in (("g", g), ("alpha", alpha), ("beta", beta)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_spins(self) -> int:
        return self.g.size

    @classmethod
    def balanced(cls, g, a=1 / math.sqrt(2), b=1 / math.sqrt(2)) -> "SpinBathConfig":
        """Every bath spin starts in the even superposition (alpha = beta)."""
        g = np.asarray(g, dtype=float).reshape(-1)
        half = np.full(g.size, 1 / math.sqrt(2), dtype=complex)
        return cls(a, b, g, half, half.copy())

    @classmethod
    def random(cls, n_spins: int, rng=None, a=None, b=None) -> "SpinBathConfig":
        """Random ensemble: g_k ~ Uniform(0, 1), bath spins Haar-random.

        With ``rng`` unset, a generator seeded with ``DEFAULT_SEED`` is used
        so the default ensemble is reproducible.  ``a``/``b`` default to a
        random normalized pair (pass both to pin the qubit).
        """
        rng = np.random.default_rng(DEFAULT_SEED if rng is None else rng)
        g = rng.uniform(0.0, 1.0, size=n_spins)
        pair = rng.normal(size=(n_spins, 4))
        z = pair[:, 0] + 1j * pair[:, 1]
        w = pair[:, 2] + 1j * pair[:, 3]
        norm = np.sqrt(np.abs(z) ** 2 + np.abs(w) ** 2)
        if a is None or b is None:
            qa, qb = rng.normal(size=2) + 1j * rng.normal(size=2)
            qn = math.sqrt(abs(qa) ** 2 + abs(qb) ** 2)
            a, b = qa / qn, qb / qn
        return cls(a, b, g, z / norm, w / norm)


def decoherence_factor(cfg: SpinBathConfig, t):
    """Off-diagonal suppression factor r(t).

    Streams over the bath spins, multiplying one accumulator per time point:
    O(T*N) time and O(T) extra memory for T times and N spins.  A spin with
    weight |alpha_k|^2 - |beta_k|^2 == 0 (an even superposition) contributes
    the real factor cos(2 g_k t), so a balanced bath costs one cosine per
    spin and time and no complex arithmetic.

    Parameters
    ----------
    cfg : SpinBathConfig
    t : float or array_like
        Time(s); scalar in, scalar out.

    Returns
    -------
    complex or complex ndarray of t's shape; |r| <= 1 always, r(0) = 1.
    """
    t_arr = np.asarray(t, dtype=float)
    two_t = 2.0 * t_arr
    weight = np.abs(cfg.alpha) ** 2 - np.abs(cfg.beta) ** 2
    phase = np.empty(t_arr.shape)
    factor = np.empty(t_arr.shape, dtype=complex)
    real = np.ones(t_arr.shape)
    r = np.ones(t_arr.shape, dtype=complex)
    for g_k, w_k in zip(cfg.g.tolist(), weight.tolist()):
        # g_k * (2 t) equals 2 * (t * g_k) exactly: doubling never rounds
        np.multiply(two_t, g_k, out=phase)
        if w_k == 0.0:
            real *= np.cos(phase, out=phase)
        else:
            np.cos(phase, out=factor.real)
            np.sin(phase, out=factor.imag)
            factor.imag *= w_k
            r *= factor
    r *= real
    if np.isscalar(t) or t_arr.ndim == 0:
        return complex(r)
    return r


@dataclass(frozen=True)
class DecoherenceTrace:
    """Sampled r(t), starting at t = 0 where r must equal 1.

    Invariants: strictly increasing t with t[0] = 0, |r| <= 1 + 1e-12,
    |r[0] - 1| <= 1e-12.
    """

    t: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.array(self.t, dtype=float).reshape(-1)
        r = np.array(self.r, dtype=complex).reshape(-1)
        if t.size != r.size or t.size < 2:
            raise ValueError("trace needs matching t and r arrays of length >= 2")
        if t[0] != 0.0:
            raise ValueError(f"trace must start at t = 0, got {t[0]}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("trace times must be strictly increasing")
        if abs(r[0] - 1.0) > 1e-12:
            raise ValueError(f"r(0) = {r[0]!r}, expected 1")
        if float(np.max(np.abs(r))) > 1.0 + 1e-12:
            raise ValueError("|r| exceeds 1 beyond tolerance")
        for name, arr in (("t", t), ("r", r)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def r2(self) -> np.ndarray:
        """|r(t)|^2 on the same grid."""
        return np.abs(self.r) ** 2


def decoherence_trace(cfg: SpinBathConfig, t_grid) -> DecoherenceTrace:
    """Evaluate r over a grid (which must start at 0) and package it."""
    t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
    return DecoherenceTrace(t_grid, decoherence_factor(cfg, t_grid))


def reduced_state_A(cfg: SpinBathConfig, t: float) -> DensityMatrix:
    """Qubit state after tracing the bath: diag(|a|^2, |b|^2) plus a*conj(b)*r coherence."""
    r = decoherence_factor(cfg, t)
    a, b = cfg.a, cfg.b
    mat = np.array(
        [
            [abs(a) ** 2, a * np.conj(b) * r],
            [np.conj(a) * b * np.conj(r), abs(b) ** 2],
        ],
        dtype=complex,
    )
    return DensityMatrix((2,), mat)


def environment_branch(cfg: SpinBathConfig, t: float, branch: str = "up") -> StateVector:
    """Explicit bath state conditioned on the qubit branch.

    For the up branch each spin k evolves to
    alpha_k e^{+i g_k t}|up> + beta_k e^{-i g_k t}|down>; the down branch is
    the same at -t.  The two branches overlap as
    <down-branch|up-branch> = decoherence_factor(cfg, t).

    Materializes a 2^N vector; N > 15 raises DimensionCapError.
    """
    if branch not in ("up", "down"):
        raise ValueError(f"branch must be 'up' or 'down', got {branch!r}")
    n = cfg.n_spins
    if 2 ** n > 2 ** 15:
        raise DimensionCapError(f"branch state with {n} spins exceeds the dense cap")
    sign = 1.0 if branch == "up" else -1.0
    phases = np.exp(1j * sign * cfg.g * float(t))
    amps = np.ones(1, dtype=complex)
    for alpha_k, beta_k, ph in zip(cfg.alpha, cfg.beta, phases):
        amps = np.kron(amps, np.array([alpha_k * ph, beta_k * np.conj(ph)]))
    return StateVector((2,) * n, amps)


def time_averaged_r2(cfg: SpinBathConfig, t_grid) -> float:
    """Mean of |r(t)|^2 over the grid.

    The grid should span many oscillation periods (>= 50 / min g_k) for the
    average to mean anything; fewer than 100 samples is rejected outright.
    For balanced bath spins and incommensurate couplings the long-time value
    approaches 2^-N.
    """
    t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
    if t_grid.size < 100:
        raise ValueError(f"need at least 100 samples, got {t_grid.size}")
    return float(np.mean(np.abs(decoherence_factor(cfg, t_grid)) ** 2))


@dataclass(frozen=True)
class GaussianFit:
    """Result of a Gaussian-decay fit |r(t)|^2 ~ exp(-Gamma^2 t^2).

    gamma >= 0; r_squared in [0, 1]; t_max is the end of the fitted window.
    """

    gamma: float
    r_squared: float
    t_max: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")


def fit_gaussian_decay(trace: DecoherenceTrace) -> GaussianFit:
    """Least-squares Gaussian-decay rate from the initial drop of |r|^2.

    The fit window runs from t = 0 to the first sample where |r|^2 < e^-4.
    Within it, -ln|r(t)|^2 is regressed against t^2 through the origin;
    Gamma is the square root of the slope.  r_squared is the coefficient of
    determination of that regression, clamped to [0, 1].

    Raises
    ------
    FitWindowError
        If |r|^2 never drops below e^-4 on the trace.
    """
    r2 = trace.r2
    below = np.nonzero(r2 < math.exp(-4.0))[0]
    if below.size == 0:
        raise FitWindowError(
            "trace never decays below e^-4; no Gaussian fit window exists"
        )
    end = int(below[0])
    t_win = trace.t[: end + 1]
    r2_win = r2[: end + 1]
    mask = r2_win > 0.0
    x = t_win[mask] ** 2
    y = -np.log(r2_win[mask])
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise FitWindowError("fit window contains no usable samples")
    slope = float(np.dot(x, y)) / denom
    gamma = math.sqrt(max(slope, 0.0))
    resid = y - slope * x
    ss_res = float(np.dot(resid, resid))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    if ss_tot == 0.0:
        r_sq = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_sq = 1.0 - ss_res / ss_tot
    return GaussianFit(gamma, min(max(r_sq, 0.0), 1.0), float(t_win[-1]))


def _scan_step(g_max: float, g_sq: float, eps: float) -> float:
    """Largest scan step for couplings with max |g_k| = g_max and sum g_k^2 = g_sq."""
    if g_max == 0.0:
        raise ValueError("recurrence scan needs at least one nonzero coupling")
    # The spec bound pi/(20 g_max) can straddle a narrow epsilon-window near a
    # revival, so also resolve the window half-width sqrt(eps / (2 sum g^2)).
    window = math.sqrt(eps / (2.0 * g_sq))
    step = min(math.pi / (20.0 * g_max), window)
    if not step > 0.0:
        # sum g^2 overflowed, or a coupling is not finite
        raise ValueError(f"couplings up to {g_max:g} leave no usable scan step")
    return step


def recurrence_scan(cfg: SpinBathConfig, horizon: float, eps: float, step: float | None = None):
    """Find revivals: intervals where |r(t)| climbs back above 1 - eps.

    The grid covers [0, horizon] with step at most pi/(20 max g) (and fine
    enough to resolve an eps-window).  An interval counts as a recurrence
    only once |r| has first left the band; if it never leaves (e.g. every
    bath spin starts in an energy eigenstate) the single interval
    [0, horizon] is returned.

    Returns
    -------
    list of (t_enter, t_exit) floats.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    max_step = _scan_step(
        float(np.max(np.abs(cfg.g))), float(np.dot(cfg.g, cfg.g)), eps
    )
    if step is None:
        step = max_step
    elif step > max_step:
        raise ValueError(f"step {step:g} too coarse; need <= {max_step:g}")
    n_pts = int(math.ceil(horizon / step)) + 1
    t_grid = np.linspace(0.0, float(horizon), n_pts)
    above = np.empty(n_pts, dtype=bool)
    block = 1 << 18
    for lo in range(0, n_pts, block):
        chunk = t_grid[lo : lo + block]
        above[lo : lo + chunk.size] = (
            np.abs(decoherence_factor(cfg, chunk)) > 1.0 - eps
        )
    departed = np.nonzero(~above)[0]
    if departed.size == 0:
        return [(0.0, float(horizon))]
    # runs of `above` after the first departure; the padding closes a run
    # still open at the horizon
    above[: departed[0]] = False
    edges = np.diff(np.concatenate(([False], above, [False])).astype(np.int8))
    enters = np.nonzero(edges == 1)[0]
    exits = np.nonzero(edges == -1)[0] - 1
    return [(float(t_grid[i]), float(t_grid[j])) for i, j in zip(enters, exits)]
