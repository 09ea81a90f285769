"""Closed-form dephasing of one qubit by a bath of static spins.

Model: a central qubit couples to N bath spins through a pure-dephasing
interaction with couplings g_k; bath spin k starts in alpha_k|up> +
beta_k|down>.  The qubit's off-diagonal element decays by the factor

    r(t) = prod_k [ cos(2 g_k t) + i (|alpha_k|^2 - |beta_k|^2) sin(2 g_k t) ],

which one kernel (``_product``) evaluates: each sample's time is an anchor
plus an offset, the spins are multiplied in a tile at a time in spin order,
and spins in an even superposition (|alpha_k| = |beta_k|) enter as a real
product of cosines.  At T arbitrary times (``decoherence_factor``) every
time is its own anchor and the offset is 0, the kernel's zero-offset case:
O(T*N) time, one cosine (two for an uneven spin) per spin and time, and 24
bytes per time plus one tile.  Every caller that holds a time grid
(``decoherence_trace``, ``time_averaged_r2`` and the pointer diagnostics)
calls ``decoherence_on_grid``, which alone picks the evaluator.  Every
uniform grid t_j = j h (``np.linspace(0, t_max, samples)`` or a prefix of
one, and each chunk of ``recurrence_scan``'s grid) goes to one builder,
``_on_uniform``: the anchors are every 64th sample and the offsets the 64
steps of a block, recombined by angle addition, so a spin costs
2 (64 + T/64) cosines and sines instead of T; the work is still O(T*N), now
in multiplications.  Any other grid takes the zero-offset case.  The kernel
rejects a time whose phase 2 g t overflows (cos and sin of inf are NaN); a
finite phase past 2^53 rad is kept, though float spacing there exceeds
2 pi.  Around it sit the branch states of the environment, long-time
averages, Gaussian-decay fits, and a recurrence scanner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import (
    _NORM_ATOL, DensityMatrix, StateVector, _check_close, _check_dims, _finite, _frozen,
    _kron, _positive, _square,
)

#: Seed used whenever a caller asks for a random ensemble without providing one.
DEFAULT_SEED = 42

# A Gaussian-decay fit window ends at the first sample with |r|^2 below this.
_FIT_FLOOR = math.exp(-4.0)

# The r(t) kernel: samples per anchor on a uniform grid, bath spins per tile
# there, times per tile row at arbitrary times (numpy multiplies a spin's
# row of phases faster the longer it is), and entries of one
# (spins x anchors x offsets) tile: the tile buffers (one complex and one
# float, sized to the call) stay within 768 KiB however long the grid or
# large the bath.
_GRID_BLOCK = 64
_GRID_SPINS = 64
_TILE_ROW = 1 << 12
_GRID_ENTRIES = 1 << 15

# Grid points whose r(t) a recurrence scan holds at a time; a multiple of
# _GRID_BLOCK, so every chunk starts on an anchor.
_SCAN_CHUNK = 1 << 18


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
        g = _finite("couplings g", self.g, copy=True).reshape(-1)
        alpha = np.array(self.alpha, dtype=complex).reshape(-1)
        beta = np.array(self.beta, dtype=complex).reshape(-1)
        if g.size < 1:
            raise ValueError("need at least one bath spin")
        if not (g.size == alpha.size == beta.size):
            raise ValueError(
                f"g, alpha, beta must have equal length, got "
                f"{g.size}, {alpha.size}, {beta.size}"
            )
        _check_close(_square(abs(self.a)) + _square(abs(self.b)), 1.0, _NORM_ATOL,
                     "|a|^2 + |b|^2 = {!r}, expected 1")
        spin_norms = np.abs(alpha) ** 2 + np.abs(beta) ** 2
        worst = float(spin_norms[np.argmax(np.abs(spin_norms - 1.0))])  # or the first NaN
        _check_close(worst, 1.0, _NORM_ATOL, "bath spin |alpha|^2 + |beta|^2 = {!r}, expected 1")
        for name, arr in (("g", g), ("alpha", alpha), ("beta", beta)):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def n_spins(self) -> int:
        return self.g.size

    @classmethod
    def balanced(cls, g, a=1 / math.sqrt(2), b=1 / math.sqrt(2)) -> "SpinBathConfig":
        """Every bath spin starts in the even superposition (alpha = beta)."""
        half = np.full(np.size(g), 1 / math.sqrt(2), dtype=complex)
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
    """Off-diagonal suppression factor r(t) at arbitrary times.

    The zero-offset case of the r(t) kernel: every time is its own anchor,
    so a spin costs one cosine per time (two for an uneven spin, a sine as
    well), O(T*N) time for T times and N spins, and 24 bytes per time plus
    one tile of at most 1 MiB.  A spin with weight
    |alpha_k|^2 - |beta_k|^2 == 0 (an even superposition) contributes the
    real factor cos(2 g_k t), so a balanced bath needs no complex arithmetic.

    Parameters
    ----------
    cfg : SpinBathConfig
    t : float or array_like
        Time(s); scalar in, scalar out.  A time whose phase 2 g_k t
        overflows is rejected.

    Returns
    -------
    complex or complex ndarray of t's shape; |r| <= 1 always, r(0) = 1.
    """
    t_arr = _finite("t", t)
    r = _product(cfg, t_arr.reshape(-1), np.zeros(1), "t").reshape(t_arr.shape)
    return complex(r) if t_arr.ndim == 0 else r


def _product(cfg: SpinBathConfig, t_anchor: np.ndarray, t_offset: np.ndarray,
             name: str) -> np.ndarray:
    """r at t_anchor[m] + t_offset[i], as an (anchors, offsets) array.

    The package's one r(t) kernel.  Spin k's phase at a sample is the anchor
    A = 2 g_k t_anchor[m] plus the offset B = 2 g_k t_offset[i], and
    cos(A + B) = cos A cos B - sin A sin B and
    sin(A + B) = sin A cos B + cos A sin B give its factor.  With the single
    offset 0 the factor is cos A (plus i w sin A for an uneven spin) and the
    angle addition is skipped.  Balanced and uneven spins fill a real and a
    complex accumulator, a tile of spins x anchors x offsets at a time, each
    multiplied in in spin order, so every sample depends on its anchor, its
    offset and the bath alone.  The tile buffers are sized to the call, at
    most ``_GRID_ENTRIES`` entries.  ``name`` is the caller's time argument,
    which a phase overflow is reported against.
    """
    # |t| is at most max |t_anchor| + max |t_offset|; cos and sin of an
    # infinite phase are NaN
    t_max = sum(float(np.abs(t).max(initial=0.0)) for t in (t_anchor, t_offset))
    g_max = float(np.abs(cfg.g).max())
    if not math.isfinite(g_max * (2.0 * t_max)):  # NaN when 2 t is inf and g is 0
        raise ValueError(f"{name}: the phase 2 g t overflows at |t| = {t_max:g}, max g {g_max:g}")
    rows, width = t_anchor.size, t_offset.size
    # |alpha_k|^2 - |beta_k|^2: 0 for a spin in an even superposition
    weight = np.abs(cfg.alpha) ** 2 - np.abs(cfg.beta) ** 2
    uneven = weight != 0.0
    real = np.ones((rows, width))
    r = np.ones((rows, width), dtype=complex)
    # with the zero offset a tile is as many spins as fill it at up to
    # _TILE_ROW times each; one set of buffers, sized to the call, serves both
    # kinds of spin
    per_tile = _GRID_SPINS if width > 1 else _GRID_ENTRIES // max(1, min(rows, _TILE_ROW))
    size = min(_GRID_ENTRIES, min(cfg.n_spins, per_tile) * rows * width)
    table = np.empty(size, dtype=complex)
    spare = np.empty(size)
    for balanced, acc in ((True, real), (False, r)):
        spins = (uneven != balanced).nonzero()[0]
        buf = table.view(acc.dtype)
        for lo in range(0, spins.size, per_tile):
            group = spins[lo : lo + per_tile]
            g, w = cfg.g[group, None], weight[group, None]
            if width > 1:
                offset = g * (2.0 * t_offset)
                cos_b, sin_b = np.cos(offset), np.sin(offset)
            tile = _GRID_ENTRIES // (group.size * width)
            for m in range(0, rows, tile):
                two_t = 2.0 * t_anchor[m : m + tile]
                shape = (group.size, two_t.size, width)
                fac = buf[: math.prod(shape)].reshape(shape)
                cos_ab = fac if balanced else fac.real
                if width == 1:
                    # the zero offset: the factor is cos A (+ i w sin A)
                    anchor = np.multiply(g, two_t, out=spare[: fac.size].reshape(shape[:2]))
                    np.cos(anchor, out=cos_ab[..., 0])
                    if not balanced:
                        np.multiply(np.sin(anchor, out=anchor), w, out=fac.imag[..., 0])
                else:
                    anchor = g * two_t
                    cos_a, sin_a = np.cos(anchor), np.sin(anchor)
                    tmp = spare[: fac.size].reshape(shape)
                    np.einsum("ka,kb->kab", cos_a, cos_b, out=cos_ab)
                    np.einsum("ka,kb->kab", sin_a, sin_b, out=tmp)
                    cos_ab -= tmp
                    if not balanced:
                        # w sin(A + B) = (w sin A) cos B + (w cos A) sin B
                        np.einsum("ka,kb->kab", sin_a * w, cos_b, out=fac.imag)
                        np.einsum("ka,kb->kab", cos_a * w, sin_b, out=tmp)
                        np.add(fac.imag, tmp, out=fac.imag)
                # acc * f_0 * f_1 * ..., left to right in spin order
                seg = acc[m : m + tile]
                np.multiply(seg, fac[0], out=fac[0])
                np.multiply.reduce(fac, axis=0, out=seg)
    r *= real
    return r


def _grid_step(t_grid: np.ndarray) -> float | None:
    """The step h when ``t_grid`` is t_j = j * h bit for bit, as
    ``np.linspace(0, t_max, samples)`` makes it (whose last point may be t_max
    rather than (samples - 1) * h) and any prefix of one; otherwise None."""
    n = t_grid.size
    if n < 2 or t_grid[0] != 0.0 or not t_grid[1] > 0.0:
        return None
    step = float(t_grid[1])
    uniform = np.arange(n, dtype=float)
    uniform *= step
    if t_grid[-1] / (n - 1) == step:
        uniform[-1] = t_grid[-1]
    return step if np.array_equal(uniform, t_grid) else None


def _on_uniform(cfg: SpinBathConfig, step: float, start: int, count: int,
                name: str) -> np.ndarray:
    """r at t_j = j * step for j in [start, start + count), ``start`` a multiple of 64.

    The package's one uniform-grid evaluator: sample j = 64 m + i is the
    anchor t_{64 m} plus the offset t_i, recombined by angle addition, so a
    spin costs 2 (64 + count / 64) cosines and sines where the zero-offset
    case takes count (2 count for an uneven spin).  Every sample depends on
    j, h and the bath alone, so a slice of a grid, a prefix or a later chunk,
    is bit for bit that part of the whole grid.  ``name`` is the caller's
    time argument, which a phase overflow is reported against.
    """
    width = min(_GRID_BLOCK, start + count)
    rows = -(-count // width)
    # t at each anchor (every 64th sample) and at each offset in a block,
    # formed as np.linspace forms it
    with np.errstate(over="ignore"):  # _product rejects an infinite time
        t_anchor = np.arange(start, start + rows * width, width, dtype=float) * step
        t_offset = np.arange(width, dtype=float) * step
    return _product(cfg, t_anchor, t_offset, name).reshape(-1)[:count]


def decoherence_on_grid(cfg: SpinBathConfig, t_grid) -> np.ndarray:
    """r(t) over a time grid, evaluated the cheapest way the grid allows.

    Every caller that holds a time grid comes here, and this function alone
    picks how the r(t) kernel runs.  A uniform grid t_j = j h
    (``np.linspace(0, t_max, samples)`` or a prefix of one) is evaluated by
    angle addition (``_on_uniform``): a prefix is bit for bit the start of
    a longer grid, and a sample with j < 64 or j a multiple of 64 (where the
    offset or the anchor is 0) equals ``decoherence_factor`` at t_j bit for
    bit, r(0) = 1 among them.  Elsewhere the two differ by phase rounding,
    about N eps (1 + max |2 g t|).  Any other grid is evaluated as
    ``decoherence_factor`` evaluates it.

    ``t_grid`` is flattened; it must be finite and not empty, and a grid
    whose phase 2 g t overflows is rejected, each naming ``t_grid``.

    Returns a complex array of the grid's length.
    """
    t_grid = _finite("t_grid", t_grid).reshape(-1)
    if t_grid.size == 0:
        raise ValueError("t_grid: empty time grid")
    step = _grid_step(t_grid)
    if step is None:
        return _product(cfg, t_grid, np.zeros(1), "t_grid").reshape(-1)
    return _on_uniform(cfg, step, 0, t_grid.size, "t_grid")


@dataclass(frozen=True)
class DecoherenceTrace:
    """Sampled r(t), starting at t = 0 where r must equal 1.

    Invariants: strictly increasing t with t[0] = 0, |r| <= 1 + 1e-12,
    |r[0] - 1| <= 1e-12.
    """

    t: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = _finite("t", self.t, copy=True).reshape(-1)
        r = _finite("r", self.r, complex, copy=True).reshape(-1)
        if t.size != r.size or t.size < 2:
            raise ValueError("trace needs matching t and r arrays of length >= 2")
        if t[0] != 0.0:
            raise ValueError(f"trace must start at t = 0, got {t[0]}")
        if not np.all(np.diff(t) > 0):
            raise ValueError("trace times t must be strictly increasing")
        _check_close(r[0], 1.0, 1e-12, "r(0) = {!r}, expected 1")
        if not float(np.max(np.abs(r))) <= 1.0 + 1e-12:
            raise ValueError("|r| exceeds 1 beyond tolerance")
        for name, arr in (("t", t), ("r", r)):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def r2(self) -> np.ndarray:
        """|r(t)|^2 on the same grid."""
        return np.abs(self.r) ** 2


def decoherence_trace(cfg: SpinBathConfig, t_grid) -> DecoherenceTrace:
    """Evaluate r over a grid (which must start at 0) by ``decoherence_on_grid``
    and package it."""
    return DecoherenceTrace(t_grid, decoherence_on_grid(cfg, t_grid))


def reduced_state_A(cfg: SpinBathConfig, t: float) -> DensityMatrix:
    """Qubit state after tracing the bath: diag(|a|^2, |b|^2) plus a*conj(b)*r coherence."""
    a, b = cfg.a, cfg.b
    # one arbitrary time, not a grid
    coherence = a * np.conj(b) * decoherence_factor(cfg, t)
    mat = np.array([[abs(a) ** 2, coherence], [np.conj(coherence), abs(b) ** 2]], dtype=complex)
    return DensityMatrix((2,), mat)


def environment_branch(cfg: SpinBathConfig, t: float, branch: str = "up") -> StateVector:
    """Explicit bath state conditioned on the qubit branch.

    For the up branch each spin k evolves to
    alpha_k e^{+i g_k t}|up> + beta_k e^{-i g_k t}|down>; the down branch is
    the same at -t.  The two branches overlap as
    <down-branch|up-branch> = decoherence_factor(cfg, t).

    Materializes a 2^N vector; 2^N > DIM_CAP (N > 15) raises DimensionCapError.
    """
    if branch not in ("up", "down"):
        raise ValueError(f"branch must be 'up' or 'down', got {branch!r}")
    dims = _check_dims((2,) * cfg.n_spins)
    sign = 1.0 if branch == "up" else -1.0
    phases = np.exp(1j * sign * cfg.g * float(_finite("t", t)))
    amps = _kron(np.array([alpha_k * ph, beta_k * np.conj(ph)])
                 for alpha_k, beta_k, ph in zip(cfg.alpha, cfg.beta, phases))
    return StateVector(dims, amps)


def time_averaged_r2(cfg: SpinBathConfig, t_grid) -> float:
    """Mean of |r(t)|^2 over the grid.

    The grid should span many oscillation periods (>= 50 / min g_k) for the
    average to mean anything; fewer than 100 samples is rejected outright.
    For balanced bath spins and incommensurate couplings the long-time value
    approaches 2^-N.  r is evaluated by ``decoherence_on_grid``.
    """
    if np.size(t_grid) < 100:
        raise ValueError(f"need at least 100 samples, got {np.size(t_grid)}")
    return float(np.mean(np.abs(decoherence_on_grid(cfg, t_grid)) ** 2))


@dataclass(frozen=True)
class GaussianFit:
    """Result of a Gaussian-decay fit |r(t)|^2 ~ exp(-Gamma^2 t^2).

    gamma >= 0; r_squared in [0, 1]; t_max is the end of the fitted window.
    """

    gamma: float
    r_squared: float
    t_max: float

    def __post_init__(self):
        _positive("gamma", self.gamma, zero_ok=True)
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")
        _positive("t_max", self.t_max, zero_ok=True)


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
    below = np.nonzero(r2 < _FIT_FLOOR)[0]
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
    window = math.sqrt(eps / (2.0 * g_sq)) if g_sq > 0.0 else 0.0
    step = min(math.pi / (20.0 * g_max), window)
    if not step > 0.0:
        # sum g^2 overflowed or underflowed to 0, or a coupling is not finite
        raise ValueError(f"couplings up to {g_max:g} leave no usable scan step")
    return step


def recurrence_scan(cfg: SpinBathConfig, horizon: float, eps: float, step: float | None = None):
    """Find revivals: intervals where |r(t)| climbs back above 1 - eps.

    The grid covers [0, horizon] with step at most pi/(20 max g) (and fine
    enough to resolve an eps-window).  Its r(t) is evaluated
    ``_SCAN_CHUNK`` points at a time by angle addition, each chunk bit for
    bit that part of the whole grid, as ``decoherence_on_grid`` evaluates a
    uniform grid.  An interval counts as a recurrence only once |r| has
    first left the band; if it never leaves (e.g. every bath spin starts in
    an energy eigenstate) the single interval [0, horizon] is returned.

    Returns
    -------
    list of (t_enter, t_exit) floats.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    horizon = _positive("horizon", horizon)
    max_step = _scan_step(
        float(np.max(np.abs(cfg.g))), float(np.dot(cfg.g, cfg.g)), eps
    )
    if step is None:
        step = max_step
    elif _positive("step", step) > max_step:
        raise ValueError(
            f"step {step:g} too coarse for eps {eps:g} and these couplings; "
            f"need <= {max_step:g}"
        )
    # checked before np.linspace: the float grid must fit one array (the
    # count is inf when horizon / step overflows)
    points = horizon / step + 1.0
    if not points <= np.iinfo(np.intp).max // 8:
        raise ValueError(
            f"horizon {horizon:g} needs {points:.4g} grid points at step {step:g}, "
            "more than one array can hold"
        )
    n_pts = int(math.ceil(horizon / step)) + 1
    t_grid, h = np.linspace(0.0, float(horizon), n_pts, retstep=True)
    above = np.empty(n_pts, dtype=bool)
    for lo in range(0, n_pts, _SCAN_CHUNK):
        r = _on_uniform(cfg, h, lo, min(_SCAN_CHUNK, n_pts - lo), "horizon")
        above[lo : lo + r.size] = np.abs(r) > 1.0 - eps
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
