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
bytes per time plus one tile.  Every time grid is walked by one slice
walker (``_slices``), which alone picks the evaluator and checks the whole
grid before the first slice: ``decoherence_on_grid`` (and through it
``decoherence_trace`` and the pointer diagnostics) is its one-slice case,
while ``time_averaged_r2``, ``recurrence_scan`` and the CLI's trace writer
hold one slice of r(t) at a time, one ``states._BLOCK_BYTES`` block at the
bytes a sample costs them (``_slice_size``), and the CLI's Gaussian fits
(``_fit_on_grid``) walk a grid only until the fit window closes.  The time
rule of ``np.linspace(0, t_max, samples)`` (sample j at j h, the last at
t_max) is written once (``_grid_times``): ``recurrence_scan``, the Gaussian
fits and the CLI's trace walk their grids as (samples, h), never built, and
form only the times they report; a grid of times that is such a grid or a
prefix of one is found to be (``_grid_step``) and walked the same way.  On
every uniform grid the anchors are every 64th sample and the offsets the 64
steps of a block, recombined by angle addition, so a spin costs
2 (64 + T/64) cosines and sines instead of T; the work is still O(T*N), now
in multiplications.  Any other grid takes the zero-offset case.  A time
whose phase 2 g t overflows (cos and sin of inf are NaN) is rejected once
for all the times of a call (``_check_phase``), by ``decoherence_factor``
or by the slice walker, before the kernel runs; a finite phase past
2^53 rad is kept, though float spacing there exceeds 2 pi.  Around it sit
the branch states of the environment, long-time averages, Gaussian-decay
fits, and a recurrence scanner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import (
    _NORM_ATOL, DensityMatrix, StateVector, _block_items, _check_close, _check_dims,
    _check_qubit_pair, _finite, _frozen, _kron, _positive,
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
        _check_qubit_pair(self.a, self.b)
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


def _bath_bytes(n_spins: int) -> int:
    """Peak bytes of building a bath of ``n_spins`` spins of either ensemble:
    192 a spin and 4 KiB for its generator, measured with tracemalloc (the
    random one's the larger) and rounded up.  Like every ``_*_bytes`` here,
    the CLI sums it into its estimates before anything is allocated."""
    return n_spins * 192 + 4096


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
    _check_phase(cfg, (t_arr,), "t")
    r = _product(cfg, t_arr.reshape(-1), np.zeros(1)).reshape(t_arr.shape)
    return complex(r) if t_arr.ndim == 0 else r


def _check_phase(cfg: SpinBathConfig, times, name: str) -> None:
    """Reject a sample time whose phase 2 g t overflows (cos and sin of inf are NaN).

    A sample's |t| is at most the sum of the largest |t| of each array in
    ``times`` (its anchors and offsets); ``name`` is the caller's time
    argument, which the error names.
    """
    t_max = sum(float(np.abs(t).max(initial=0.0)) for t in times)
    g_max = float(np.abs(cfg.g).max())
    if not math.isfinite(g_max * (2.0 * t_max)):  # NaN when 2 t is inf and g is 0
        raise ValueError(f"{name}: the phase 2 g t overflows at |t| = {t_max:g}, max g {g_max:g}")


def _product(cfg: SpinBathConfig, t_anchor: np.ndarray, t_offset: np.ndarray) -> np.ndarray:
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
    most ``_GRID_ENTRIES`` entries.  Its callers check the phases first
    (``_check_phase``), once for the whole of their times.
    """
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


def _r_bytes(n_spins: int, points, point_bytes: int = 64):
    """A bath of ``n_spins`` plus r(t) on ``points`` time points of
    ``point_bytes`` each (64 measured while r(t) is evaluated and reduced; a
    walk in slices holds less, so no estimate depends on the slice sizes),
    plus the tile buffers, which 32 bytes per entry bound with the kernel's
    smaller per-tile temporaries."""
    return _bath_bytes(n_spins) + points * point_bytes + 32 * _GRID_ENTRIES


def _grid_times(step: float, j: range, count: int = 0, last: float = 0.0) -> np.ndarray:
    """The times of samples ``j`` (a range) of ``np.linspace(0, last, count)``
    whose step is ``step``, as np.linspace forms them: sample j is at
    j * step, and sample count - 1 at ``last`` itself.  The package's one
    copy of that rule; without ``count`` no sample is the last, as for the
    kernel's anchors and offsets.  (Where ``step`` rounds to 0, np.linspace
    forms j / (count - 1) * last instead; every sample here but the last is
    then at 0.)"""
    with np.errstate(over="ignore"):  # _check_phase rejects an infinite time
        t = np.arange(j.start, j.stop, j.step, dtype=float) * step
    if count - 1 in j:
        t[-1] = last
    return t


def _grid_step(t_grid: np.ndarray) -> float | None:
    """The step h when ``t_grid`` is ``np.linspace(0, t_grid[-1], samples)``
    bit for bit, or any prefix of such a grid, whose last point is j * h like
    the rest; otherwise None.  The grid is compared with
    ``_grid_times`` one block at a time (``states._block_items``, 8 bytes a
    point for its uniform times), never copied."""
    n = t_grid.size
    if n < 2 or t_grid[0] != 0.0 or not t_grid[1] > 0.0:
        return None
    step, last = float(t_grid[1]), float(t_grid[-1])
    # a last point that is not linspace's at this step is a prefix's, j * step
    count = n if last / (n - 1) == step else 0
    size = _block_items(8)
    for lo in range(0, n, size):
        part = t_grid[lo : lo + size]
        if not np.array_equal(_grid_times(step, range(lo, lo + part.size), count, last), part):
            return None
    return step


def _uniform_times(step: float, start: int, count: int):
    """The anchor and offset times of the r(t) kernel for samples
    [start, start + count) of the uniform grid t_j = j * step, ``start`` a
    multiple of 64: every 64th sample and the steps of one block
    (``_grid_times``)."""
    width = min(_GRID_BLOCK, start + count)
    return _grid_times(step, range(start, start + count, width)), _grid_times(step, range(width))


def _slice_size(sample_bytes: int) -> int:
    """Samples in one slice of a grid walk holding ``sample_bytes`` a sample:
    one ``states._BLOCK_BYTES`` block, a multiple of ``_GRID_BLOCK`` so that
    every slice starts on an anchor."""
    return _block_items(sample_bytes, _GRID_BLOCK)


def _slices(cfg: SpinBathConfig, grid, size: int | None, name: str, step: float | None = None):
    """r(t) over a time grid, as an iterator of (start, r) slices of ``size`` samples.

    The package's one place that picks how the r(t) kernel runs over a grid.
    ``grid`` is the grid's times, flattened, or, with ``step`` given, the
    sample count of the uniform grid t_j = j * step, which is then never
    built: ``np.linspace(0, t_max, count)``'s samples, whose times
    ``_grid_times`` forms from (count, step).  A grid of times that is
    uniform (``_grid_step``: a linspace grid or a prefix of one) is walked
    as that count and step.  On a uniform grid sample j = 64 m + i is the
    anchor t_{64 m} plus the offset t_i (``_uniform_times``), recombined by
    angle addition, so a spin costs 2 (64 + size / 64) cosines and sines
    where the zero-offset case takes one per sample (two for an uneven
    spin); every sample depends on j, h and the bath alone, so every slice
    is bit for bit that part of the whole grid.  Any other grid goes to the
    zero-offset case of ``_product``, a slice of times at a time.  ``size``
    is a multiple of 64, or None for the whole grid in one slice.

    The whole grid is checked here, before any slice is evaluated: it must be
    finite and not empty, and a grid whose phase 2 g t overflows anywhere is
    rejected, each naming ``name``.  So a caller that writes slices as they
    come learns of a bad grid before it opens anything.
    """
    if step is None:
        grid = _finite(name, grid).reshape(-1)
        if grid.size == 0:
            raise ValueError(f"{name}: empty time grid")
        step, count = _grid_step(grid), grid.size
    else:
        count = grid
    size = size or count
    if step is None:
        _check_phase(cfg, (grid,), name)

        def evaluate(lo):
            return _product(cfg, grid[lo : lo + size], np.zeros(1)).reshape(-1)
    else:
        # the last slice holds the grid's largest anchor and offset
        last = (count - 1) // size * size
        _check_phase(cfg, _uniform_times(step, last, count - last), name)

        def evaluate(lo):
            n = min(size, count - lo)
            return _product(cfg, *_uniform_times(step, lo, n)).reshape(-1)[:n]
    # a fresh pair per slice, so nothing here keeps a slice alive while the
    # next one is evaluated
    return ((lo, evaluate(lo)) for lo in range(0, count, size))


def decoherence_on_grid(cfg: SpinBathConfig, t_grid) -> np.ndarray:
    """r(t) over a time grid, evaluated the cheapest way the grid allows.

    The one-slice case of ``_slices``, which alone picks how the r(t)
    kernel runs over a grid.  A uniform grid t_j = j h
    (``np.linspace(0, t_max, samples)`` or a prefix of one) is evaluated by
    angle addition on 64-sample blocks: a prefix is bit for bit the start of
    a longer grid, and a sample with j < 64 or j a multiple of 64 (where the
    offset or the anchor is 0) equals ``decoherence_factor`` at t_j bit for
    bit, r(0) = 1 among them.  Elsewhere the two differ by phase rounding,
    about N eps (1 + max |2 g t|).  Any other grid is evaluated as
    ``decoherence_factor`` evaluates it.

    ``t_grid`` is flattened; it must be finite and not empty, and a grid
    whose phase 2 g t overflows is rejected, each naming ``t_grid``.

    Returns a complex array of the grid's length.
    """
    ((_, r),) = _slices(cfg, t_grid, None, "t_grid")
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
    """Mean of |r(t)|^2 over the grid (``_mean_r2``).

    The grid should span many oscillation periods (>= 50 / min g_k) for the
    average to mean anything; fewer than 100 samples is rejected outright.
    For balanced bath spins and incommensurate couplings the long-time value
    approaches 2^-N.
    """
    if np.size(t_grid) < 100:
        raise ValueError(f"need at least 100 samples, got {np.size(t_grid)}")
    return _mean_r2(cfg, t_grid)


def _mean_r2(cfg: SpinBathConfig, t_grid) -> float:
    """Mean of |r(t)|^2 over a grid of any length, walked in slices.

    r is evaluated one block of samples at a time (``_slice_size``, 64
    bytes a sample as ``_r_bytes`` charges them: 16 384 samples), each slice
    as ``decoherence_on_grid`` evaluates that part of the grid, and |r|^2 is
    written into one float buffer whose ``np.mean`` is the result: 8 bytes
    per sample plus one slice, the same mean bit for bit as that of the whole
    grid's |r|^2.
    """
    slices = _slices(cfg, t_grid, _slice_size(64), "t_grid")
    r2 = np.empty(np.size(t_grid))
    for lo, r in slices:
        part = r2[lo : lo + r.size]
        np.abs(r, out=part)
        np.square(part, out=part)
    return float(np.mean(r2))


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


def _fit_on_grid(cfg: SpinBathConfig, count: int, t_max: float) -> GaussianFit:
    """``fit_gaussian_decay`` of r(t) on ``np.linspace(0, t_max, count)``,
    walked only up to its window and never built.

    ``_slices`` walks the grid as (count, step), and the walk stops after
    the first slice that holds a sample with |r|^2 < ``_FIT_FLOOR``, which
    ends the fit window; the samples walked so far are fitted, at the times
    ``_grid_times`` forms for them alone.  Every slice but the last is of
    the first slice's size, the first multiple of ``_GRID_BLOCK`` samples
    past t = 2/Gamma0 (Gamma0^2 = 4 sum g_k^2), where the Gaussian
    exp(-Gamma0^2 t^2) reaches ``_FIT_FLOOR``: a guess at the window that
    costs a slice more where it falls short, not a bound.  A slice is bit
    for bit that part of the whole grid, so the fit is the whole grid's.
    Raises ``FitWindowError`` if |r|^2 never drops below the floor.
    """
    step, norm = t_max / (count - 1), math.sqrt(float(np.dot(cfg.g, cfg.g)))
    # 64 k samples when sample 64 k - 1 is the first block end with
    # t * sqrt(sum g^2) >= 1, t >= 2/Gamma0, found without dividing by a zero Gamma0
    ends = _grid_times(step, range(_GRID_BLOCK - 1, count, _GRID_BLOCK), count, t_max)
    size = (int(np.searchsorted(ends * norm, 1.0)) + 1) * _GRID_BLOCK
    r = np.empty(count, dtype=complex)
    for lo, part in _slices(cfg, count, size, "t_grid", step):
        hi = lo + part.size
        r[lo:hi] = part
        if np.any(np.abs(part) ** 2 < _FIT_FLOOR):
            break
    return fit_gaussian_decay(DecoherenceTrace(_grid_times(step, range(hi), count, t_max), r[:hi]))


def _scan_step(g_max: float, g_sq: float, eps: float) -> float:
    """Largest scan step for couplings with max |g_k| = g_max and sum g_k^2 = g_sq."""
    if g_max == 0.0:
        raise ValueError("recurrence scan needs at least one nonzero coupling")
    # The spec bound pi/(20 g_max) can straddle a narrow epsilon-window near a
    # revival, so the step is also at most sqrt(eps / (2 sum g^2)): the
    # window's half-width for a revival whose peak reaches |r| = 1, since a
    # time u from that peak 1 - |r| is at most about 2 u^2 sum g^2.  A
    # partial revival peaks below 1, so its window is narrower, and it can
    # fall between samples (see recurrence_scan).
    window = math.sqrt(eps / (2.0 * g_sq)) if g_sq > 0.0 else 0.0
    step = min(math.pi / (20.0 * g_max), window)
    if not step > 0.0:
        # sum g^2 overflowed or underflowed to 0, or a coupling is not finite
        raise ValueError(f"couplings up to {g_max:g} leave no usable scan step")
    return step


def _scan_bytes(n_spins: int, g_max: float, g_sq: float, horizon: float, eps: float):
    """Peak bytes of ``recurrence_scan`` over a bath of ``n_spins`` spins with
    max |g_k| = g_max and sum g_k^2 = g_sq, at the step the scan takes
    (``_scan_step``): 32 bytes per grid point, an upper bound (no grid array
    is kept), and 32 per point of the chunk it holds (r, its real
    accumulator and |r|; 25 measured), at most one ``states._BLOCK_BYTES``
    block."""
    points = horizon / _scan_step(g_max, g_sq, eps) + 2.0
    return _r_bytes(n_spins, points, 32) + min(points, _slice_size(32)) * 32


def recurrence_scan(cfg: SpinBathConfig, horizon: float, eps: float, step: float | None = None):
    """Find revivals: intervals where |r(t)| climbs back above 1 - eps.

    The grid covers [0, horizon] with step at most pi/(20 max g) and at most
    sqrt(eps / (2 sum g^2)), the half-width of the eps-window of a revival
    whose peak reaches |r| = 1.  A partial revival, whose peak lies between
    1 - eps and 1, has a narrower window and can fall between two samples:
    on 20 random balanced 3-spin baths (couplings U(0.2, 1), eps 0.2,
    horizon 1 000) this step missed 68 of the 2 019 intervals that a step
    16 times finer found.  So an interval found is a revival, but a revival
    can go unreported; a scan that bounds |r| between samples to certify
    each gap is ROADMAP.md's direction 5.  The grid's points are those of
    ``np.linspace(0, horizon, n)``, j h with the last one ``horizon``, but
    the grid is never built: ``_slices`` walks it as (n, h), and each
    chunk's interval ends are read off the times ``_grid_times`` forms for
    that chunk alone.  Its r(t) is evaluated a chunk of points at a
    time (``_slice_size``, 32 bytes a point as ``_scan_bytes`` charges them:
    32 768 points) by angle addition (``_slices``), each chunk bit for bit
    that part of the whole grid, as ``decoherence_on_grid`` evaluates a
    uniform grid, and reduced to the intervals it closes before the next chunk is
    evaluated; an interval still open at a chunk's end carries over.  So the
    memory is one chunk plus the intervals, whatever the horizon.  An
    interval counts as a recurrence only once |r| has first left the band;
    if it never leaves (e.g. every bath spin starts in an energy eigenstate)
    the single interval [0, horizon] is returned.

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
    # a grid whose points would not fit one array's index range is rejected
    # (the count is inf when horizon / step overflows)
    points = horizon / step + 1.0
    if not points <= np.iinfo(np.intp).max // 8:
        raise ValueError(
            f"horizon {horizon:g} needs {points:.4g} grid points at step {step:g}, "
            "more than one array can hold"
        )
    n_pts = int(math.ceil(horizon / step)) + 1
    # np.linspace's step (NaN for a one-point grid, which _slices rejects)
    h = horizon / (n_pts - 1) if n_pts > 1 else math.nan
    intervals = []
    departed = False  # whether |r| has left the band yet
    enter = None  # the time where the run of `above` open at the last chunk's end began
    for lo, r in _slices(cfg, n_pts, _slice_size(32), "horizon", step=h):
        above = np.abs(r) > 1.0 - eps
        del r  # free the chunk before the next one is evaluated
        if not departed:
            first = int(np.argmin(above))  # the first point out of the band, if any
            if above[first]:
                continue
            departed = True
            above[:first] = False
        # +1 where a run of `above` begins, -1 one past where it ends; t[p + 1]
        # is point p's time, t[p] the time of the point before it
        edges = np.diff(above.astype(np.int8), prepend=np.int8(enter is not None))
        t = _grid_times(h, range(lo - 1, lo + above.size), n_pts, horizon)
        enters = ([] if enter is None else [enter]) + t[1:][edges == 1].tolist()
        exits = t[:-1][edges == -1].tolist()
        del t  # nor hold its times while the next one is evaluated
        enter = enters.pop() if len(enters) > len(exits) else None
        intervals += zip(enters, exits)
    if not departed:
        return [(0.0, float(horizon))]
    if enter is not None:
        intervals.append((enter, horizon))
    return intervals
