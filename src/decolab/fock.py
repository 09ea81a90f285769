"""Truncated oscillator spaces and photon-level measurement families.

A FockSpace carries the dense ladder/number/quadrature matrices on levels
0..n_max (m = omega = 1 scalings: x = (a + a^dag)/sqrt(2)).  On top of it:
exact photon-counting measurement operators |0><n|, a coherent-outcome
family discretized on a quadrature grid in the complex-amplitude plane, and
an Ehrenfest-relation residual check for harmonic dynamics.  The
coherent-POVM completeness audit and the Ehrenfest evolution walk their
rows and times one ``states._BLOCK_BYTES`` block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle, states
from .measurement import KrausSet
from .states import StateVector, _check_density_dim, _finite, _frozen, _positive, _square

_SUPPORT_TOL = 1e-6

#: Radial and angular node count of :func:`default_coherent_grid`.
DEFAULT_DENSITY = 64


class TruncationError(ValueError):
    """A request would push significant amplitude against the truncation edge."""


class FockSpace:
    """Dense operators on the truncated number basis 0..n_max.

    Each operator is a full (n_max + 1) x (n_max + 1) matrix, so n_max + 1
    is held to ``DENSITY_CAP`` before any of them is allocated.
    """

    def __init__(self, n_max: int = 20) -> None:
        n_max = int(n_max)
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        _check_density_dim(n_max + 1)
        self.n_max = n_max
        d = n_max + 1
        ladder = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
        self.annihilate = ladder
        self.create = ladder.conj().T.copy()
        self.number = np.diag(np.arange(d, dtype=float)).astype(complex)
        self.position = (self.annihilate + self.create) / math.sqrt(2.0)
        self.momentum = 1j * (self.create - self.annihilate) / math.sqrt(2.0)
        for m in (self.annihilate, self.create, self.number, self.position, self.momentum):
            _frozen(m)

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FockSpace(n_max={self.n_max})"


# Peak bytes, measured with tracemalloc and rounded up, for d = n_max + 1:
# of FockSpace(n_max), 8 KiB and 96 an entry of its d x d operators; of it and
# coherent_completeness_deviation on K nodes, 64 an entry of the K x d table
# and its scaled copy; of it and ehrenfest_check on T times, 128 an entry of
# the Hamiltonian and its eigendecomposition (d^2) and 64 an amplitude of the
# state on every time, an upper bound (the states are streamed in blocks).
def _space_bytes(n_max: int) -> int:
    return 8192 + (n_max + 1) * (n_max + 1) * 96


def _audit_bytes(n_max: int, nodes: int) -> int:
    return _space_bytes(n_max) + nodes * (n_max + 1) * 64


def _ehrenfest_bytes(n_max: int, points) -> int:
    d = n_max + 1
    return _space_bytes(n_max) + d * d * 128 + points * d * 64


def _coherent_table(alphas, dim: int) -> np.ndarray:
    """Exact coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!) on levels 0..dim-1.

    Returns a (len(alphas), dim) complex array, one row per alpha.  The
    recurrence a_n = a_{n-1} alpha / sqrt(n) advances every row one level at
    a time.  It is written as separate real products and the leading factor
    uses ``math.exp``, so the rows equal the scalar complex recurrence bit for
    bit whatever SIMD kernels numpy dispatches to (its vector complex
    multiply may fuse multiply-adds, its vector exp may round differently).
    """
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    table = np.empty((alphas.size, dim), dtype=complex)
    ar, ai = alphas.real, alphas.imag
    re = np.array([math.exp(-0.5 * abs(a) ** 2) for a in alphas.tolist()])
    im = np.zeros_like(re)
    table[:, 0] = re
    for n in range(1, dim):
        inv = 1.0 / math.sqrt(n)  # numpy's complex / real multiplies by the reciprocal
        re, im = (re * ar - im * ai) * inv, (re * ai + im * ar) * inv
        table.real[:, n] = re
        table.imag[:, n] = im
    return table


def coherent_state(space: FockSpace, alpha: complex) -> StateVector:
    """Truncated coherent state, renormalized on the kept levels.

    Requires |alpha|^2 <= n_max / 4 so the discarded tail is negligible;
    beyond that the truncated vector no longer represents the intended state
    and a TruncationError is raised.
    """
    alpha = complex(_finite("alpha", alpha, complex))
    mean_n = _square(abs(alpha))
    if mean_n > space.n_max / 4.0:
        raise TruncationError(f"|alpha|^2 = {mean_n:g} exceeds n_max/4 = {space.n_max / 4:g}")
    amps = _coherent_table(alpha, space.dim)[0]
    return StateVector((space.dim,), amps / np.linalg.norm(amps))


def photon_counting_set(space: FockSpace) -> KrausSet:
    """Measurement family M_n = |0><n|: reads out n and leaves the vacuum.

    Completeness is exact on the truncated space (sum M^dag M = I to the
    last bit), and every selective update destroys the detected excitation.
    """
    d = space.dim
    ops = np.zeros((d, d, d), dtype=complex)
    ops[np.arange(d), 0, np.arange(d)] = 1.0
    return KrausSet._from_stack(ops, labels=list(range(d)), completeness_tol=1e-14)


@dataclass(frozen=True)
class CoherentGrid:
    """Quadrature nodes in the complex-amplitude plane.

    ``points`` are the nodes alpha_j, ``weights`` the positive area elements
    dA_j, ``radius`` the declared coverage |alpha| <= R of the rule.
    """

    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    radius: float

    def __post_init__(self):
        pts = _finite("points", self.points, complex, copy=True).reshape(-1)
        w = _finite("weights", self.weights, copy=True).reshape(-1)
        if pts.size != w.size or pts.size == 0:
            raise ValueError("points and weights must be nonempty and match")
        if not np.all(w > 0.0):
            raise ValueError("quadrature weights must be positive")
        _positive("declared radius", self.radius)
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "weights", _frozen(w))

    def __len__(self) -> int:
        return self.points.size


def polar_grid(radius: float, n_radial: int = 64, n_angular: int = 64) -> CoherentGrid:
    """Polar quadrature over the disc |alpha| <= radius.

    Gauss-Legendre nodes in the squared radius u = |alpha|^2 (so the area
    element dA = du dphi / 2 is handled exactly) and a uniform angle grid,
    which integrates every phase harmonic e^{i k phi} with |k| < n_angular
    exactly.
    """
    radius = _positive("radius", radius)
    if n_radial < 1 or n_angular < 1:
        raise ValueError("need at least one node in each direction")
    nodes, wts = np.polynomial.legendre.leggauss(n_radial)
    area = _square(radius)
    w_u = 0.5 * wts * area
    w_phi = 2.0 * math.pi / n_angular
    weights = np.multiply.outer(0.5 * w_u, np.full(n_angular, w_phi)).reshape(-1)
    if not np.all((weights > 0.0) & (weights < math.inf)):
        raise ValueError(f"radius {radius:g} over- or underflows the quadrature weights")
    u = 0.5 * (nodes + 1.0) * area
    phi = 2.0 * math.pi * np.arange(n_angular) / n_angular
    rr = np.sqrt(u)
    points = np.multiply.outer(rr, np.exp(1j * phi)).reshape(-1)
    return CoherentGrid(points, weights, float(radius))


def default_coherent_grid(space: FockSpace) -> CoherentGrid:
    """Default 64 x 64 polar rule with radius ceil(2.5 sqrt(n_max))."""
    return polar_grid(
        float(math.ceil(2.5 * math.sqrt(space.n_max))), DEFAULT_DENSITY, DEFAULT_DENSITY
    )


def _checked_grid(space: FockSpace, grid: CoherentGrid | None) -> CoherentGrid:
    """The grid (default: :func:`default_coherent_grid`), checked for coverage."""
    if grid is None:
        grid = default_coherent_grid(space)
    r_min = 2.0 * math.sqrt(space.n_max)
    if grid.radius < r_min:
        raise ValueError(
            f"grid radius {grid.radius:g} too small; need >= 2 sqrt(n_max) = {r_min:g}"
        )
    return grid


def coherent_measurement_set(space: FockSpace, grid: CoherentGrid | None = None) -> KrausSet:
    """Coherent-outcome measurement family on a quadrature grid.

    Each node alpha contributes M_alpha = sqrt(dA/pi) |alpha~><P alpha| with
    |alpha~> the normalized truncated coherent state and <P alpha| the exact
    coherent amplitudes restricted to the space.  The POVM weights then
    quadrature the exact resolution of identity entry by entry, so the
    completeness deviation is pure quadrature error; it is reported by
    ``validate_kraus`` rather than enforced here.  Post-states of outcome
    alpha are the coherent projector |alpha~><alpha~|.

    The set holds K (n_max+1)^2 complex entries for K grid nodes.  To audit
    completeness alone, :func:`coherent_completeness_deviation` gives the
    same deviation in O(K n_max) memory without building any operator.

    The grid must declare coverage radius >= 2 sqrt(n_max).
    """
    grid = _checked_grid(space, grid)
    bra = _coherent_table(grid.points, space.dim)
    ket = bra / np.linalg.norm(bra, axis=1, keepdims=True)
    ops = ket[:, :, None] * bra.conj()[:, None, :]
    ops *= np.sqrt(grid.weights / math.pi)[:, None, None]
    return KrausSet._from_stack(ops, labels=None, completeness_tol=None)


def _effect_sum_blocks(bra: np.ndarray, weight: np.ndarray):
    """The conjugate effect sum (conj(B) diag(weight))^T B in blocks of its rows.

    Yields (lo, rows lo: of the sum) over equal blocks of at least 2 rows
    (``states._row_blocks``).  A block scales and conjugates only its
    columns of B, 16 K bytes a row, at most one ``states._BLOCK_BYTES``
    block of them, so B is the one K x d table, and each block is its rows
    of the whole product bit for bit.
    """
    bounds = states._row_blocks(bra.shape[1], states._block_items(16 * len(bra)))
    for lo, hi in zip(bounds, bounds[1:]):
        scaled = bra[:, lo:hi] * weight[:, None]
        np.conjugate(scaled, out=scaled)
        yield lo, scaled.T @ bra


def coherent_completeness_deviation(space: FockSpace, grid: CoherentGrid | None = None) -> float:
    """Completeness deviation of :func:`coherent_measurement_set`, in closed form.

    With the ket normalized, M_alpha^dag M_alpha = (dA/pi) |P alpha><P alpha|,
    so sum_alpha M_alpha^dag M_alpha = B^T diag(dA/pi) conj(B) for the
    K x (n_max+1) table B of coherent amplitudes.  Returns the max-norm
    deviation of that sum from the identity, equal to
    ``coherent_measurement_set(space, grid).completeness_deviation()`` up to
    rounding, in O(K n_max) memory and O(K n_max^2) flops instead of
    O(K n_max^2) memory and O(K n_max^3) flops.  The sum is formed as its
    conjugate (conj(B) diag(dA/pi))^T B in blocks of its rows
    (``_effect_sum_blocks``), so B is the one K x (n_max+1) table and a
    block's scaled columns of it stay within one ``states._BLOCK_BYTES``
    block; each block is reduced to its largest deviation before the next
    is formed.
    Every block is its rows of the whole product bit for bit, conjugation
    commutes with every rounded product and sum, and |conj(z) - 1| = |z - 1|,
    so the deviation is bit-identical to that of B^T diag(dA/pi) conj(B).
    """
    grid = _checked_grid(space, grid)
    bra = _coherent_table(grid.points, space.dim)
    worst = []
    for lo, part in _effect_sum_blocks(bra, grid.weights / math.pi):
        diag = np.arange(part.shape[0])
        part[diag, lo + diag] -= 1.0  # the block's rows of the identity
        worst.append(np.max(np.abs(part)))
    return float(np.max(worst))  # a NaN anywhere is kept, as by one whole-sum max


@dataclass(frozen=True)
class EhrenfestReport:
    """Residual audit of d<p>/dt = -m omega^2 <x> on a uniform grid."""

    max_residual: float
    dt: float
    t: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)


def _expectations(amps: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Re <a_t| op |a_t> for every row a_t of ``amps``, on BLAS.

    One matrix product y = amps op^T, then Re sum_i conj(a_ti) y_ti as the
    real dot product of each row's (re, im) pairs, so no conjugate copy of
    ``amps`` is made and one T x d temporary is live beside it.
    """
    y = amps @ op.T
    t = amps.shape[0]
    return np.einsum("ti,ti->t", amps.view(float).reshape(t, -1), y.view(float).reshape(t, -1))


def ehrenfest_check(
    space: FockSpace, initial: StateVector, omega: float, mass: float, t_grid
) -> EhrenfestReport:
    """Check the momentum Ehrenfest relation for harmonic dynamics.

    The state is evolved densely under H = p^2/(2m) + m omega^2 x^2 / 2 and
    the centered difference of <p> is compared with -m omega^2 <x> at every
    interior grid point; the report carries the worst residual.  The states
    come from one eigendecomposition a block of about 1 MiB of amplitudes at
    a time (the blocks of :func:`~decolab.oracle.evolve_dense_grid`), and
    each block is reduced to its <x>, <p> and tail before the next is built,
    so the working set is two blocks plus a few floats per grid point.  Each
    of <x>, <p> is one BLAS product y = amps X^T per block followed by the
    real dot product Re sum_i conj(a_ti) y_ti, every row bit-identical to the
    same product over the whole grid.  That rounds <p> by about
    d eps |a|^T |p| |a| (d = n_max + 1; for a coherent state about
    d eps max|<p>|), so the residual has a rounding floor of about
    d eps max|<p>| / dt (2e-11 at n_max 48, |alpha| 1.5, dt 1e-3):
    residuals near it differ between BLAS builds.  ``omega`` must be finite,
    ``mass`` positive and finite, and the grid uniform with at least three
    finite points.  The state must keep its population below n_max/2 (tail
    mass above it under 1e-6), initially and at every grid time, otherwise
    truncation artifacts would masquerade as physics: a TruncationError
    names the first time it does not.
    """
    _finite("omega", omega)
    _positive("mass", mass)
    t_grid = _finite("t_grid", t_grid).reshape(-1)
    if t_grid.size < 3:
        raise ValueError("need at least three grid points")
    steps = np.diff(t_grid)
    dt = float(steps[0])
    if not (dt > 0 and np.max(np.abs(steps - dt)) <= 1e-9 * max(dt, 1.0)):
        raise ValueError("time grid t_grid must be uniform and increasing")
    if initial.dim != space.dim:
        raise ValueError(f"state dim {initial.dim} != space dim {space.dim}")
    cut = space.n_max // 2
    tail = float(np.sum(np.abs(initial.amps[cut + 1 :]) ** 2))
    if not tail <= _SUPPORT_TOL:
        raise TruncationError(
            f"initial state carries {tail:g} population above level {cut}; "
            "enlarge the space before trusting the dynamics"
        )
    omega_sq = _square(omega)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN entry is rejected below
        ham = space.momentum @ space.momentum / (2.0 * mass) \
            + 0.5 * mass * omega_sq * (space.position @ space.position)
    if not np.isfinite(ham).all():
        raise ValueError(f"omega {omega:g} and mass {mass:g} overflow the Hamiltonian")
    _, blocks = oracle._dense_blocks(ham, initial, t_grid)
    exp_x, exp_p = np.empty(t_grid.size), np.empty(t_grid.size)
    for start, amps in blocks:
        # the dynamics can squeeze the state onto the edge (m omega far from 1)
        upper = amps[:, cut + 1 :].view(float)
        tails = np.einsum("ti,ti->t", upper, upper)
        bad = np.flatnonzero(~(tails <= _SUPPORT_TOL))
        if bad.size:
            raise TruncationError(
                f"evolved state carries {tails[bad[0]]:g} population above level {cut} "
                f"at t = {t_grid[start + bad[0]]:g}; enlarge the space before trusting "
                "the dynamics"
            )
        stop = start + amps.shape[0]
        exp_x[start:stop] = _expectations(amps, space.position)
        exp_p[start:stop] = _expectations(amps, space.momentum)
        del amps, upper  # free the block before the next one is built
    dpdt = (exp_p[2:] - exp_p[:-2]) / (2.0 * dt)
    residuals = _frozen(np.abs(dpdt + mass * omega_sq * exp_x[1:-1]))
    return EhrenfestReport(
        max_residual=float(np.max(residuals)),
        dt=dt,
        t=_frozen(t_grid[1:-1].copy()),
        residuals=residuals,
    )
