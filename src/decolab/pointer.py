"""Pointer-basis diagnostics.

Three ways of seeing why the monitored basis is special: the tripartite
branch structure system+pointer+environment, the decay of system-pointer
correlations when the readout basis is rotated away from the pointer basis,
and a predictability sieve that ranks candidate pointer bases by how pure an
initially-aligned pointer stays.  A separate many-outcome apparatus model
handles pointer dephasing through a user-supplied environment-overlap kernel
(``apparatus_reduced_state``, one dense (n+1) x (n+1) matrix per time); for
the kernel the CLI uses, a convex mixture of exponentials that is the same
for every branch pair, ``apparatus_dephasing`` gives the pointer's
off-diagonal weight and purity in closed form, in O(T*M + n) for T times, M
mixture components and n outcomes, without building any matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .spin_bath import SpinBathConfig, _mean_r2, _r_bytes, decoherence_on_grid, environment_branch
from .states import (
    BasisSpec, DensityMatrix, StateVector, _check_close, _check_dims, _finite, _frozen,
    _square,
)


@dataclass(frozen=True)
class TriConfig:
    """System amplitudes plus the pointer-environment coupling.

    ``a``/``b`` weight the two measurement branches; ``bath`` supplies the
    environment spins and couplings that dephase the pointer (its own qubit
    amplitudes are not consulted here).
    """

    a: complex
    b: complex
    bath: SpinBathConfig

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        _check_close(_square(abs(self.a)) + _square(abs(self.b)), 1.0, 1e-12,
                     "|a|^2 + |b|^2 = {!r}, expected 1")
        if not isinstance(self.bath, SpinBathConfig):
            raise TypeError("bath must be a SpinBathConfig")

    @property
    def n_spins(self) -> int:
        return self.bath.n_spins


def tridecompose_state(cfg: TriConfig, t: float) -> StateVector:
    """Joint system+pointer+environment state at time t.

    The state keeps the branch form
    a |up, up, E_up(t)> + b |down, down, E_down(t)>: system and pointer stay
    perfectly correlated while the environment branches drift apart.  Dims
    are (2, 2) + (2,)*N; 2^(N+2) > DIM_CAP (N > 13) exceeds the dense cap.
    """
    dims = _check_dims((2, 2) + (2,) * cfg.n_spins)
    up = environment_branch(cfg.bath, t, "up")
    down = environment_branch(cfg.bath, t, "down")
    env_dim = up.dim
    amps = np.zeros(4 * env_dim, dtype=complex)
    amps[:env_dim] = cfg.a * up.amps          # |up, up, ...>
    amps[3 * env_dim :] = cfg.b * down.amps   # |down, down, ...>
    return StateVector(dims, amps)


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def basis_correlation_decay(cfg: TriConfig, theta: float, t_grid) -> np.ndarray:
    """System-pointer correlation strength in a rotated readout basis.

    Both the system and pointer readout bases are rotated by ``theta``
    (radians, in [0, pi/2]) away from the pointer basis.  Tracing the
    environment out of the tripartite state leaves rho_SA with |a|^2 and
    |b|^2 on |up,up> and |down,down> and the coherence a conj(b) r(t) between
    them, so with U = R(theta) x R(theta) the rotated diagonal is

        P = |a|^2 U[0]^2 + |b|^2 U[3]^2 + 2 Re(a conj(b) r) U[0] U[3].

    The correlation is the contrast between the aligned and the anti-aligned
    branch pairing,

        C = | sqrt(P00 P11) - sqrt(P01 P10) |.

    theta = 0 reproduces the preserved pointer correlation |a b| at every
    time; rotated bases lose correlation as the branch overlap decays.  r is
    evaluated by ``spin_bath.decoherence_on_grid``.
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    return _rotated_correlation(cfg, theta, decoherence_on_grid(cfg.bath, t_grid))


def _rotated_correlation(cfg: TriConfig, theta: float, r: np.ndarray) -> np.ndarray:
    """``basis_correlation_decay`` from r(t) already sampled on the time grid.

    One r array serves every readout angle, so a caller sweeping several
    angles evaluates the bath once.  ``theta`` is not checked here.
    """
    u2 = np.kron(_rotation(theta), _rotation(theta))
    coherence = np.real(cfg.a * np.conj(cfg.b) * r)
    diag = (
        abs(cfg.a) ** 2 * u2[0] ** 2
        + abs(cfg.b) ** 2 * u2[3] ** 2
        + 2.0 * np.multiply.outer(coherence, u2[0] * u2[3])
    )
    diag = np.clip(diag, 0.0, None)
    return np.abs(np.sqrt(diag[:, 0] * diag[:, 3]) - np.sqrt(diag[:, 1] * diag[:, 2]))


def _correlation_bytes(n_spins: int, samples: int, angles: int) -> int:
    """Peak bytes of r(t) on ``samples`` times (``spin_bath._r_bytes``) and
    its correlation at ``angles`` readout angles (``_rotated_correlation``):
    128 a time while r(t) and one column are computed and 8 a stored value,
    measured with tracemalloc and rounded up."""
    return _r_bytes(n_spins, samples, 128 + angles * 8)


def predictability_sieve(
    candidates: Sequence[BasisSpec], cfg: TriConfig, t_grid
) -> list[tuple[BasisSpec, float]]:
    """Rank candidate pointer bases by how predictable they stay.

    For each candidate basis, the pointer alone is initialized in each basis
    column (u0, u1) (the system is left out) and dephased by the environment
    of ``cfg``.  Its purity is |u0|^4 + |u1|^4 + 2 |u0 u1|^2 |r(t)|^2, so the
    score, the time-averaged purity averaged over the columns, needs only
    the mean of |r|^2 over the grid.  r(t) is walked in slices for it, as
    ``spin_bath.time_averaged_r2`` walks it, and the mean is bit for bit that
    of ``spin_bath.decoherence_on_grid`` over the whole grid.  A basis of
    conserved states scores exactly 1; nothing can score higher.

    Returns the candidates sorted by descending score, ties keeping input
    order.
    """
    candidates = list(candidates)
    if len(candidates) < 2:
        raise ValueError("the sieve needs at least two candidate bases")
    mean_r2 = _mean_r2(cfg.bath, t_grid)
    scored = []
    for basis in candidates:
        if basis.dim != 2:
            raise ValueError("sieve candidates must be single-qubit bases")
        w0, w1 = np.abs(basis.matrix) ** 2
        scored.append(float(np.mean(w0 ** 2 + w1 ** 2 + 2.0 * w0 * w1 * mean_r2)))
    order = sorted(range(len(candidates)), key=lambda i: -scored[i])
    return [(candidates[i], scored[i]) for i in order]


def _branch_amplitudes(amplitudes) -> np.ndarray:
    """Read-only copy of branch amplitudes c with sum |c_i|^2 = 1 within 1e-12."""
    c = np.array(amplitudes, dtype=complex).reshape(-1)
    if c.size < 1:
        raise ValueError("need at least one branch amplitude")
    with np.errstate(over="ignore"):  # an overflowing norm is inf and fails the check
        norm = float(np.sum(np.abs(c) ** 2))
    _check_close(norm, 1.0, 1e-12, "branch amplitudes: sum |c_i|^2 = {!r}, expected 1")
    return _frozen(c)


def _mixture_weights(weights) -> np.ndarray:
    """Read-only copy of convex mixture weights, summing to 1 within 1e-12."""
    w = np.array(weights, dtype=float).reshape(-1)
    if not np.all(w >= 0.0):  # NaN fails here, +inf in the sum
        raise ValueError("mixture weights must be nonnegative")
    with np.errstate(over="ignore"):  # an overflowing sum is inf and fails the check
        total = float(w.sum())
    _check_close(total, 1.0, 1e-12, "mixture weights must sum to 1")
    return _frozen(w)


@dataclass(frozen=True)
class ApparatusModel:
    """Many-outcome pointer dephased by an environment-overlap kernel.

    The pointer space has dimension n+1: index 0 is the ready state (empty
    after premeasurement), indices 1..n carry branch amplitudes
    ``amplitudes`` with sum |c_i|^2 = 1.  ``kappa(i, j, t, mix)`` must return
    the environment-branch overlap <chi_j|chi_i> at time t for mixture
    component ``mix``: kappa(i, i, t, mix) = 1, |kappa| <= 1, and
    kappa(j, i, ...) = conj(kappa(i, j, ...)).  Optional ``weights`` mix
    several environment components convexly.
    """

    amplitudes: np.ndarray
    kappa: Callable[[int, int, float, int], complex]
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _branch_amplitudes(self.amplitudes))
        if self.weights is not None:
            object.__setattr__(self, "weights", _mixture_weights(self.weights))

    @property
    def n_outcomes(self) -> int:
        return self.amplitudes.size

    @property
    def dim(self) -> int:
        return self.amplitudes.size + 1


def apparatus_reduced_state(model: ApparatusModel, t: float) -> DensityMatrix:
    """Pointer state at time t under the overlap kernel.

    Entry (i, j) for branch indices i != j is c_i conj(c_j) times the
    (mixture-averaged) kernel value; diagonals stay |c_i|^2 forever.  The
    ready row and column (index 0) are identically zero.
    """
    _finite("t", t)
    n = model.n_outcomes
    c = model.amplitudes
    weights = model.weights if model.weights is not None else np.array([1.0])
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n):
        mat[i + 1, i + 1] = abs(c[i]) ** 2
    for i in range(n):
        for j in range(i + 1, n):
            avg = 0.0 + 0.0j
            for mix, w in enumerate(weights):
                kij = complex(model.kappa(i, j, t, mix))
                kji = complex(model.kappa(j, i, t, mix))
                if not abs(kij) <= 1.0 + 1e-9:  # NaN fails, and kappa is named
                    raise ValueError(f"|kappa| = {abs(kij):g} at (i={i}, j={j}, t={t}, mix={mix})")
                if not abs(kji - np.conj(kij)) <= 1e-9:
                    raise ValueError(
                        f"kappa is not Hermitian at (i={i}, j={j}, t={t}, mix={mix})"
                    )
                avg += w * kij
            mat[i + 1, j + 1] = c[i] * np.conj(c[j]) * avg
            mat[j + 1, i + 1] = np.conj(mat[i + 1, j + 1])
    return DensityMatrix((n + 1,), mat)


def _apparatus_bytes(amplitudes: int, rates: int, samples: int) -> int:
    """Peak bytes of ``apparatus_dephasing`` for ``amplitudes`` branches,
    ``rates`` mixture components and ``samples`` times, measured with
    tracemalloc and rounded up: 4 KiB, 96 a branch, 48 a rate, and a time 48
    (grid, kernel and the two results) plus 8 a component (the kernel table)."""
    return 4096 + amplitudes * 96 + rates * 48 + samples * (48 + rates * 8)


def apparatus_dephasing(amplitudes, decay_rates, weights, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal weight and purity of the apparatus pointer, in closed form.

    The kernel is the same for every branch pair, a convex mixture of
    exponentials kbar(t) = sum_m w_m exp(-gamma_m t) with ``weights`` w
    (None: equal weights) and ``decay_rates`` gamma.  The pointer is then
    rho = kbar c c^dag + (1 - kbar) diag(|c|^2) on the branches, which is what
    ``apparatus_reduced_state`` builds entry by entry, so with
    S1 = sum |c_i|, S2 = sum |c_i|^2 and S4 = sum |c_i|^4:

        offdiag_sum = kbar (S1^2 - S2)
        purity      = S4 + kbar^2 (S2^2 - S4)

    S2 is the measured norm, not 1, so the values agree with the dense path
    for amplitudes normalised only to within 1e-12.  The cost is O(T*M + n)
    for T times, M components and n amplitudes; no matrix is built.

    Times and rates must be finite and nonnegative and the weights a
    probability vector with one entry per rate.  Then 0 <= kbar <= 1 holds on
    the whole grid by construction, which makes rho Hermitian and positive
    semidefinite, so these input checks stand in for the dense path's
    per-time kernel, Hermiticity and eigenvalue checks.

    Returns ``(offdiag_sum, purity)``, two float arrays of the grid's length.
    """
    mod = np.abs(_branch_amplitudes(amplitudes))
    mod2 = mod ** 2
    s2 = float(np.sum(mod2))
    rates = np.asarray(decay_rates, dtype=float).reshape(-1)
    if rates.size < 1:
        raise ValueError("need at least one decay rate")
    if not np.all(rates >= 0.0):  # NaN fails here, +inf below
        raise ValueError("decay rates must be nonnegative")
    if not np.isfinite(rates).all():
        raise ValueError("decay rates must be finite, or the mixed kernel leaves [0, 1] at t = 0")
    if weights is None:
        w = np.full(rates.size, 1.0 / rates.size)
    else:
        w = _mixture_weights(weights)
        if w.size != rates.size:
            raise ValueError(f"{w.size} mixture weights for {rates.size} decay rates")
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if not np.all(t >= 0.0):
        raise ValueError(f"times must be nonnegative: t_grid holds {np.min(t):g}")
    _finite("t_grid", t)
    with np.errstate(over="ignore"):  # t gamma past the float range: exp(-inf) is the limit 0
        decay = np.multiply.outer(t, -rates)
    kbar = np.exp(decay, out=decay) @ w
    s1 = float(np.sum(mod))
    s4 = float(np.sum(mod2 ** 2))
    return kbar * (s1 * s1 - s2), s4 + kbar * kbar * (s2 * s2 - s4)
