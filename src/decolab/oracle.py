"""Brute-force reference propagators.

This module is the package's independent cross-check: it never uses the
closed-form dephasing product.  Everything is computed by explicitly
evolving a joint state vector (diagonal phases or a dense eigendecomposition)
and partial-tracing, so agreement with the analytic layer is a real test and
not a tautology.  ``oracle_r`` takes one time or a whole grid: it builds the
joint state and the dephasing Hamiltonian once per bath and evolves them to
each time in turn.  ``oracle_rho_sa`` and ``oracle_pointer_purity`` are the
dense references for the pointer diagnostics; the tests cross-check with
them and the package does not export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pointer import tridecompose_state
from .spin_bath import environment_branch
from .states import (
    DensityMatrix, StateVector, _check_dims, _check_square, _finite, _frozen, purity,
    reduced_density,
)

_HERM_ATOL = 1e-10


class UndefinedRatioError(ValueError):
    """Off-diagonal ratio r is undefined when a branch amplitude vanishes."""


@dataclass(frozen=True)
class DiagonalHamiltonian:
    """Hamiltonian already diagonal in the computational product basis.

    ``energies[j]`` is the eigenvalue on basis index j; propagation is the
    elementwise phase exp(-i * E_j * t) (hbar = 1).
    """

    dims: tuple[int, ...]
    energies: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = _check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        total = math.prod(dims)
        energies = _finite("energies", self.energies, copy=True).reshape(-1)
        if energies.size != total:
            raise ValueError(
                f"got {energies.size} energies for total dimension {total}"
            )
        object.__setattr__(self, "energies", _frozen(energies))


def evolve_diagonal(ham: DiagonalHamiltonian, psi0: StateVector, t: float) -> StateVector:
    """Evolve ``psi0`` for time t under a diagonal Hamiltonian.

    Returns a new StateVector with amplitudes amps_j * exp(-i E_j t).
    """
    if ham.dims != psi0.dims:
        raise ValueError(f"dimension mismatch: {ham.dims} vs {psi0.dims}")
    return StateVector(psi0.dims, psi0.amps * np.exp(-1j * ham.energies * float(_finite("t", t))))


def evolve_dense(h, psi0: StateVector, t: float) -> StateVector:
    """Evolve under a dense Hermitian Hamiltonian via eigendecomposition.

    Parameters
    ----------
    h : (d, d) array_like
        Hermitian within 1e-10; d is capped at ``DENSITY_CAP`` (2**12).
    psi0 : StateVector
    t : float

    Returns
    -------
    StateVector at time t, exp(-i H t) |psi0>: the one row of
    :func:`evolve_dense_grid` on the grid [t].
    """
    return StateVector(psi0.dims, evolve_dense_grid(h, psi0, [_finite("t", t)])[0])


def evolve_dense_grid(h, psi0: StateVector, t_grid) -> np.ndarray:
    """Amplitudes of exp(-i H t)|psi0> for every t in a grid.

    One eigendecomposition is shared across the whole grid, and the rows are
    filled a block of times at a time (:func:`_dense_blocks`), so about 2 MiB
    of phase and amplitude blocks are live beside the result.  Returns a
    (len(t_grid), dim) complex array; rows are unit vectors, bit-identical to
    the whole-grid product (exp(-i t E) coeff) evecs^T.
    """
    t_grid, blocks = _dense_blocks(h, psi0, t_grid)
    rows = np.empty((t_grid.size, psi0.dim), dtype=complex)
    for start, amps in blocks:
        rows[start : start + amps.shape[0]] = amps
    return rows


#: Bytes of amplitudes in one block of :func:`_dense_blocks`.
_BLOCK_BYTES = 2 ** 20


def _row_blocks(rows: int, block: int) -> list:
    """Bounds of equal blocks of about ``block`` (at least 2) of ``rows`` rows.

    No block has a single row unless ``rows`` is 1: numpy sends a one-row
    product to gemv, which may round differently from gemm, while a gemm row
    does not depend on the other rows, so a product formed block by block
    equals the whole product bit for bit.
    """
    if rows == 0:
        return [0]
    blocks = max(1, min(-(-rows // max(2, block)), rows // 2))
    return [rows * k // blocks for k in range(blocks + 1)]


def _dense_blocks(h, psi0: StateVector, t_grid):
    """Check and diagonalise ``h`` once, then evolve ``psi0`` block by block.

    Returns the checked grid and a generator of (start, amplitudes), the
    amplitudes for ``t_grid[start : start + len(amplitudes)]``.  Each block
    holds its phase table and the amplitudes built from it, at most
    ``_BLOCK_BYTES`` each.  The grid is split into equal blocks of at least
    two times (``_row_blocks``), so every block equals its rows of the
    whole-grid product bit for bit.
    """
    h = np.asarray(h, dtype=complex)
    _check_square("Hamiltonian", h, _HERM_ATOL)
    if h.shape[0] != psi0.dim:
        raise ValueError(f"Hamiltonian dim {h.shape[0]} != state dim {psi0.dim}")
    t_grid = _finite("t_grid", t_grid).reshape(-1)
    evals, evecs = np.linalg.eigh(h)
    coeff = evecs.conj().T @ psi0.amps
    bounds = _row_blocks(t_grid.size, _BLOCK_BYTES // (16 * psi0.dim))

    def evolve(start, stop):
        phases = -1j * np.outer(t_grid[start:stop], evals)
        np.exp(phases, out=phases)
        phases *= coeff
        return phases @ evecs.T

    return t_grid, ((start, evolve(start, stop)) for start, stop in zip(bounds, bounds[1:]))


def _spin_sums(g: np.ndarray) -> np.ndarray:
    """sum_k g_k s_k on every spin basis index, spin 1 the most significant bit.

    A Kronecker sum split into halves: O(2^N) additions, and each sum is
    rounded over a balanced tree of depth log2(N) rather than a chain of N.
    """
    if g.size == 1:
        return np.array([g[0], -g[0]])
    half = g.size // 2
    return np.add.outer(_spin_sums(g[:half]), _spin_sums(g[half:])).reshape(-1)


def dephasing_hamiltonian(couplings) -> DiagonalHamiltonian:
    """Diagonal pure-dephasing Hamiltonian for one qubit coupled to N spins.

    In the sigma_z product basis (qubit first, then the spins, index 0 = up)
    the energies are E(s_0, s_1..s_N) = -s_0 * sum_k g_k s_k with s = +/-1.
    The sign convention makes the up-branch amplitude of spin k rotate as
    exp(+i g_k t) under exp(-i H t).
    """
    g = _finite("couplings", couplings).reshape(-1)
    if g.size < 1:
        raise ValueError("need at least one coupling")
    dims = _check_dims((2,) * (g.size + 1))
    bath = _spin_sums(g)
    energies = np.concatenate([-bath, bath])  # qubit up (s_0 = +1), then down
    return DiagonalHamiltonian(dims, energies)


def _joint_state(column, bath) -> StateVector:
    """Qubit ``column`` (two amplitudes) next to the product state of ``bath``."""
    amps = np.kron(np.asarray(column, dtype=complex), environment_branch(bath, 0.0).amps)
    return StateVector((2,) * (bath.n_spins + 1), amps)


def oracle_r(cfg, t):
    """Dephasing factor obtained by explicit joint evolution.

    Builds the full qubit+bath product state from ``cfg`` (a
    :class:`~decolab.spin_bath.SpinBathConfig`) and
    :func:`dephasing_hamiltonian` once, then for every time evolves with
    :func:`evolve_diagonal`, partial traces down to the qubit, and divides
    the off-diagonal entry by a * conj(b).  The joint state has dimension
    2^(N+1), so N <= 14 bath spins under ``DIM_CAP``; the cap and a vanishing
    branch are checked before anything of size 2^N is built.

    Parameters
    ----------
    cfg : SpinBathConfig
    t : float or array_like
        Time(s); scalar in, scalar out, as for
        :func:`~decolab.spin_bath.decoherence_factor`.

    Returns
    -------
    complex or complex ndarray of t's shape.  Each value is bit-identical to
    a scalar call at that time.
    """
    _check_dims((2,) * (cfg.n_spins + 1))
    a, b = complex(cfg.a), complex(cfg.b)
    if a == 0 or b == 0:
        raise UndefinedRatioError(
            "off-diagonal ratio undefined: a branch amplitude is zero"
        )
    psi0 = _joint_state([a, b], cfg)
    ham = dephasing_hamiltonian(cfg.g)
    coherence = a * np.conj(b)
    t_arr = _finite("t", t)
    r = np.empty(t_arr.shape, dtype=complex)
    for idx, t_k in np.ndenumerate(t_arr):
        rho_a = reduced_density(evolve_diagonal(ham, psi0, t_k), keep=0)
        r[idx] = rho_a.mat[0, 1] / coherence
    if t_arr.ndim == 0:
        return complex(r)
    return r


def _oracle_r_bytes(amps: int, times: int) -> int:
    """Peak bytes of :func:`oracle_r` on a joint state of ``amps`` amplitudes
    (2^(N+1) for N bath spins) at ``times`` times beside the closed form's
    values: 16 KiB, 64 an amplitude and 80 a time, measured with tracemalloc
    and rounded up."""
    return 16384 + amps * 64 + times * 80


def oracle_rho_sa(cfg, t: float) -> DensityMatrix:
    """System+pointer state obtained from the explicit tripartite state.

    Traces the environment out of
    :func:`~decolab.pointer.tridecompose_state` for ``cfg`` (a
    :class:`~decolab.pointer.TriConfig`).  Reference for
    :func:`~decolab.pointer.basis_correlation_decay`; limited to N <= 13
    bath spins.
    """
    return reduced_density(tridecompose_state(cfg, t), keep=(0, 1))


def oracle_pointer_purity(bath, column, t_grid) -> np.ndarray:
    """Purity of a pointer dephased by ``bath``, by explicit joint evolution.

    The pointer starts in ``column`` (two amplitudes) next to the bath
    product state of ``bath`` (a :class:`~decolab.spin_bath.SpinBathConfig`)
    and evolves with :func:`evolve_diagonal` under
    :func:`dephasing_hamiltonian`; the bath is traced out at every time.
    Reference for :func:`~decolab.pointer.predictability_sieve`, whose score
    of a basis is this purity averaged over the grid and the basis columns.
    """
    psi0 = _joint_state(column, bath)
    ham = dephasing_hamiltonian(bath.g)
    return np.array(
        [
            purity(reduced_density(evolve_diagonal(ham, psi0, t), keep=0))
            for t in _finite("t_grid", t_grid).reshape(-1)
        ]
    )
