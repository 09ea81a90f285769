"""Brute-force reference propagators.

This module is the package's independent cross-check: it never uses the
closed-form dephasing product.  Everything is computed by explicitly
evolving a joint state vector (diagonal phases or a dense eigendecomposition)
and partial-tracing, so agreement with the analytic layer is a real test and
not a tautology.  ``oracle_r`` takes one time or a whole grid: it builds the
joint state and the dephasing Hamiltonian once per bath and evolves them a
block of times at a time (``_dephasing_blocks``), reducing and checking each
block with the functions of ``decolab.states`` that ``reduced_density``,
``StateVector`` and ``DensityMatrix`` run on one state, so each value equals
:func:`evolve_diagonal` and ``reduced_density`` at that time bit for bit.
Its blocks, and those of the dense propagation (``_dense_blocks``), hold
one ``states._BLOCK_BYTES`` block of times as ``states._block_items``
sizes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import states
from .spin_bath import environment_branch
from .states import (
    StateVector, _check_dims, _check_square, _check_stack, _finite, _frozen, _reduce, tensor,
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

    Returns a new StateVector with amplitudes exp(-i E_j t) * amps_j, the
    phase the left factor at every size (complex multiplication need not
    commute bit for bit, and numpy reorders ``amps * phases`` when it reuses
    a large temporary).
    """
    if ham.dims != psi0.dims:
        raise ValueError(f"dimension mismatch: {ham.dims} vs {psi0.dims}")
    phases = np.exp(-1j * ham.energies * float(_finite("t", t)))
    return StateVector(psi0.dims, np.multiply(phases, psi0.amps, out=phases))


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


def _dense_blocks(h, psi0: StateVector, t_grid):
    """Check and diagonalise ``h`` once, then evolve ``psi0`` block by block.

    Returns the checked grid and a generator of (start, amplitudes), the
    amplitudes for ``t_grid[start : start + len(amplitudes)]``.  Each block
    holds its phase table and the amplitudes built from it, at most one
    ``states._BLOCK_BYTES`` block each (16 bytes an amplitude).  The grid is
    split into equal blocks of at least two times (``states._row_blocks``),
    so every block equals its rows of the whole-grid product bit for bit.
    """
    h = np.asarray(h, dtype=complex)
    _check_square("Hamiltonian", h, _HERM_ATOL)
    if h.shape[0] != psi0.dim:
        raise ValueError(f"Hamiltonian dim {h.shape[0]} != state dim {psi0.dim}")
    t_grid = _finite("t_grid", t_grid).reshape(-1)
    evals, evecs = np.linalg.eigh(h)
    coeff = evecs.conj().T @ psi0.amps
    bounds = states._row_blocks(t_grid.size, states._block_items(16 * psi0.dim))

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
    return tensor(StateVector((2,), column), environment_branch(bath, 0.0))


def _dephasing_blocks(ham: DiagonalHamiltonian, psi0: StateVector, t_grid: np.ndarray):
    """The qubit's reduced density matrices as ``psi0`` evolves under ``ham``,
    a block of times at a time: the diagonal counterpart of
    :func:`_dense_blocks`.

    ``ham`` is a :func:`dephasing_hamiltonian`, whose qubit-down energies are
    its qubit-up energies negated, so the qubit-down phases are the
    conjugates of the qubit-up phases bit for bit: a block forms
    exp((-i E_up) t) once, conjugates it into the qubit-down half and
    multiplies both halves into the amplitudes in place, phase first as
    :func:`evolve_diagonal` does.  The block's states are then reduced to the
    qubit and checked by ``states._reduce`` and ``states._check_stack``, which
    ``reduced_density``, ``StateVector`` and ``DensityMatrix`` run on one
    state, so every time gets their values and, if it fails, their message.
    ``t_grid`` is a flat, checked grid.  Returns a generator of (start, rho),
    the (times, 2, 2) matrices at ``t_grid[start : start + len(rho)]``;
    ``ham`` is not kept.  A block holds at most one ``states._BLOCK_BYTES``
    block (:func:`_dephasing_time_bytes` a time) unless a single time needs
    more, which at N = 14 it does by its reduced matrix.
    """
    half = psi0.dim // 2
    up, down = psi0.amps[:half], psi0.amps[half:]
    angles = -1j * ham.energies[:half]
    per_time = _dephasing_time_bytes(psi0.dim)
    bounds = states._row_blocks(t_grid.size, states._block_items(per_time), least=1)

    def blocks():
        # one buffer serves every block, made once ``ham`` is gone; each step
        # writes the half it reads or the other half of the same times, so
        # no ufunc copies an input that may overlap its output
        buf = np.empty((max(np.diff(bounds), default=0), 2, half), dtype=complex)
        for start, stop in zip(bounds, bounds[1:]):
            amps = buf[: stop - start]
            # the angles a time at a time, as numpy buffers a broadcast
            # operand: a one-time block (N >= 13) then buffers nothing
            for row, t in zip(amps[:, 0], t_grid[start:stop]):
                np.multiply(angles, t, out=row)
            np.exp(amps[:, 0], out=amps[:, 0])
            np.multiply(np.conjugate(amps[:, 0], out=amps[:, 1]), down, out=amps[:, 1])
            np.multiply(amps[:, 0], up, out=amps[:, 0])
            rho = _reduce(psi0.dims, amps, [0])
            _check_stack(amps, rho)
            yield start, rho

    return blocks()


def _dephasing_time_bytes(dim: int) -> int:
    """Bytes one time holds in a block of :func:`_dephasing_blocks` on a
    joint state of ``dim`` amplitudes: 16 an amplitude, 16 for its conjugate
    in ``states._reduce``, and 256 for its reduced density matrix and the
    temporaries of its checks (about 130 measured with tracemalloc, rounded
    up)."""
    return 32 * dim + 256


def oracle_r(cfg, t):
    """Dephasing factor obtained by explicit joint evolution.

    Builds the full qubit+bath product state from ``cfg`` (a
    :class:`~decolab.spin_bath.SpinBathConfig`) and
    :func:`dephasing_hamiltonian` once, then evolves a block of times at a
    time (:func:`_dephasing_blocks`), partial traces down to the qubit, and
    divides the off-diagonal entry by a * conj(b).  The joint state has
    dimension 2^(N+1), so N <= 14 bath spins under ``DIM_CAP``; the cap and a
    vanishing branch are checked before anything of size 2^N is built.

    Parameters
    ----------
    cfg : SpinBathConfig
    t : float or array_like
        Time(s); scalar in, scalar out, as for
        :func:`~decolab.spin_bath.decoherence_factor`.

    Returns
    -------
    complex or complex ndarray of t's shape.  Each value is bit-identical to
    a scalar call at that time, and to :func:`evolve_diagonal` followed by
    ``reduced_density`` there.
    """
    _check_dims((2,) * (cfg.n_spins + 1))
    a, b = complex(cfg.a), complex(cfg.b)
    if a == 0 or b == 0:
        raise UndefinedRatioError(
            "off-diagonal ratio undefined: a branch amplitude is zero"
        )
    psi0 = _joint_state([a, b], cfg)
    coherence = a * np.conj(b)
    t_arr = _finite("t", t)
    t_flat = t_arr.reshape(-1)
    r = np.empty(t_flat.size, dtype=complex)
    for start, rho in _dephasing_blocks(dephasing_hamiltonian(cfg.g), psi0, t_flat):
        r[start : start + rho.shape[0]] = rho[:, 0, 1] / coherence
    if t_arr.ndim == 0:
        return complex(r[0])
    return r.reshape(t_arr.shape)


def _oracle_r_bytes(amps: int, times: int) -> int:
    """Peak bytes of :func:`oracle_r` on a joint state of ``amps`` amplitudes
    (2^(N+1) for N bath spins) at ``times`` times beside the closed form's
    values: 16 KiB, 48 an amplitude for the joint state and the phase
    angles, one block of :func:`_dephasing_blocks` (its amplitudes and the
    conjugate ``states._reduce`` takes of them), the buffers numpy gives
    the three operands of a binary ufunc on a strided block (``getbufsize``
    complex entries each) and 80 a time, measured with tracemalloc and
    rounded up."""
    per_time = _dephasing_time_bytes(amps)
    block = min(times * per_time, max(states._BLOCK_BYTES, per_time))
    return 16384 + amps * 48 + block + 3 * 16 * np.getbufsize() + times * 80
