"""Dense tensor-product state algebra.

Everything here is deliberately dense and explicit: states are flat complex
vectors over an explicit subsystem factorization, density matrices are full
square arrays.  Natural units (hbar = 1) throughout.  The total dimension of
any object is capped at ``DIM_CAP`` so a typo cannot allocate terabytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: Largest total Hilbert-space dimension materialized by this package.
DIM_CAP = 2 ** 15

_NORM_ATOL = 1e-12
_HERM_ATOL = 1e-12
_TRACE_ATOL = 1e-12
_EIG_FLOOR = -1e-10
_UNITARY_ATOL = 1e-10


class DimensionCapError(ValueError):
    """Raised when a requested dense object exceeds ``DIM_CAP``."""


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        raise ValueError("need at least one subsystem dimension")
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
    total = int(np.prod(dims))
    if total > DIM_CAP:
        raise DimensionCapError(
            f"total dimension {total} exceeds the dense cap {DIM_CAP}"
        )
    return dims


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class StateVector:
    """Normalized pure state on an explicit tensor factorization.

    Parameters
    ----------
    dims : sequence of int
        Subsystem dimensions; index 0 is the leftmost (most significant)
        Kronecker factor.
    amps : array_like
        Complex amplitudes, length ``prod(dims)``, with unit 2-norm
        (sum of |amps|^2 equal to 1 within 1e-12).
    """

    def __init__(self, dims: Sequence[int], amps) -> None:
        self.dims = _check_dims(dims)
        amps = np.array(amps, dtype=complex).reshape(-1)
        total = int(np.prod(self.dims))
        if amps.size != total:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {total}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        # each tolerance test is written so that NaN fails it
        if not abs(norm_sq - 1.0) <= _NORM_ATOL:
            raise ValueError(
                f"state is not normalized: sum |amps|^2 = {norm_sq!r}"
            )
        self.amps = _frozen(amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi| on the same factorization."""
        return DensityMatrix(self.dims, np.outer(self.amps, self.amps.conj()))

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other> (conjugate-linear in self)."""
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amps, other.amps))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector(dims={self.dims}, dim={self.dim})"


class DensityMatrix:
    """Positive-semidefinite, unit-trace operator on a tensor factorization.

    Construction enforces Hermiticity (1e-12), unit trace (1e-12), and
    positivity up to the floating-point floor: the smallest eigenvalue may be
    no lower than -1e-10, which tolerates the tiny negative eigenvalues that
    partial traces of rounded data produce.
    """

    def __init__(self, dims: Sequence[int], mat) -> None:
        self.dims = _check_dims(dims)
        mat = np.array(mat, dtype=complex)
        total = int(np.prod(self.dims))
        if mat.shape != (total, total):
            raise ValueError(
                f"matrix has shape {mat.shape}, expected {(total, total)}"
            )
        herm_dev = float(np.max(np.abs(mat - mat.conj().T))) if total else 0.0
        if not herm_dev <= _HERM_ATOL:
            raise ValueError(f"matrix is not Hermitian: max deviation {herm_dev:g}")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= _TRACE_ATOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        eig_min = float(np.linalg.eigvalsh(mat)[0])
        if not eig_min >= _EIG_FLOOR:
            raise ValueError(
                f"matrix is not positive semidefinite: min eigenvalue {eig_min:g}"
            )
        self.mat = _frozen(mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(dims={self.dims}, dim={self.dim})"


@dataclass(frozen=True)
class BasisSpec:
    """Orthonormal basis for one subsystem.

    ``matrix`` holds the basis states as columns and must be unitary within
    1e-10.  ``subsystem`` names the tensor factor the basis refers to; ops
    acting on a full space lift the basis with identities on the remaining
    factors.
    """

    subsystem: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if int(self.subsystem) != self.subsystem or self.subsystem < 0:
            raise ValueError(f"subsystem index must be a nonnegative int, got {self.subsystem}")
        object.__setattr__(self, "subsystem", int(self.subsystem))
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"basis matrix must be square, got shape {mat.shape}")
        dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))
        if dev > _UNITARY_ATOL:
            raise ValueError(f"basis matrix is not unitary: deviation {dev:g}")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def column(self, i: int) -> np.ndarray:
        return np.array(self.matrix[:, i])


def tensor(*factors):
    """Kronecker product of states or of density matrices.

    All arguments must be of the same kind.  Factor order fixes the subsystem
    order of the result: ``tensor(a, b).dims == a.dims + b.dims``.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    if all(isinstance(f, StateVector) for f in factors):
        dims: tuple[int, ...] = ()
        amps = np.ones(1, dtype=complex)
        for f in factors:
            dims = dims + f.dims
            amps = np.kron(amps, f.amps)
        return StateVector(dims, amps)
    if all(isinstance(f, DensityMatrix) for f in factors):
        dims = ()
        mat = np.ones((1, 1), dtype=complex)
        for f in factors:
            dims = dims + f.dims
            mat = np.kron(mat, f.mat)
        return DensityMatrix(dims, mat)
    raise TypeError("tensor() takes all StateVector or all DensityMatrix factors")


def _check_keep(dims: tuple[int, ...], keep) -> list[int]:
    keep = [int(k) for k in np.atleast_1d(keep)]
    if len(keep) == 0:
        raise ValueError("keep must name at least one subsystem")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep contains repeated indices: {keep}")
    for k in keep:
        if not 0 <= k < len(dims):
            raise ValueError(
                f"keep index {k} out of range for {len(dims)} subsystems"
            )
    return sorted(keep)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    rho : DensityMatrix
    keep : int or sequence of int
        Subsystem indices to retain.  The result's factors appear in
        ascending index order.

    Returns
    -------
    DensityMatrix on the retained factors.
    """
    keep = _check_keep(rho.dims, keep)
    n = len(rho.dims)
    resh = rho.mat.reshape(rho.dims + rho.dims)
    keep_set = set(keep)
    row = list(range(n))
    col = [n + k if k in keep_set else k for k in range(n)]
    out = [k for k in keep] + [n + k for k in keep]
    reduced = np.einsum(resh, row + col, out)
    new_dims = tuple(rho.dims[k] for k in keep)
    d = int(np.prod(new_dims))
    return DensityMatrix(new_dims, reduced.reshape(d, d))


def reduced_density(psi: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state, without materializing |psi><psi|.

    Equivalent to ``partial_trace(psi.density(), keep)`` but needs only
    O(dim^1.x) memory, which matters for large environments.
    """
    keep = _check_keep(psi.dims, keep)
    n = len(psi.dims)
    rest = [k for k in range(n) if k not in keep]
    tensor_amps = psi.amps.reshape(psi.dims)
    moved = np.transpose(tensor_amps, keep + rest)
    d_keep = int(np.prod([psi.dims[k] for k in keep]))
    mat = moved.reshape(d_keep, -1)
    new_dims = tuple(psi.dims[k] for k in keep)
    return DensityMatrix(new_dims, mat @ mat.conj().T)


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2]; equals 1 for pure states, 1/d for the maximally mixed state."""
    return float(np.vdot(rho.mat, rho.mat).real)


def _lift_unitary(dims: tuple[int, ...], subsystem: int, u: np.ndarray) -> np.ndarray:
    full = np.ones((1, 1), dtype=complex)
    for k, d in enumerate(dims):
        block = u if k == subsystem else np.eye(d)
        full = np.kron(full, block)
    return full


def offdiag_norm(rho: DensityMatrix, basis: BasisSpec) -> float:
    """Sum of |off-diagonal entries| of rho expressed in the given basis.

    The basis either spans the full space of ``rho`` (its unitary is applied
    directly) or one subsystem, in which case it is lifted with identities on
    the remaining factors; the matrix is rotated as U^dag rho U before
    summing.  Zero iff rho is diagonal in the rotated basis; invariant under
    per-column phase changes of U.
    """
    if basis.dim == rho.dim:
        u = basis.matrix
    else:
        if basis.subsystem >= len(rho.dims):
            raise ValueError(
                f"basis subsystem {basis.subsystem} out of range for dims {rho.dims}"
            )
        if basis.dim != rho.dims[basis.subsystem]:
            raise ValueError(
                f"basis dimension {basis.dim} matches neither the full space "
                f"({rho.dim}) nor subsystem {basis.subsystem} "
                f"({rho.dims[basis.subsystem]})"
            )
        u = _lift_unitary(rho.dims, basis.subsystem, basis.matrix)
    rotated = u.conj().T @ rho.mat @ u
    total = float(np.sum(np.abs(rotated)))
    diag = float(np.sum(np.abs(np.diag(rotated))))
    return total - diag
