"""Dense tensor-product state algebra.

Everything here is deliberately dense and explicit: states are flat complex
vectors over an explicit subsystem factorization, density matrices are full
square arrays.  Natural units (hbar = 1) throughout.  The total dimension of
any object is capped at ``DIM_CAP`` so a typo cannot allocate terabytes, and
a density matrix, which holds the square of its dimension, at the smaller
``DENSITY_CAP``.  Every other dense limit in the package is derived from
these two, and checked here as well: ``_check_dims`` and
``_check_density_dim`` are the only comparisons with the caps, and each runs
before the array is allocated.

A walk over a long time grid, a big bath or many operators holds one block
of ``_BLOCK_BYTES`` at a time, whatever its length: ``_block_items`` turns
the bytes one item of a walk holds into the items of its block, and
``_row_blocks`` splits rows into equal blocks of about that many.  Every
bounded walk of the package sizes its block here, so one value of
``_BLOCK_BYTES`` sizes them all.

The input checks of every module live here too, written so that NaN fails
them: ``_finite``, ``_positive``, ``_check_close`` and ``_hermitian_deviation``
are the package's only finiteness, tolerance and Hermiticity tests, and every
public float input must be finite.  ``_square`` squares a user's float
without raising OverflowError.

The invariants of states are written once, for a stack of states:
``_check_stack`` runs the checks of a ``StateVector`` and of a
``DensityMatrix`` on every row of a stack, and ``_reduce`` forms the reduced
density matrices of a stack of pure states.  The classes and
``reduced_density`` call them on a stack of one, and the dense oracle on each
block of evolved times, so a block is checked and reduced exactly as its
times one by one would be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: Largest total Hilbert-space dimension materialized by this package.
DIM_CAP = 2 ** 15

#: Largest dimension of a density matrix: 2^12 x 2^12 complex entries are
#: 256 MiB, where a 2^15 matrix would be 16 GiB.
DENSITY_CAP = 2 ** 12

#: Bytes one block of a bounded walk holds: r(t)'s samples, trace.csv's
#: rows, a recurrence scan's points, dense times, Kraus entries, Born draws
#: and the coherent audit's columns.
_BLOCK_BYTES = 1 << 20

_NORM_ATOL = 1e-12
_HERM_ATOL = 1e-12
_TRACE_ATOL = 1e-12
_EIG_FLOOR = -1e-10
_UNITARY_ATOL = 1e-10


class DimensionCapError(ValueError):
    """Raised when a requested dense object exceeds ``DIM_CAP`` or ``DENSITY_CAP``."""


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Validated subsystem dimensions whose product is at most ``DIM_CAP``.

    The package's one comparison of a tensor-product size with ``DIM_CAP``:
    every dense state, Hamiltonian or branch passes its factor dimensions
    here before anything of that size is allocated.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        raise ValueError("need at least one subsystem dimension")
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
    # the exact running product stops at the first factor past the cap, so no
    # integer beyond DIM_CAP * max(dims) is built and none is ever formatted
    total = 1
    for d in dims:
        total *= d
        if total > DIM_CAP:
            raise DimensionCapError(
                f"{len(dims)} subsystems exceed the dense cap {DIM_CAP}"
            )
    return dims


def _check_density_dim(dim: int) -> None:
    if dim > DENSITY_CAP:
        raise DimensionCapError(
            f"density matrix dimension {dim} exceeds the density cap {DENSITY_CAP}"
        )


def _block_items(item_bytes: int, multiple: int = 1) -> int:
    """Items of ``item_bytes`` bytes that fit in one ``_BLOCK_BYTES`` block,
    rounded down to a multiple of ``multiple`` and at least ``multiple``.

    ``_BLOCK_BYTES`` is read at each call, so a walk sized here shrinks with
    it; ``item_bytes`` is the bytes an item costs in the walk's estimate.
    """
    return max(multiple, _BLOCK_BYTES // item_bytes // multiple * multiple)


def _row_blocks(rows: int, block: int, least: int = 2) -> list:
    """Bounds of equal blocks of about ``block`` (at least ``least``) of ``rows`` rows.

    By default no block has a single row unless ``rows`` is 1: numpy sends a
    one-row product to gemv, which may round differently from gemm, while a
    gemm row does not depend on the other rows, so a product formed block by
    block equals the whole product bit for bit.
    """
    if rows == 0:
        return [0]
    blocks = max(1, min(-(-rows // max(least, block)), rows // least))
    return [rows * k // blocks for k in range(blocks + 1)]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _finite(name: str, x, dtype=float, copy: bool = False) -> np.ndarray:
    """``x`` as a ``dtype`` array (a fresh one with ``copy``), every entry finite."""
    arr = np.array(x, dtype=dtype) if copy else np.asarray(x, dtype=dtype)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _positive(name: str, x, zero_ok: bool = False) -> float:
    """``x`` as a finite float above 0 (at least 0 with ``zero_ok``)."""
    x = float(x)
    if not (x >= 0.0 if zero_ok else x > 0.0) or x == math.inf:
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {x!r}")
    return x


def _square(x: float) -> float:
    """``x ** 2``, or inf where it overflows (a float's ``**`` raises
    OverflowError there), so a huge finite input fails the check it feeds."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _check_close(value, target, tol: float, message: str) -> None:
    """Raises ``ValueError(message.format(value))`` unless |value - target| <= tol."""
    if not abs(value - target) <= tol:
        raise ValueError(message.format(value))


def _hermitian_deviation(mats: np.ndarray) -> np.ndarray:
    """max |M - M^H| of a matrix, or of each matrix in a stack; NaN where
    an entry is NaN or inf, so the deviation fails every tolerance."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.abs(mats - mats.conj().swapaxes(-2, -1)).max(axis=(-2, -1))


def _check_qubit_pair(a: complex, b: complex) -> None:
    """A qubit's amplitudes on up and down: |a|^2 + |b|^2 = 1 within 1e-12."""
    _check_close(_square(abs(a)) + _square(abs(b)), 1.0, _NORM_ATOL,
                 "|a|^2 + |b|^2 = {!r}, expected 1")


def _check_square(name: str, mat: np.ndarray, herm_tol: float | None = None) -> None:
    """A nonempty square matrix, held like a density matrix (so at most
    ``DENSITY_CAP`` rows); with ``herm_tol``, Hermitian within it."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {mat.shape}")
    _check_density_dim(mat.shape[0])
    if herm_tol is not None:
        _check_close(float(_hermitian_deviation(mat)), 0.0, herm_tol,
                     name + " is not Hermitian: max deviation {:g}")


def _check_stack(amps: np.ndarray | None = None, mats: np.ndarray | None = None) -> None:
    """Run the checks of ``StateVector`` on every row of ``amps``, a (k, ...)
    stack, and those of ``DensityMatrix`` on every matrix of ``mats``, a
    (k, d, d) stack; either may be None.

    Each value is formed as for one state, so a row gets the same value and
    verdict in any stack: the norm ``np.vdot`` of the row (NaN or inf
    amplitudes fail it), then the Hermiticity, the trace and, only where
    those pass, the smallest eigenvalue.  The first row to fail raises the
    ValueError of its state's check or, failing that, of the first of its
    matrix's checks to fail.
    """
    tests = []  # (value, passed, message) a row, in the order one row runs them
    with np.errstate(invalid="ignore", over="ignore"):  # NaN fails every test
        if amps is not None:
            norm = np.fromiter((np.vdot(row, row).real for row in amps), float, len(amps))
            tests.append((norm, abs(norm - 1.0) <= _NORM_ATOL,
                          "state is not normalized: sum |amps|^2 = {!r}"))
        if mats is not None:
            dev, trace = _hermitian_deviation(mats), np.trace(mats, axis1=1, axis2=2)
            tests += [(dev, dev <= _HERM_ATOL, "matrix is not Hermitian: max deviation {:g}"),
                      (trace, abs(trace - 1.0) <= _TRACE_ATOL, "matrix trace is {!r}, expected 1")]
    ok = np.logical_and.reduce([passed for _, passed, _ in tests])
    if mats is not None:  # eigvalsh only where every other test passed
        eig = np.full(len(mats), np.nan)
        eig[ok] = np.linalg.eigvalsh(mats[ok])[:, 0]
        ok = eig >= _EIG_FLOOR
        tests.append((eig, ok, "matrix is not positive semidefinite: min eigenvalue {:g}"))
    for k in np.flatnonzero(~ok)[:1]:  # the first row to fail
        value, _, message = next(test for test in tests if not test[1][k])
        raise ValueError(message.format(value[k].item()))


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
        total = math.prod(self.dims)
        if amps.size != total:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {total}"
            )
        _check_stack(amps[None])
        self.amps = _frozen(amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi| on the same factorization."""
        _check_density_dim(self.dim)
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
    partial traces of rounded data produce (``_check_stack``).  A dimension
    above ``DENSITY_CAP`` raises ``DimensionCapError`` before ``mat`` is read.
    """

    def __init__(self, dims: Sequence[int], mat) -> None:
        self.dims = _check_dims(dims)
        total = math.prod(self.dims)
        _check_density_dim(total)
        mat = np.array(mat, dtype=complex)
        if mat.shape != (total, total):
            raise ValueError(
                f"matrix has shape {mat.shape}, expected {(total, total)}"
            )
        _check_stack(mats=mat[None])
        self.mat = _frozen(mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(dims={self.dims}, dim={self.dim})"


@dataclass(frozen=True)
class BasisSpec:
    """Orthonormal basis for one tensor factor, or for the whole space.

    ``matrix`` holds the basis states as columns and must be unitary within
    1e-10.  ``subsystem`` names the tensor factor the basis acts on: on a
    state with factor dimensions ``dims`` it must be below ``len(dims)``, and
    the basis then acts on that factor when its dimension is
    ``dims[subsystem]`` (ops on the full space lift it with identities on the
    remaining factors), or on the whole space when ``subsystem`` is 0 and its
    dimension is ``prod(dims)``.  Any other pairing is a ValueError from the
    op that receives it.
    """

    subsystem: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if int(self.subsystem) != self.subsystem or self.subsystem < 0:
            raise ValueError(f"subsystem index must be a nonnegative int, got {self.subsystem}")
        object.__setattr__(self, "subsystem", int(self.subsystem))
        mat = np.array(self.matrix, dtype=complex)
        _check_square("basis matrix", mat)
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite deviation fails below
            dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))
        _check_close(dev, 0.0, _UNITARY_ATOL, "basis matrix is not unitary: deviation {:g}")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def column(self, i: int) -> np.ndarray:
        return np.array(self.matrix[:, i])


def _kron(arrays, ndim: int = 1) -> np.ndarray:
    """Kronecker product of ``arrays`` in order, from ones of ``ndim`` axes.

    The package's one loop over tensor factors; its callers check the caps
    before calling it.
    """
    out = np.ones((1,) * ndim, dtype=complex)
    for arr in arrays:
        out = np.kron(out, arr)
    return out


def tensor(*factors):
    """Kronecker product of states or of density matrices.

    All arguments must be of the same kind.  Factor order fixes the subsystem
    order of the result: ``tensor(a, b).dims == a.dims + b.dims``.  A result
    over ``DIM_CAP`` (``DENSITY_CAP`` for density matrices) raises
    ``DimensionCapError`` before any product is formed.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    if all(isinstance(f, StateVector) for f in factors):
        dims = _check_dims(d for f in factors for d in f.dims)
        return StateVector(dims, _kron(f.amps for f in factors))
    if all(isinstance(f, DensityMatrix) for f in factors):
        _check_density_dim(math.prod(f.dim for f in factors))
        dims = tuple(d for f in factors for d in f.dims)
        return DensityMatrix(dims, _kron((f.mat for f in factors), 2))
    raise TypeError("tensor() takes all StateVector or all DensityMatrix factors")


def _check_keep(dims: tuple[int, ...], keep) -> tuple[list[int], tuple[int, ...]]:
    """``keep`` as sorted subsystem indices of ``dims``, and their dimensions,
    whose product must be at most ``DENSITY_CAP``."""
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
    keep = sorted(keep)
    new_dims = tuple(dims[k] for k in keep)
    _check_density_dim(math.prod(new_dims))
    return keep, new_dims


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
    keep, new_dims = _check_keep(rho.dims, keep)
    n = len(rho.dims)
    resh = rho.mat.reshape(rho.dims + rho.dims)
    keep_set = set(keep)
    row = list(range(n))
    col = [n + k if k in keep_set else k for k in range(n)]
    out = [k for k in keep] + [n + k for k in keep]
    reduced = np.einsum(resh, row + col, out)
    return DensityMatrix(new_dims, reduced.reshape(math.prod(new_dims), -1))


def reduced_density(psi: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state, without materializing |psi><psi|.

    Equivalent to ``partial_trace(psi.density(), keep)`` but needs only
    O(dim^1.x) memory, which matters for large environments: it is
    ``_reduce`` on a stack of one.
    """
    keep, new_dims = _check_keep(psi.dims, keep)
    return DensityMatrix(new_dims, _reduce(psi.dims, psi.amps[None], keep)[0])


def _reduce(dims: tuple[int, ...], amps: np.ndarray, keep: list[int]) -> np.ndarray:
    """Reduced density matrices on the factors ``keep`` (sorted, checked) of
    the pure states in the rows of ``amps``, a nonempty (k, ...) stack of
    prod(dims) amplitudes a row.

    Each is M M^H, with M the state's amplitudes as a matrix whose rows are
    the kept factors: one stacked product, never |psi><psi|.  A copy of the
    stack with the kept factors moved first (none when they lead already)
    and its conjugate are its temporaries of the stack's size.
    """
    rest = [k for k in range(len(dims)) if k not in keep]
    moved = amps.reshape((len(amps),) + dims).transpose([0] + [1 + k for k in keep + rest])
    mat = moved.reshape(len(amps), math.prod(dims[k] for k in keep), -1)
    return mat @ mat.conj().swapaxes(1, 2)


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2]; equals 1 for pure states, 1/d for the maximally mixed state."""
    return float(np.vdot(rho.mat, rho.mat).real)


def _split(dims: tuple[int, ...], basis: BasisSpec) -> tuple[int, int]:
    """(pre, post): the dimensions before and after the factor ``basis`` acts on.

    The package's one rule for it, stated on :class:`BasisSpec`: the basis
    acts on factor ``basis.subsystem`` when its dimension is that factor's,
    and on the whole space (pre = post = 1) when it names factor 0 and its
    dimension is ``prod(dims)``.  Anything else raises ValueError.
    """
    k, d = basis.subsystem, basis.dim
    if k >= len(dims):
        raise ValueError(f"basis subsystem {k} out of range for dims {dims}")
    total = math.prod(dims)
    if d == dims[k]:
        pre = math.prod(dims[:k])
        return pre, total // (pre * d)
    if d == total:
        if k == 0:
            return 1, 1
        raise ValueError(
            f"basis for subsystem {k} has the whole space's dimension {d} "
            f"(dims {dims}); a whole-space basis must name subsystem 0"
        )
    raise ValueError(
        f"basis dimension {d} matches neither subsystem {k} ({dims[k]}) "
        f"nor the whole space ({total})"
    )


def offdiag_norm(rho: DensityMatrix, basis: BasisSpec) -> float:
    """Sum of |off-diagonal entries| of rho expressed in the given basis.

    The basis acts on one factor of ``rho`` or on its whole space, by the
    rule stated on :class:`BasisSpec`; a basis that fits neither raises
    ValueError.  With U the basis lifted by identities on the other factors,
    the sum is taken over U^dag rho U, rotating only the basis's own factor:
    O(dim^2 d) time for a basis of dimension d, and two dim x dim
    temporaries at a time.  Zero iff rho is diagonal in the rotated basis;
    invariant under per-column phase changes of U.
    """
    pre, _ = _split(rho.dims, basis)
    shape = (pre, basis.dim, -1)
    # U^dag rho: one batched matmul over the (pre, d, post * dim) view
    rotated = basis.matrix.conj().T @ rho.mat.reshape(shape)
    # U^dag rho U is Hermitian, so its transpose has the same sums and
    # diagonal: U^T applied the same way to the transpose of U^dag rho (a
    # copy, except for a whole-space basis, whose transpose BLAS reads)
    rotated = rotated.reshape(rho.mat.shape).T.reshape(shape)
    rotated = (basis.matrix.T @ rotated).reshape(rho.mat.shape)
    total = float(np.sum(np.abs(rotated)))
    diag = float(np.sum(np.abs(np.diag(rotated))))
    return total - diag
