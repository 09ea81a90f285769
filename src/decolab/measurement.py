"""Measurement calculus: projective collapse, Kraus updates, POVM statistics.

Probabilities follow the Born rule, selective post-states follow the
projection postulate (or its Kraus generalization M rho M^dag / p).  Sampling
is inverse-CDF over the cumulative Born weights with a seedable PRNG, so
every stochastic path is reproducible.  Many operators or shots are walked a
block at a time, one ``states._BLOCK_BYTES`` block each, so working memory
stays fixed however many there are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .states import (
    BasisSpec, DensityMatrix, StateVector, _block_items, _check_close, _check_square, _finite,
    _frozen, _positive, _split, tensor,
)

_IMPOSSIBLE_P = 1e-14
_PROJ_ATOL = 1e-10


class ImpossibleOutcomeError(ValueError):
    """Selective update requested for an outcome of (numerically) zero weight."""


def _is_number(x) -> bool:
    """Whether ``x`` is a JSON number: an int or a float, not a boolean."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class KrausSet:
    """A finite family of measurement operators M_i.

    The operators are stored as one read-only complex array of shape
    ``(K, d_out, d_in)``, exposed as :attr:`operators`; ``operators[i]`` is
    M_i.  The constructor copies its input, so later changes to the caller's
    arrays do not reach the set.

    Completeness sum_i M_i^dag M_i = I is enforced at construction within
    ``completeness_tol`` (default 1e-10).  Pass ``completeness_tol=None`` for
    deliberately approximate families such as quadrature discretizations of a
    continuous POVM; their actual deviation is reported by
    :func:`validate_kraus` instead.  Non-finite entries are rejected either way.
    """

    def __init__(self, operators, labels=None, completeness_tol: Optional[float] = 1e-10):
        mats = [np.asarray(m, dtype=complex) for m in operators]
        if len(mats) == 0:
            raise ValueError("a KrausSet needs at least one operator")
        shape = mats[0].shape
        if len(shape) != 2 or 0 in shape:
            raise ValueError("Kraus operators must be matrices")
        if any(m.shape != shape for m in mats):
            raise ValueError("all Kraus operators must share one shape")
        self._adopt(np.stack(mats), labels, completeness_tol)

    @classmethod
    def _from_stack(cls, stack: np.ndarray, labels, completeness_tol) -> "KrausSet":
        """Wrap a freshly built (K, d_out, d_in) complex array without copying it."""
        kset = cls.__new__(cls)
        kset._adopt(stack, labels, completeness_tol)
        return kset

    def _adopt(self, stack: np.ndarray, labels, completeness_tol) -> None:
        labels = list(range(len(stack))) if labels is None else list(labels)
        if len(labels) != len(stack):
            raise ValueError("labels and operators must have matching length")
        self._stack = _frozen(stack)
        self.labels = tuple(labels)
        self.completeness_tol = completeness_tol
        if completeness_tol is None:
            _finite("Kraus operators", stack, complex)
        else:
            tol = _positive("completeness_tol", completeness_tol, zero_ok=True)
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum fails below
                deviation = self.completeness_deviation()
            if not math.isfinite(deviation):
                _finite("Kraus operators", stack, complex)  # names a NaN or inf entry
            _check_close(deviation, 0.0, tol, "Kraus operators: sum M^dag M "
                         f"deviates from identity by {{:g}} (tolerance {tol:g})")

    @property
    def operators(self) -> np.ndarray:
        """The read-only (K, d_out, d_in) operator array."""
        return self._stack

    def __len__(self) -> int:
        return len(self._stack)

    @property
    def dim_in(self) -> int:
        return self._stack.shape[2]

    @property
    def dim_out(self) -> int:
        return self._stack.shape[1]

    def _blocks(self):
        """Consecutive slices of the operator array, sized so that a conjugate
        copy or the d_in x d_in effects M^dag M of one slice, 16 bytes an
        entry, stay within one ``states._BLOCK_BYTES`` block."""
        step = _block_items(16 * max(self.dim_out, self.dim_in) * self.dim_in)
        for start in range(0, len(self._stack), step):
            yield self._stack[start : start + step]

    def completeness_deviation(self) -> float:
        """Max-norm deviation of sum M^dag M from the identity.

        The sum is A^dag A with A the operators stacked row-wise, accumulated
        one block at a time.
        """
        acc = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for blk in self._blocks():
            rows = blk.reshape(-1, self.dim_in)
            acc += rows.conj().T @ rows
        return float(np.max(np.abs(acc - np.eye(self.dim_in))))

    def to_dict(self) -> dict:
        """JSON-ready form; complex entries become [re, im] pairs, row-major."""
        return {
            "shape": [self.dim_out, self.dim_in],
            "labels": list(self.labels),
            "completeness_tol": self.completeness_tol,
            "operators": [
                [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
                for m in self._stack
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, completeness_tol="stored") -> "KrausSet":
        """Inverse of :meth:`to_dict`.

        ``completeness_tol`` defaults to the stored value, which is missing,
        null or a number; pass a float or None to override.  ``shape`` is two
        integers of at least 1, ``operators`` an array of operators, each an
        array of ``[re, im]`` pairs of numbers, and ``labels`` is missing,
        null, or an array of strings and numbers.  A boolean is never a
        number, and anything else raises ``ValueError`` naming the field.
        """
        (rows, cols), flats, labels, tol = _kraus_fields(data, completeness_tol)
        ops = [np.array([complex(re, im) for re, im in flat], dtype=complex).reshape(rows, cols)
               for flat in flats]
        return cls(ops, labels=labels, completeness_tol=tol)


def _kraus_fields(data, completeness_tol="stored") -> tuple:
    """``(rows, cols)``, operators, labels and tolerance of a ``to_dict``
    form, checked as ``KrausSet.from_dict`` describes but without building
    an array: ``ValueError`` names the first field that is malformed."""
    if not isinstance(data, dict):
        raise ValueError(f"a Kraus set is a JSON object, got {type(data).__name__}")
    labels = data.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(
            isinstance(x, str) or _is_number(x) for x in labels)):
        raise ValueError("labels must be an array of strings and numbers")
    shape, flats = data.get("shape"), data.get("operators")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(_is_number(x) and x % 1 == 0 and x >= 1 for x in shape)):
        raise ValueError("shape must be an array of two integers of at least 1")
    if not isinstance(flats, list):
        raise ValueError("operators must be an array")
    rows, cols = (int(x) for x in shape)
    for flat in flats:
        if not (isinstance(flat, list) and all(
                isinstance(z, list) and len(z) == 2 and all(map(_is_number, z)) for z in flat)):
            raise ValueError("operators must be arrays of [re, im] pairs of numbers")
        if len(flat) != rows * cols:
            raise ValueError("operator entry count does not match shape")
    tol = data.get("completeness_tol", 1e-10) if completeness_tol == "stored" else completeness_tol
    if tol is not None and not _is_number(tol):
        raise ValueError("completeness_tol must be a number or null")
    return (rows, cols), flats, labels, tol


class Projector:
    """Hermitian idempotent operator (P^2 = P within 1e-10)."""

    def __init__(self, mat) -> None:
        mat = np.array(mat, dtype=complex)
        _check_square("projector", mat, _PROJ_ATOL)
        idem = float(np.max(np.abs(mat @ mat - mat)))
        _check_close(idem, 0.0, _PROJ_ATOL, "projector not idempotent: deviation {:g}")
        self.mat = _frozen(mat)

    @classmethod
    def onto(cls, vectors) -> "Projector":
        """Projector onto the span of orthonormal column vectors."""
        v = np.atleast_2d(np.asarray(vectors, dtype=complex))
        if v.shape[0] < v.shape[1]:  # accept rows or columns
            v = v.T
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite entry fails in cls
            mat = v @ v.conj().T
        return cls(mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.mat).real)))


@dataclass(frozen=True)
class MeasurementRecord:
    """One selective measurement event: outcome label, its Born weight, post-state."""

    outcome: object
    probability: float
    post_state: DensityMatrix


def premeasure_cnot(system: StateVector, apparatus: StateVector) -> StateVector:
    """Entangle a qubit with a two-level pointer via a controlled flip.

    The pointer must arrive in its ready state (amplitudes (1, 0) within
    1e-12); the output on basis (system, pointer) maps (a, b) to amplitudes
    (a, 0, 0, b) — outcome branches perfectly correlated with the system.
    """
    if system.dims != (2,) or apparatus.dims != (2,):
        raise ValueError("premeasure_cnot expects two single-qubit states")
    ready = np.array([1.0, 0.0])
    _check_close(float(np.max(np.abs(apparatus.amps - ready))), 0.0, 1e-12,
                 "apparatus must start in the ready state (1, 0)")
    flipped = tensor(system, apparatus).amps[[0, 1, 3, 2]]  # pointer flips iff the control is down
    return StateVector((2, 2), flipped)


def born_probability(rho: DensityMatrix, proj: Projector) -> float:
    """Tr[P rho], clamped to [0, 1]."""
    if proj.dim != rho.dim:
        raise ValueError(f"projector dim {proj.dim} != state dim {rho.dim}")
    p = float(np.trace(proj.mat @ rho.mat).real)
    return min(max(p, 0.0), 1.0)


def _lifted_weights(state: StateVector, basis: BasisSpec):
    """Born weights and basis amplitudes for a basis measurement.

    Returns (probs, coeff): ``coeff[i, p, q]`` is the amplitude on basis
    column i, with p and q indexing the factors before and after the measured
    one, as ``states._split`` finds them; a basis that spans the whole space
    is the one-factor case, pre = post = 1.
    """
    pre, post = _split(state.dims, basis)
    resh = state.amps.reshape(pre, basis.dim, post)
    # coeff[i, p, q] = sum_s conj(U[s, i]) psi[p, s, q]
    coeff = np.einsum("si,psq->ipq", basis.matrix.conj(), resh)
    return np.sum(np.abs(coeff) ** 2, axis=(1, 2)), coeff


def outcome_distribution(state: StateVector, basis: BasisSpec) -> np.ndarray:
    """Born probabilities for every outcome of a projective basis measurement."""
    probs, _ = _lifted_weights(state, basis)
    return probs


def _draw(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The outcomes that uniforms ``u`` in [0, 1) pick by inverse CDF over the
    cumulative Born weights ``cum``; rounding that reaches past the last
    weight picks the last outcome."""
    draws = np.searchsorted(cum, u * cum[-1], side="right")
    return np.minimum(draws, cum.size - 1, out=draws)


def collapse_sample(state: StateVector, basis: BasisSpec, rng_seed) -> MeasurementRecord:
    """Sample one projective outcome and collapse.

    The basis either spans the whole space (the post-state is then the
    selected basis column up to a phase) or one subsystem, in which case the
    lifted projector |u_i><u_i| (x) I is applied and the result renormalized.
    Sampling is inverse-CDF over the cumulative Born weights using
    ``np.random.default_rng(rng_seed)``; passing the same seed replays the
    same outcome.  Only the drawn outcome's branch is built.
    """
    probs, coeff = _lifted_weights(state, basis)
    i = int(_draw(np.cumsum(probs), np.random.default_rng(rng_seed).random(1))[0])
    p = float(probs[i])
    if p <= _IMPOSSIBLE_P:
        # The sampled register can only land here through degenerate weights;
        # fall back to the most likely outcome to keep the record meaningful.
        i = int(np.argmax(probs))
        p = float(probs[i])
    branch = np.einsum("s,pq->psq", basis.matrix[:, i], coeff[i]).reshape(-1)
    post = StateVector(state.dims, branch / np.sqrt(p)).density()
    return MeasurementRecord(outcome=i, probability=min(p, 1.0), post_state=post)


def sample_outcomes(state: StateVector, basis: BasisSpec, n_shots: int, rng_seed) -> np.ndarray:
    """Outcome counts for ``n_shots`` independent collapses (shared PRNG stream).

    Equivalent in law to repeating :func:`collapse_sample`; returns an integer
    count per basis outcome.  The uniforms are drawn in blocks of one
    ``states._BLOCK_BYTES`` block at 16 bytes a shot (its uniform and its
    outcome), so memory does not grow with ``n_shots``; the stream, and so
    every count, is the same as one draw of ``n_shots`` uniforms.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    probs, _ = _lifted_weights(state, basis)
    rng = np.random.default_rng(rng_seed)
    cum = np.cumsum(probs)
    n_shots = int(n_shots)
    counts = np.zeros(len(probs), dtype=np.int64)
    block = _block_items(16)
    for start in range(0, n_shots, block):
        draws = _draw(cum, rng.random(min(block, n_shots - start)))
        counts += np.bincount(draws, minlength=len(probs))
    return counts


def luders_update(rho: DensityMatrix, proj: Projector) -> DensityMatrix:
    """Selective projective update P rho P / Tr[P rho].

    Raises
    ------
    ImpossibleOutcomeError
        If the outcome weight is at or below 1e-14.
    """
    if proj.dim != rho.dim:
        raise ValueError(f"projector dim {proj.dim} != state dim {rho.dim}")
    p = float(np.trace(proj.mat @ rho.mat).real)
    if p <= _IMPOSSIBLE_P:
        raise ImpossibleOutcomeError(
            f"outcome weight {p:g} is numerically zero; selective update undefined"
        )
    post = proj.mat @ rho.mat @ proj.mat / p
    post = (post + post.conj().T) / 2.0  # wash out rounding asymmetry
    return DensityMatrix(rho.dims, post)


def povm_probabilities(rho: DensityMatrix, kraus: KrausSet) -> np.ndarray:
    """Outcome distribution p_i = Tr[M_i^dag M_i rho].

    Evaluated as batched matmuls over blocks of operators, in the same
    order of operations as one operator at a time.

    Entries are clamped at 0; for a complete set they sum to 1 within the
    set's completeness tolerance.
    """
    if kraus.dim_in != rho.dim:
        raise ValueError(f"Kraus input dim {kraus.dim_in} != state dim {rho.dim}")
    parts = []
    for blk in kraus._blocks():
        effects = blk.conj().transpose(0, 2, 1) @ blk
        parts.append(np.trace(effects @ rho.mat, axis1=1, axis2=2).real)
    return np.maximum(np.concatenate(parts), 0.0)


def kraus_update(rho: DensityMatrix, kraus: KrausSet, index: int) -> MeasurementRecord:
    """Selective generalized update M_i rho M_i^dag / p_i for outcome ``index``."""
    if kraus.dim_in != rho.dim:
        raise ValueError(f"Kraus input dim {kraus.dim_in} != state dim {rho.dim}")
    m = kraus.operators[index]
    sigma = m @ rho.mat @ m.conj().T
    p = float(np.trace(sigma).real)
    if p <= _IMPOSSIBLE_P:
        raise ImpossibleOutcomeError(
            f"outcome {kraus.labels[index]!r} has weight {p:g}; update undefined"
        )
    post = (sigma + sigma.conj().T) / (2.0 * p)
    dims = rho.dims if kraus.dim_out == rho.dim else (kraus.dim_out,)
    return MeasurementRecord(
        outcome=kraus.labels[index],
        probability=min(p, 1.0),
        post_state=DensityMatrix(dims, post),
    )


@dataclass(frozen=True)
class KrausReport:
    """Completeness audit of a KrausSet; informational, never raised."""

    deviation: float
    tolerance: float
    passed: bool


def validate_kraus(kraus: KrausSet, tol: float = 1e-10) -> KrausReport:
    """Report how far sum M^dag M is from the identity, against ``tol``.

    Never raises: deliberately truncated sets (e.g. quadrature grids for a
    continuous outcome family) are expected to fail the strict default and
    be judged by their reported deviation instead.
    """
    tol = _positive("tol", tol, zero_ok=True)
    dev = kraus.completeness_deviation()
    return KrausReport(deviation=dev, tolerance=tol, passed=bool(dev <= tol))
