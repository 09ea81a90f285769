import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import decolab
from decolab.measurement import outcome_distribution
from decolab.states import (
    DENSITY_CAP,
    DIM_CAP,
    BasisSpec,
    DensityMatrix,
    DimensionCapError,
    StateVector,
    offdiag_norm,
    partial_trace,
    purity,
    _check_stack,
    _reduce,
    reduced_density,
    tensor,
)

rng = np.random.default_rng(1001)


def random_state(dims):
    total = int(np.prod(dims))
    amps = rng.normal(size=total) + 1j * rng.normal(size=total)
    return StateVector(dims, amps / np.linalg.norm(amps))


def random_density(dims):
    total = int(np.prod(dims))
    raw = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    mat = raw @ raw.conj().T
    return DensityMatrix(dims, mat / np.trace(mat))


# ---------------------------------------------------------------- vectors


def test_state_vector_requires_normalization():
    with pytest.raises(ValueError):
        StateVector((2,), [1.0, 1.0])


def test_state_vector_requires_matching_length():
    with pytest.raises(ValueError):
        StateVector((2, 2), [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_state_vector_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector((2,), [bad, 0.8])


def test_state_vector_amps_are_frozen():
    psi = StateVector((2,), [1.0, 0.0])
    with pytest.raises(ValueError):
        psi.amps[0] = 0.0


def test_dimension_cap_enforced():
    dims = (2,) * 16  # 65536 > 32768
    with pytest.raises(DimensionCapError):
        StateVector(dims, np.zeros(2 ** 16))


def test_dimension_cap_sees_products_past_int64():
    # 2^64 wraps to 0 in an int64 product, which would slip under both caps
    with pytest.raises(DimensionCapError, match="dense cap"):
        StateVector((2,) * 64, [])
    with pytest.raises(DimensionCapError, match="dense cap"):
        DensityMatrix((2 ** 32, 2 ** 32), [])


def test_dimension_cap_never_formats_the_full_product():
    # 2^20000 has 6 021 digits, past Python's limit on int-to-str conversion:
    # a message that formatted it would raise a plain ValueError instead
    with pytest.raises(DimensionCapError, match="dense cap"):
        StateVector((2,) * 20000, [1.0])


def _dim_cap_comparisons(path):
    """Name of the function around each comparison that mentions DIM_CAP."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            getattr(sub, "id", getattr(sub, "attr", None)) == "DIM_CAP"
            for sub in ast.walk(node)
        ):
            while node in parents and not isinstance(node, ast.FunctionDef):
                node = parents[node]
            yield getattr(node, "name", "<module>")


def test_dim_cap_is_compared_only_in_check_dims():
    modules = sorted(Path(decolab.__file__).parent.glob("*.py"))
    sites = {(path.name, fn) for path in modules for fn in _dim_cap_comparisons(path)}
    assert sites == {("states.py", "_check_dims")}
    for path in modules:
        assert "2 ** (n" not in path.read_text(encoding="utf-8"), path.name


def _refuse(*args, **kwargs):
    raise AssertionError("a density-sized array was allocated")


def test_density_cap_is_separate_from_the_state_cap():
    assert DENSITY_CAP == 2 ** 12 < DIM_CAP
    # at the cap the dims pass and the (deliberately wrong) shape is what fails
    with pytest.raises(ValueError, match="shape") as info:
        DensityMatrix((DENSITY_CAP,), np.zeros((1, 1)))
    assert not isinstance(info.value, DimensionCapError)


def test_density_matrix_rejects_a_dimension_over_the_cap_before_reading_it():
    # the matrix argument is never converted: the dims alone are rejected
    with pytest.raises(DimensionCapError, match="density cap 4096"):
        DensityMatrix((2 * DENSITY_CAP,), SimpleNamespace())
    with pytest.raises(DimensionCapError, match="density cap"):
        DensityMatrix((2,) * 13, SimpleNamespace())


def test_state_density_over_the_cap_is_rejected_before_the_outer_product(monkeypatch):
    psi = random_state((2,) * 13)  # 8192 amplitudes: a state, not a density
    monkeypatch.setattr(np, "outer", _refuse)
    with pytest.raises(DimensionCapError, match="density cap"):
        psi.density()


def test_tensor_of_densities_over_the_cap_is_rejected_before_kron(monkeypatch):
    factor = random_density((128,))  # 128 * 128 > 4096
    monkeypatch.setattr(np, "kron", _refuse)
    with pytest.raises(DimensionCapError, match="density cap"):
        tensor(factor, factor)


def test_partial_trace_checks_the_kept_dimension_before_contracting():
    # a stand-in carrying dims only: any read of its matrix would fail
    rho = SimpleNamespace(dims=(2 * DENSITY_CAP, 2), mat=None)
    with pytest.raises(DimensionCapError, match="density cap"):
        partial_trace(rho, keep=0)


def test_reduced_density_checks_the_kept_dimension_before_the_matmul():
    psi = SimpleNamespace(dims=(2,) * 14, amps=None)
    with pytest.raises(DimensionCapError, match="density cap"):
        reduced_density(psi, keep=list(range(13)))


def test_overlap_is_standard_inner_product():
    psi = StateVector((2,), [1.0, 0.0])
    phi = StateVector((2,), np.array([1.0, 1j]) / np.sqrt(2))
    # <psi|phi> conjugates the first argument
    assert abs(psi.overlap(phi) - 1 / np.sqrt(2)) < 1e-15
    assert abs(phi.overlap(phi) - 1.0) < 1e-15


# ---------------------------------------------------------------- tensor


def test_tensor_basis_product():
    up = StateVector((2,), [1.0, 0.0])
    joint = tensor(up, up)
    assert joint.dims == (2, 2)
    np.testing.assert_allclose(joint.amps, [1, 0, 0, 0], atol=1e-15)


def test_tensor_is_linear_in_first_factor():
    a, b = 0.6, 0.8j
    sys = StateVector((2,), [a, b])
    ready = StateVector((2,), [1.0, 0.0])
    np.testing.assert_allclose(tensor(sys, ready).amps, [a, 0, b, 0], atol=1e-15)


def test_tensor_three_spins_matches_term_expansion():
    # expand (alpha_k|0> + beta_k|1>) over all 2^3 bit strings by hand
    alpha = np.array([0.8, 0.6, 1 / np.sqrt(2)], dtype=complex)
    beta = np.array([0.6, 0.8j, 1j / np.sqrt(2)], dtype=complex)
    spins = [StateVector((2,), [alpha[k], beta[k]]) for k in range(3)]
    joint = tensor(*spins)
    expected = np.empty(8, dtype=complex)
    for idx in range(8):
        term = 1.0 + 0j
        for k in range(3):
            bit = (idx >> (2 - k)) & 1
            term *= beta[k] if bit else alpha[k]
        expected[idx] = term
    np.testing.assert_allclose(joint.amps, expected, atol=1e-15)


def test_tensor_density_matches_vector_tensor():
    p = random_state((2,))
    q = random_state((3,))
    lhs = tensor(p.density(), q.density())
    rhs = tensor(p, q).density()
    np.testing.assert_allclose(lhs.mat, rhs.mat, atol=1e-14)


def test_tensor_rejects_mixed_factor_types():
    psi = StateVector((2,), [1.0, 0.0])
    with pytest.raises(TypeError):
        tensor(psi, psi.density())


# ---------------------------------------------------------------- densities


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    neg = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        DensityMatrix((2,), neg)  # negative eigenvalue


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_density_matrix_rejects_non_finite_entries(bad, where):
    mat = np.diag([0.5, 0.5]).astype(complex)
    mat[where] = bad
    mat[where[::-1]] = bad
    with pytest.raises(ValueError):
        DensityMatrix((2,), mat)


def test_partial_trace_of_product_recovers_factor():
    rho_a = random_density((2,))
    rho_e = random_density((4,))
    joint = tensor(rho_a, rho_e)
    np.testing.assert_allclose(
        partial_trace(joint, keep=0).mat, rho_a.mat, atol=1e-13
    )
    np.testing.assert_allclose(
        partial_trace(joint, keep=1).mat, rho_e.mat, atol=1e-13
    )


def test_partial_trace_bell_state_is_maximally_mixed():
    bell = StateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    half = partial_trace(bell.density(), keep=0)
    np.testing.assert_allclose(half.mat, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_keep_validation():
    rho = random_density((2, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, keep=(0, 0))
    with pytest.raises(ValueError):
        partial_trace(rho, keep=5)


def test_reduced_density_agrees_with_partial_trace():
    for dims, keep in [((2, 3, 2), 0), ((2, 3, 2), (0, 2)), ((4, 2), 1)]:
        psi = random_state(dims)
        lhs = reduced_density(psi, keep)
        rhs = partial_trace(psi.density(), keep)
        assert lhs.dims == rhs.dims
        np.testing.assert_allclose(lhs.mat, rhs.mat, atol=1e-13)


# ---------------------------------------------------------------- stacks


def _message(build, *args):
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


STACK_FAULTS = {
    "norm off by 1e-11": ("state", [np.sqrt(1 + 1e-11), 0.0, 0.0, 0.0], "not normalized"),
    "NaN amplitude": ("state", [np.nan, 0.0, 0.0, 0.0], "not normalized"),
    "NaN entry": ("matrix", [[np.nan, 0.0], [0.0, 0.5]], "not Hermitian"),
    "not Hermitian": ("matrix", [[0.5, 1e-11], [0.0, 0.5]], "not Hermitian"),
    "trace off": ("matrix", [[0.5, 0.0], [0.0, 0.5 + 1e-11]], "trace"),
    "negative eigenvalue": ("matrix", [[1.5, 0.0], [0.0, -0.5]], "not positive semidefinite"),
}


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("kind, bad, words", STACK_FAULTS.values(), ids=STACK_FAULTS.keys())
def test_a_bad_row_of_a_stack_raises_the_message_of_its_own_object(kind, bad, words, k):
    amps = np.tile(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), (5, 1))
    mats = np.tile(np.eye(2, dtype=complex) / 2, (5, 1, 1))
    _check_stack(amps, mats)
    if kind == "state":
        amps[k] = bad
        want = _message(StateVector, (2, 2), bad)
    else:
        mats[k] = bad
        want = _message(DensityMatrix, (2,), bad)
    assert words in want
    assert _message(_check_stack, amps, mats) == want


def test_a_row_whose_state_and_matrix_both_fail_raises_the_state_message():
    amps = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]], dtype=complex)
    mats = np.array([np.eye(2) / 2, [[1.5, 0.0], [0.0, -0.5]], [[2.0, 0.0], [0.0, 0.0]]])
    want = _message(StateVector, (2,), amps[1])
    assert want.startswith("state is not normalized")
    assert _message(_check_stack, amps, mats.astype(complex)) == want


def test_reduce_equals_reduced_density_row_by_row_bit_for_bit():
    dims = (2, 3, 2, 2)
    stack = np.array([random_state(dims).amps for _ in range(5)])
    for keep in ([0], [1, 3], [0, 2, 3], [3]):
        rhos = _reduce(dims, stack, keep)
        for amps, rho in zip(stack, rhos):
            want = reduced_density(StateVector(dims, amps), keep).mat
            assert np.array_equal(rho.view(float), want.view(float))


# ---------------------------------------------------------------- purity


def test_purity_pure_and_maximally_mixed():
    assert abs(purity(random_state((2, 2)).density()) - 1.0) < 1e-12
    half = DensityMatrix((2,), np.eye(2) / 2)
    assert abs(purity(half) - 0.5) < 1e-15


def test_purity_dephased_qubit_closed_form():
    # rho = [[|a|^2, a b* r], [a* b r*, |b|^2]] has purity
    # |a|^4 + |b|^4 + 2 |a|^2 |b|^2 |r|^2
    a, b = 0.6, 0.8
    for r in (1.0, 0.3 + 0.2j, 0.0):
        mat = np.array(
            [[a ** 2, a * b * r], [a * b * np.conj(r), b ** 2]], dtype=complex
        )
        rho = DensityMatrix((2,), mat)
        want = a ** 4 + b ** 4 + 2 * a ** 2 * b ** 2 * abs(r) ** 2
        assert abs(purity(rho) - want) < 1e-14


# ---------------------------------------------------------------- bases


def test_basis_spec_requires_unitary():
    with pytest.raises(ValueError):
        BasisSpec(0, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        BasisSpec(-1, np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (1, 0)])
def test_basis_spec_rejects_nan(bad, where):
    mat = np.eye(2, dtype=complex)
    mat[where] = bad
    with pytest.raises(ValueError, match="not unitary"):
        BasisSpec(0, mat)


def test_offdiag_norm_diagonal_state_is_zero():
    rho = DensityMatrix((2,), np.diag([0.3, 0.7]))
    assert offdiag_norm(rho, BasisSpec(0, np.eye(2))) == pytest.approx(0.0, abs=1e-15)


def test_offdiag_norm_plus_state():
    plus = StateVector((2,), np.array([1, 1]) / np.sqrt(2))
    z = BasisSpec(0, np.eye(2))
    x = BasisSpec(0, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    # |+x> has a single pair of off-diagonal 1/2 entries in the z basis and
    # none in its own basis
    assert abs(offdiag_norm(plus.density(), z) - 1.0) < 1e-14
    assert offdiag_norm(plus.density(), x) < 1e-14


def test_offdiag_norm_subsystem_matches_lifted_full_basis():
    rho = random_density((2, 3))
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    sub = BasisSpec(1, u)
    full = BasisSpec(0, np.kron(np.eye(2), u))
    assert abs(offdiag_norm(rho, sub) - offdiag_norm(rho, full)) < 1e-12


def test_offdiag_norm_dimension_mismatch():
    rho = random_density((2, 2))
    with pytest.raises(ValueError):
        offdiag_norm(rho, BasisSpec(0, np.eye(3)))


# ------------------------------------------------------ tensor-factor rule


def _kron_lifted_offdiag_norm(rho, basis):
    """Reference: the basis lifted to a dim x dim unitary by Kronecker
    products with identities, then U^dag rho U in full."""
    if basis.dim == rho.dim:
        u = basis.matrix
    else:
        u = np.ones((1, 1), dtype=complex)
        for k, d in enumerate(rho.dims):
            u = np.kron(u, basis.matrix if k == basis.subsystem else np.eye(d))
    rotated = u.conj().T @ rho.mat @ u
    return float(np.sum(np.abs(rotated))) - float(np.sum(np.abs(np.diag(rotated))))


def _random_unitary(d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def test_tensor_of_states_over_the_cap_is_rejected_before_kron(monkeypatch):
    factor = random_state((2,) * 8)  # 2^16 amplitudes together, over DIM_CAP
    monkeypatch.setattr(np, "kron", _refuse)
    with pytest.raises(DimensionCapError, match="dense cap"):
        tensor(factor, factor)


# (dims, subsystem, basis dimension, accepted): both ops give one verdict
BASIS_VERDICTS = [
    pytest.param((2, 2), 0, 4, True, id="whole-space-subsystem-0"),
    pytest.param((3, 2, 2), 0, 3, True, id="factor-0-of-3x2x2"),
    pytest.param((3, 2, 2), 1, 2, True, id="factor-1-of-3x2x2"),
    pytest.param((3, 2, 2), 2, 2, True, id="factor-2-of-3x2x2"),
    pytest.param((3, 2, 2), 0, 12, True, id="whole-space-of-3x2x2"),
    pytest.param((4,), 0, 4, True, id="one-factor"),
    pytest.param((2, 2), 1, 4, False, id="whole-space-naming-factor-1"),
    pytest.param((2, 2), 5, 4, False, id="subsystem-5-whole-space-dim"),
    pytest.param((2, 2), 5, 2, False, id="subsystem-5-factor-dim"),
    pytest.param((4,), 3, 4, False, id="subsystem-3-of-one-factor"),
    pytest.param((3, 2, 2), 0, 2, False, id="factor-dimension-mismatch"),
]


@pytest.mark.parametrize("dims, subsystem, d, accepted", BASIS_VERDICTS)
def test_offdiag_norm_and_basis_measurements_share_one_rule(dims, subsystem, d, accepted):
    psi = random_state(dims)
    basis = BasisSpec(subsystem, _random_unitary(d))
    ops = (lambda: offdiag_norm(psi.density(), basis),
           lambda: outcome_distribution(psi, basis))
    for op in ops:
        if accepted:
            op()
        else:
            with pytest.raises(ValueError, match=f"subsystem {subsystem}"):
                op()


def test_whole_space_basis_naming_another_factor_must_name_subsystem_0():
    rho = random_density((2, 2))
    with pytest.raises(ValueError, match="must name subsystem 0"):
        offdiag_norm(rho, BasisSpec(1, np.eye(4)))


@pytest.mark.parametrize("dims, subsystem, d", [
    ((2, 3), 1, 3),
    ((3, 2, 2), 0, 3),
    ((3, 2, 2), 1, 2),
    ((3, 2, 2), 2, 2),
    ((2, 3), 0, 6),
    ((3, 2, 2), 0, 12),
    ((5,), 0, 5),
])
def test_offdiag_norm_matches_the_kron_lifted_reference(monkeypatch, dims, subsystem, d):
    rho = random_density(dims)
    basis = BasisSpec(subsystem, _random_unitary(d))
    want = _kron_lifted_offdiag_norm(rho, basis)
    monkeypatch.setattr(np, "kron", _refuse)
    got = offdiag_norm(rho, basis)
    assert abs(got - want) <= 1e-13 * want


def test_tensor_equals_the_factor_loops_byte_for_byte():
    states = [random_state(dims) for dims in ((2,), (3,), (2, 2), (1,))]
    amps = np.ones(1, dtype=complex)
    for s in states:
        amps = np.kron(amps, s.amps)
    joint = tensor(*states)
    assert joint.dims == (2, 3, 2, 2, 1)
    assert joint.amps.tobytes() == amps.tobytes()
    rhos = [random_density(dims) for dims in ((2,), (3,), (2, 2))]
    mat = np.ones((1, 1), dtype=complex)
    for r in rhos:
        mat = np.kron(mat, r.mat)
    joint = tensor(*rhos)
    assert joint.dims == (2, 3, 2, 2)
    assert joint.mat.tobytes() == mat.tobytes()
