import numpy as np
import pytest

from decolab.states import (
    DIM_CAP,
    BasisSpec,
    DensityMatrix,
    DimensionCapError,
    StateVector,
    offdiag_norm,
    partial_trace,
    purity,
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
