import math

import numpy as np
import pytest

from decolab import oracle
from decolab.pointer import (
    ApparatusModel,
    TriConfig,
    apparatus_dephasing,
    apparatus_reduced_state,
    basis_correlation_decay,
    predictability_sieve,
    tridecompose_state,
)
from decolab.spin_bath import SpinBathConfig, decoherence_factor, decoherence_on_grid
from decolab.states import (
    DIM_CAP,
    BasisSpec,
    DimensionCapError,
    offdiag_norm,
    purity,
    reduced_density,
)

rng = np.random.default_rng(5005)

Z_BASIS = BasisSpec(0, np.eye(2))
X_BASIS = BasisSpec(0, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def tri_config(n, balanced=True, a=0.6, b=0.8):
    if balanced:
        bath = SpinBathConfig.balanced(rng.uniform(0.1, 1.0, n))
    else:
        bath = SpinBathConfig.random(n, rng)
    return TriConfig(a, b, bath)


# ------------------------------------------------------------ tripartite state


def test_tridecompose_initial_state_is_a_product():
    cfg = tri_config(3)
    state = tridecompose_state(cfg, 0.0)
    env0 = np.ones(1, dtype=complex)
    for ak, bk in zip(cfg.bath.alpha, cfg.bath.beta):
        env0 = np.kron(env0, [ak, bk])
    branch = np.zeros(4, dtype=complex)
    branch[0], branch[3] = cfg.a, cfg.b  # |up,up> and |down,down|
    np.testing.assert_allclose(state.amps, np.kron(branch, env0), atol=1e-14)


def test_tridecompose_stays_normalized():
    cfg = tri_config(5, balanced=False)
    for t in rng.uniform(0.0, 20.0, 5):
        state = tridecompose_state(cfg, float(t))
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12


def test_tridecompose_matches_explicit_diagonal_evolution():
    # independent reference: build the lifted Hamiltonian sign-by-sign and
    # phase the initial amplitudes directly
    n = 3
    cfg = tri_config(n, balanced=False)
    g = cfg.bath.g
    env_dim = 2 ** n
    psi0 = tridecompose_state(cfg, 0.0).amps
    t = 1.37
    want = np.empty_like(psi0)
    for idx in range(4 * env_dim):
        a_bit = (idx >> n) & 1  # pointer bit (system bit is idx >> (n+1))
        s_a = 1 - 2 * a_bit
        acc = 0.0
        for k in range(n):
            e_bit = (idx >> (n - 1 - k)) & 1
            acc += g[k] * (1 - 2 * e_bit)
        energy = -s_a * acc
        want[idx] = psi0[idx] * np.exp(-1j * energy * t)
    got = tridecompose_state(cfg, t)
    np.testing.assert_allclose(got.amps, want, atol=1e-13)


def test_tridecompose_respects_cap():
    # (2, 2) + (2,) * 13 is DIM_CAP amplitudes; 14 bath spins are over it
    assert tridecompose_state(tri_config(13), 0.0).dim == DIM_CAP
    with pytest.raises(DimensionCapError, match="dense cap"):
        tridecompose_state(tri_config(14), 0.0)


def test_joint_offdiag_norm_tracks_decoherence_factor():
    cfg = tri_config(6, balanced=False)
    full = BasisSpec(0, np.eye(4))
    scale = 2 * abs(cfg.a) * abs(cfg.b)
    for t in (0.0, 0.8, 3.3):
        rho_sa = reduced_density(tridecompose_state(cfg, t), keep=(0, 1))
        want = scale * abs(decoherence_factor(cfg.bath, t))
        assert abs(offdiag_norm(rho_sa, full) - want) < 1e-12


# ------------------------------------------------------------ rotated readout


def test_correlation_flat_in_pointer_basis():
    cfg = tri_config(5)
    t_grid = np.linspace(0.0, 6.0, 40)
    c = basis_correlation_decay(cfg, 0.0, t_grid)
    np.testing.assert_allclose(c, abs(cfg.a) * abs(cfg.b), atol=1e-12)


def test_correlation_at_quarter_turn_follows_branch_overlap():
    cfg = tri_config(5)  # balanced spins keep r real
    t_grid = np.linspace(0.0, 6.0, 40)
    c = basis_correlation_decay(cfg, np.pi / 4, t_grid)
    r = decoherence_factor(cfg.bath, t_grid)
    np.testing.assert_allclose(
        c, abs(cfg.a) * abs(cfg.b) * np.abs(r), atol=1e-10
    )


def test_correlation_rejects_theta_out_of_range():
    cfg = tri_config(2)
    with pytest.raises(ValueError):
        basis_correlation_decay(cfg, -0.1, [0.0, 1.0])
    with pytest.raises(ValueError):
        basis_correlation_decay(cfg, 2.0, [0.0, 1.0])


# ------------------------------------------------------------ sieve


def test_sieve_scores_conserved_basis_exactly_one():
    cfg = tri_config(6)
    t_grid = np.linspace(0.0, 8.0, 300)
    ranked = predictability_sieve([X_BASIS, Z_BASIS], cfg, t_grid)
    assert ranked[0][0] is Z_BASIS
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)
    assert ranked[1][1] < 1.0


def test_sieve_conjugate_basis_matches_closed_form():
    # a pointer prepared across the monitored basis dephases with r(t):
    # purity (1 + |r|^2) / 2, then time-averaged
    cfg = tri_config(5)
    t_grid = np.linspace(0.0, 7.0, 250)
    ranked = predictability_sieve([Z_BASIS, X_BASIS], cfg, t_grid)
    scores = {id(b): s for b, s in ranked}
    r2 = np.abs(decoherence_factor(cfg.bath, t_grid)) ** 2
    want = float(np.mean((1.0 + r2) / 2.0))
    assert abs(scores[id(X_BASIS)] - want) < 1e-10


@pytest.mark.parametrize("n, samples", [(13, 401), (4, 41), (40, 70001), (1000, 2000)])
def test_sieve_scores_use_the_whole_grid_mean_bit_for_bit(n, samples):
    # the sieve walks r(t) in slices; its mean of |r|^2 is the whole grid's
    cfg = tri_config(n, balanced=False)
    uniform = np.linspace(0.0, 6.0, samples)
    for t_grid in (uniform, np.sqrt(uniform * 6.0)):
        mean_r2 = float(np.mean(np.abs(decoherence_on_grid(cfg.bath, t_grid)) ** 2))
        for basis, score in predictability_sieve([X_BASIS, Z_BASIS], cfg, t_grid):
            w0, w1 = np.abs(basis.matrix) ** 2
            assert score == float(np.mean(w0 ** 2 + w1 ** 2 + 2.0 * w0 * w1 * mean_r2))


def test_sieve_needs_two_candidates():
    cfg = tri_config(2)
    with pytest.raises(ValueError):
        predictability_sieve([Z_BASIS], cfg, [0.0, 1.0])


# ------------------------------------------------------------ apparatus model


def test_apparatus_model_validation():
    with pytest.raises(ValueError):
        ApparatusModel([1.0, 1.0], lambda i, j, t, m: 1.0)
    with pytest.raises(ValueError):
        ApparatusModel(
            [1.0], lambda i, j, t, m: 1.0, weights=[0.5, 0.6]
        )


NAN = float("nan")
NAN_INPUTS = {
    "tri-a": lambda: TriConfig(NAN, 0.8, SpinBathConfig.balanced([0.5])),
    "tri-b": lambda: TriConfig(0.6, complex(0.0, NAN), SpinBathConfig.balanced([0.5])),
    "model-amplitudes": lambda: ApparatusModel([0.6, NAN], lambda i, j, t, m: 1.0),
    "model-weights": lambda: ApparatusModel([0.6, 0.8], lambda i, j, t, m: 1.0, [0.3, NAN]),
}


@pytest.mark.parametrize("build", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_validators_reject_nan(build):
    with pytest.raises(ValueError):
        build()


def test_apparatus_pure_closed_form():
    c = np.array([0.5, 0.5j, np.sqrt(0.5)], dtype=complex)
    lam = 0.9

    def kappa(i, j, t, mix):
        return 1.0 if i == j else np.exp(-lam * t)

    model = ApparatusModel(c, kappa)
    for t in (0.0, 0.7, 2.5):
        rho = apparatus_reduced_state(model, t)
        assert rho.dims == (4,)
        np.testing.assert_allclose(rho.mat[0, :], 0.0, atol=1e-15)
        k = np.exp(-lam * t)
        for i in range(3):
            for j in range(3):
                want = abs(c[i]) ** 2 if i == j else c[i] * np.conj(c[j]) * k
                assert abs(rho.mat[i + 1, j + 1] - want) < 1e-13


def test_apparatus_mixture_averages_kernels():
    c = np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex)
    rates = [0.4, 1.6]
    weights = [0.25, 0.75]

    def kappa(i, j, t, mix):
        return 1.0 if i == j else np.exp(-rates[mix] * t)

    model = ApparatusModel(c, kappa, weights)
    t = 1.1
    rho = apparatus_reduced_state(model, t)
    k_avg = 0.25 * np.exp(-0.4 * t) + 0.75 * np.exp(-1.6 * t)
    assert abs(rho.mat[1, 2] - c[0] * np.conj(c[1]) * k_avg) < 1e-13


def test_apparatus_purity_never_increases():
    c = np.array([0.6, 0.8], dtype=complex)
    model = ApparatusModel(c, lambda i, j, t, m: 1.0 if i == j else np.exp(-0.5 * t))
    values = [purity(apparatus_reduced_state(model, t)) for t in np.linspace(0, 5, 30)]
    assert np.all(np.diff(values) <= 1e-12)


def test_apparatus_rejects_bad_kernels():
    c = np.array([0.6, 0.8], dtype=complex)
    grow = ApparatusModel(c, lambda i, j, t, m: 1.0 if i == j else 1.5)
    with pytest.raises(ValueError):
        apparatus_reduced_state(grow, 1.0)
    skew = ApparatusModel(
        c, lambda i, j, t, m: 1.0 if i == j else (0.5j if i < j else 0.5j)
    )
    with pytest.raises(ValueError):
        apparatus_reduced_state(skew, 1.0)


@pytest.mark.parametrize("mixture", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_apparatus_closed_form_matches_the_dense_path(n, mixture):
    case_rng = np.random.default_rng(100 * n + mixture)
    c = np.sqrt(case_rng.dirichlet(np.ones(n))) * np.exp(2j * np.pi * case_rng.random(n))
    c *= math.sqrt((1.0 + 6e-13) / np.sum(np.abs(c) ** 2))  # off 1 by 6e-13
    rates = case_rng.uniform(0.2, 2.0, mixture)
    weights = case_rng.dirichlet(np.ones(mixture))
    # t = 0 (kernel 1) up to t = 1e4, where every exponential underflows to 0
    t_grid = np.array([0.0, 0.05, 0.8, 3.0, 11.0, 1e4])
    offdiag, pure = apparatus_dephasing(c, rates, weights, t_grid)
    assert offdiag[-1] == 0.0

    def kappa(i, j, t, mix):
        return 1.0 if i == j else math.exp(-rates[mix] * t)

    model = ApparatusModel(c, kappa, weights)
    outcomes = BasisSpec(0, np.eye(model.dim))
    for k, t in enumerate(t_grid):
        rho = apparatus_reduced_state(model, float(t))
        assert abs(offdiag[k] - offdiag_norm(rho, outcomes)) <= 1e-13
        assert abs(pure[k] - purity(rho)) <= 1e-13


def test_apparatus_closed_form_defaults_to_equal_weights():
    c = [0.6, 0.8j]
    t_grid = np.linspace(0.0, 3.0, 7)
    for got, want in zip(
        apparatus_dephasing(c, [0.5, 1.5], None, t_grid),
        apparatus_dephasing(c, [0.5, 1.5], [0.5, 0.5], t_grid),
    ):
        np.testing.assert_array_equal(got, want)


GOOD_APPARATUS = dict(amplitudes=[0.6, 0.8], decay_rates=[0.5, 1.0], weights=[0.3, 0.7],
                      t_grid=[0.0, 1.0, 2.0])


BAD_APPARATUS = [
    ({"t_grid": [0.0, -0.5, 1.0]}, "times must be nonnegative"),
    ({"decay_rates": [0.5, -1.0]}, "decay rates must be nonnegative"),
    ({"decay_rates": [-0.5, -1.0], "t_grid": [-1.0, 0.0]}, "must be nonnegative"),
    ({"weights": [0.3, 0.3, 0.4]}, "3 mixture weights for 2 decay rates"),
    ({"weights": [1.0]}, "1 mixture weights for 2 decay rates"),
    ({"weights": [0.3, 0.6]}, "must sum to 1"),
    ({"weights": [-0.5, 1.5]}, "mixture weights must be nonnegative"),
    ({"amplitudes": [0.6, 0.81]}, "expected 1"),
    ({"amplitudes": []}, "at least one branch amplitude"),
    ({"decay_rates": [], "weights": []}, "at least one decay rate"),
    ({"amplitudes": [0.6, float("nan")]}, "expected 1"),
    ({"decay_rates": [0.5, float("nan")]}, "decay rates must be nonnegative"),
    ({"weights": [0.3, float("nan")]}, "mixture weights must be nonnegative"),
    ({"t_grid": [0.0, float("nan")]}, "times must be nonnegative"),
    ({"decay_rates": [0.5, float("inf")]}, "kernel leaves"),
]


@pytest.mark.parametrize(
    "bad, message",
    BAD_APPARATUS,
    ids=[",".join(f"{k}={v}" for k, v in bad.items()) for bad, _ in BAD_APPARATUS],
)
def test_apparatus_closed_form_rejects_bad_input(bad, message):
    with pytest.raises(ValueError, match=message):
        apparatus_dephasing(**dict(GOOD_APPARATUS, **bad))


def test_apparatus_closed_form_accepts_the_good_input():
    offdiag, pure = apparatus_dephasing(**GOOD_APPARATUS)
    assert offdiag.shape == pure.shape == (3,)
    assert abs(offdiag[0] - 2 * 0.6 * 0.8) < 1e-15 and abs(pure[0] - 1.0) < 1e-15


# ------------------------------------------------------------ dense references

THETAS = (0.0, np.pi / 8, np.pi / 4, np.pi / 2)
PHASED_BASIS = BasisSpec(
    0,
    np.array(
        [
            [math.cos(0.3), -math.sin(0.3) * np.exp(-0.4j)],
            [math.sin(0.3) * np.exp(0.4j), math.cos(0.3)],
        ]
    ),
)


def reference_config(n, balanced):
    ref_rng = np.random.default_rng(7000 + n)
    if balanced:
        bath = SpinBathConfig.balanced(ref_rng.uniform(0.1, 1.0, n))
    else:
        bath = SpinBathConfig.random(n, ref_rng)
    return TriConfig(0.6, 0.64 + 0.48j, bath)


def oracle_rho_sa(cfg, t):
    """System+pointer state traced out of the explicit tripartite state:
    the dense reference for ``basis_correlation_decay`` (N <= 13)."""
    return reduced_density(tridecompose_state(cfg, t), keep=(0, 1))


def oracle_pointer_purity(bath, column, t_grid):
    """Purity of a pointer that starts in ``column`` next to the product state
    of ``bath`` and dephases under the dense oracle's Hamiltonian, a block of
    times at a time: the reference for ``predictability_sieve``, whose score
    of a basis is this purity averaged over the grid and the basis columns."""
    psi0 = oracle._joint_state(column, bath)
    t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
    out = np.empty(t_grid.size)
    for start, rho in oracle._dephasing_blocks(oracle.dephasing_hamiltonian(bath.g), psi0, t_grid):
        out[start : start + rho.shape[0]] = [np.vdot(m, m).real for m in rho]
    return out


def dense_correlation(rho_sa, theta):
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    u2 = np.kron(rot, rot)
    p = np.clip(np.real(np.diag(u2.T @ rho_sa.mat @ u2)), 0.0, None)
    return abs(math.sqrt(p[0] * p[3]) - math.sqrt(p[1] * p[2]))


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "random"])
@pytest.mark.parametrize("n", [1, 5, 13])
def test_correlation_matches_dense_reference(n, balanced):
    cfg = reference_config(n, balanced)
    t_grid = np.linspace(0.0, 6.0, 13)
    rhos = [oracle_rho_sa(cfg, t) for t in t_grid]
    for theta in THETAS:
        want = [dense_correlation(rho, theta) for rho in rhos]
        got = basis_correlation_decay(cfg, theta, t_grid)
        assert float(np.max(np.abs(got - want))) <= 1e-12


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "random"])
@pytest.mark.parametrize("n", [1, 5, 13])
def test_sieve_matches_dense_reference(n, balanced):
    cfg = reference_config(n, balanced)
    t_grid = np.linspace(0.0, 8.0, 21)
    candidates = [X_BASIS, PHASED_BASIS, Z_BASIS]
    for basis, score in predictability_sieve(candidates, cfg, t_grid):
        want = np.mean(
            [oracle_pointer_purity(cfg.bath, basis.column(i), t_grid) for i in range(2)]
        )
        assert abs(score - want) <= 1e-12


NAN_KERNELS = {
    "both": lambda i, j, t, m: 1.0 if i == j else np.nan,
    "upper": lambda i, j, t, m: 1.0 if i == j else (np.nan if i < j else 0.5),
    "lower": lambda i, j, t, m: 1.0 if i == j else (np.nan if i > j else 0.5),
}


@pytest.mark.parametrize("kappa", NAN_KERNELS.values(), ids=NAN_KERNELS.keys())
def test_nan_kernel_value_is_named(kappa):
    # each kernel test is written so that NaN fails it and the message names kappa
    with pytest.raises(ValueError, match="kappa"):
        apparatus_reduced_state(ApparatusModel([0.6, 0.8], kappa), 0.5)
