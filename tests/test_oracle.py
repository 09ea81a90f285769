import math
from types import SimpleNamespace

import numpy as np
import pytest

from decolab import cli, oracle, states
from decolab.oracle import (
    DiagonalHamiltonian,
    UndefinedRatioError,
    dephasing_hamiltonian,
    evolve_dense,
    evolve_dense_grid,
    evolve_diagonal,
    oracle_r,
)
from decolab.spin_bath import SpinBathConfig, decoherence_factor
from decolab.states import DensityMatrix, DimensionCapError, StateVector, reduced_density

rng = np.random.default_rng(2002)


def random_state(dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector((dim,), amps / np.linalg.norm(amps))


def random_hermitian(dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


# ------------------------------------------------------------ diagonal


def test_evolve_diagonal_zero_time_is_identity():
    ham = DiagonalHamiltonian((2, 2), [0.3, -0.1, 0.7, 0.0])
    psi = random_state(4)
    psi4 = StateVector((2, 2), psi.amps)
    np.testing.assert_allclose(evolve_diagonal(ham, psi4, 0.0).amps, psi4.amps)


def test_evolve_diagonal_composes_as_semigroup():
    ham = DiagonalHamiltonian((4,), rng.normal(size=4))
    psi = random_state(4)
    s, t = 0.7, 1.9
    two_step = evolve_diagonal(ham, evolve_diagonal(ham, psi, s), t)
    one_step = evolve_diagonal(ham, psi, s + t)
    np.testing.assert_allclose(two_step.amps, one_step.amps, atol=1e-12)


def test_evolve_diagonal_preserves_norm():
    ham = DiagonalHamiltonian((8,), rng.normal(size=8))
    for _ in range(10):
        psi = random_state(8)
        out = evolve_diagonal(ham, psi, float(rng.uniform(0, 50)))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-13


def test_diagonal_hamiltonian_validation():
    with pytest.raises(ValueError):
        DiagonalHamiltonian((2,), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionCapError):
        DiagonalHamiltonian((2,) * 16, np.zeros(2 ** 16))


# ------------------------------------------------------------ dense


def test_evolve_dense_zero_hamiltonian_is_identity():
    psi = random_state(5)
    out = evolve_dense(np.zeros((5, 5)), psi, 3.7)
    np.testing.assert_allclose(out.amps, psi.amps, atol=1e-13)


def test_evolve_dense_matches_diagonal_on_diagonal_input():
    energies = rng.normal(size=6)
    ham = DiagonalHamiltonian((6,), energies)
    psi = random_state(6)
    t = 2.3
    lhs = evolve_dense(np.diag(energies), psi, t)
    rhs = evolve_diagonal(ham, psi, t)
    np.testing.assert_allclose(lhs.amps, rhs.amps, atol=1e-12)


def test_evolve_dense_matches_matrix_exponential():
    expm = pytest.importorskip("scipy.linalg").expm
    for dim in (2, 5, 9):
        h = random_hermitian(dim)
        psi = random_state(dim)
        t = float(rng.uniform(0.1, 4.0))
        want = expm(-1j * h * t) @ psi.amps
        got = evolve_dense(h, psi, t).amps
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_evolve_dense_grid_matches_pointwise():
    h = random_hermitian(7)
    psi = random_state(7)
    t_grid = np.linspace(0.0, 5.0, 11)
    rows = evolve_dense_grid(h, psi, t_grid)
    assert rows.shape == (11, 7)
    for i, t in enumerate(t_grid):
        np.testing.assert_allclose(rows[i], evolve_dense(h, psi, t).amps, atol=1e-11)


def _block_rows(dim):
    return states._block_items(16 * dim)


# grids around the block size split into blocks of unequal or equal rows; at
# dim 201 a grid one past the block would otherwise leave a one-row block,
# which numpy's matmul sends to gemv
@pytest.mark.parametrize(
    "dim, points",
    [(7, 11), (49, 5001)]
    + [(dim, _block_rows(dim) + k) for dim in (49, 201) for k in (-1, 0, 1)]
    + [(201, 2 * _block_rows(201) + 1)],
)
def test_evolve_dense_grid_rows_equal_the_plain_expression_bit_for_bit(dim, points):
    h = random_hermitian(dim)
    psi = random_state(dim)
    t_grid = np.linspace(0.0, 5.0, points)
    evals, evecs = np.linalg.eigh(h)
    coeff = evecs.conj().T @ psi.amps
    want = (np.exp(-1j * np.outer(t_grid, evals)) * coeff) @ evecs.T
    got = evolve_dense_grid(h, psi, t_grid)
    assert got.tobytes() == want.tobytes()


def test_evolve_dense_rejects_non_hermitian():
    with pytest.raises(ValueError):
        evolve_dense(np.array([[0.0, 1.0], [0.0, 0.0]]), random_state(2), 1.0)


# ------------------------------------------------------------ dephasing


def test_dephasing_hamiltonian_single_spin_energies():
    # E(s0, s1) = -s0 g s1: (up,up) -> -g, (up,down) -> +g and mirrored
    g = 0.8
    ham = dephasing_hamiltonian([g])
    np.testing.assert_allclose(ham.energies, [-g, g, g, -g], atol=1e-15)


def test_dephasing_single_spin_phases_by_hand():
    # aligned qubit/spin amplitudes rotate as e^{+igt}, anti-aligned e^{-igt}
    g, t = 0.6, 1.7
    a, b = 0.6, 0.8
    alpha, beta = 0.28, 0.96
    psi0 = StateVector((2, 2), [a * alpha, a * beta, b * alpha, b * beta])
    out = evolve_diagonal(dephasing_hamiltonian([g]), psi0, t)
    ph = np.exp(1j * g * t)
    want = [a * alpha * ph, a * beta / ph, b * alpha / ph, b * beta * ph]
    np.testing.assert_allclose(out.amps, want, atol=1e-14)


def test_dephasing_hamiltonian_matches_bitwise_reference():
    # independent sign bookkeeping: loop over basis indices and bits
    g = rng.uniform(0.2, 1.0, size=4)
    ham = dephasing_hamiltonian(g)
    for idx in range(2 ** 5):
        bits = [(idx >> (4 - k)) & 1 for k in range(5)]
        s = [1 - 2 * bit for bit in bits]
        want = -s[0] * sum(gk * sk for gk, sk in zip(g, s[1:]))
        assert abs(ham.energies[idx] - want) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 14])
def test_dephasing_energies_are_balanced_sums_of_the_couplings(n):
    # exact sums (math.fsum) by index bits; a balanced tree of depth
    # ceil(log2 N) rounds each sum by at most that many eps * sum|g|
    g = rng.uniform(0.0, 1.0, n)
    energies = dephasing_hamiltonian(g).energies
    bits = (np.arange(2 ** (n + 1))[:, None] >> np.arange(n, -1, -1)) & 1
    signs = (1 - 2 * bits).tolist()
    exact = np.array([-s[0] * math.fsum(np.multiply(s[1:], g)) for s in signs])
    bound = max(math.ceil(math.log2(n)), 1) * np.finfo(float).eps * g.sum()
    assert energies.shape == (2 ** (n + 1),)
    assert np.abs(energies - exact).max() <= bound


def test_dephasing_hamiltonian_checks_the_cap_before_allocating(monkeypatch):
    def no_sums(g):
        raise AssertionError("energies were allocated")

    monkeypatch.setattr(oracle, "_spin_sums", no_sums)
    with pytest.raises(DimensionCapError):
        dephasing_hamiltonian(np.ones(15))


def test_dephasing_hamiltonian_past_the_int_to_str_limit_raises_the_cap_error():
    # 2^20001 has more digits than Python will format into a message
    with pytest.raises(DimensionCapError, match="dense cap"):
        dephasing_hamiltonian(np.ones(20000))


def test_diagonal_hamiltonian_sees_products_past_int64():
    # 2^64 wraps to 0 in an int64 product and would match zero energies
    with pytest.raises(DimensionCapError, match="dense cap"):
        DiagonalHamiltonian((2,) * 64, [])


# ------------------------------------------------------------ oracle_r


def test_oracle_r_at_zero_time_is_one():
    cfg = SpinBathConfig.random(5, rng)
    assert abs(oracle_r(cfg, 0.0) - 1.0) < 1e-13


def test_oracle_r_eigenstate_environment_keeps_modulus_one():
    n = 5
    cfg = SpinBathConfig(0.6, 0.8, np.linspace(0.3, 1.1, n), np.ones(n), np.zeros(n))
    for t in rng.uniform(0.0, 30.0, 8):
        assert abs(abs(oracle_r(cfg, float(t))) - 1.0) < 1e-12


def test_oracle_r_undefined_for_vanishing_branch():
    cfg = SpinBathConfig(1.0, 0.0, [0.5], [1 / np.sqrt(2)], [1 / np.sqrt(2)])
    with pytest.raises(UndefinedRatioError):
        oracle_r(cfg, 1.0)


def test_oracle_r_agrees_with_closed_form():
    for _ in range(15):
        n = int(rng.integers(1, 9))
        cfg = SpinBathConfig.random(n, rng)
        if abs(cfg.a) < 1e-3 or abs(cfg.b) < 1e-3:
            continue
        for t in rng.uniform(0.0, 20.0, 4):
            dev = abs(decoherence_factor(cfg, float(t)) - oracle_r(cfg, float(t)))
            assert dev < 1e-10


def test_oracle_r_respects_spin_cap(monkeypatch):
    def no_branch(*args, **kwargs):
        raise AssertionError("a 2^N bath state was built")

    # 15 bath spins make a 2^16 joint state: over DIM_CAP before anything is built
    monkeypatch.setattr(oracle, "environment_branch", no_branch)
    cfg = SpinBathConfig.balanced(np.ones(15))
    with pytest.raises(DimensionCapError, match="dense cap"):
        oracle_r(cfg, 1.0)


# ------------------------------------------------------------ oracle_r on a grid


@pytest.mark.parametrize("n", [1, 5, 14])
def test_oracle_r_grid_is_bit_identical_to_scalar_calls(n):
    for cfg in (SpinBathConfig.random(n, rng), SpinBathConfig.balanced(rng.uniform(0, 1, n))):
        t_grid = np.concatenate([[0.0], rng.uniform(0.0, 30.0, 6)])
        grid = oracle_r(cfg, t_grid)
        loop = np.array([oracle_r(cfg, float(t)) for t in t_grid])
        assert grid.dtype == complex and grid.shape == t_grid.shape
        assert np.array_equal(grid, loop)


def _block_rows(n):
    return states._block_items(oracle._dephasing_time_bytes(2 ** (n + 1)))


@pytest.mark.parametrize("n", [10, 14])
def test_oracle_r_grid_is_bit_identical_to_scalar_calls_at_block_boundaries(n):
    rows = _block_rows(n)
    assert len(states._row_blocks(rows + 1, rows, least=1)) == 3  # rows + 1 times: two blocks
    cfg = SpinBathConfig.random(n, rng)
    for times in (rows - 1, rows, rows + 1, 2 * rows + 1):
        t_grid = rng.uniform(0.0, 30.0, times)
        loop = np.array([oracle_r(cfg, float(t)) for t in t_grid], dtype=complex)
        assert np.array_equal(oracle_r(cfg, t_grid), loop)


def _per_time(cfg, t):
    """r(t) as one StateVector and one DensityMatrix per time would give it."""
    psi0 = oracle._joint_state([cfg.a, cfg.b], cfg)
    rho = reduced_density(evolve_diagonal(dephasing_hamiltonian(cfg.g), psi0, t), keep=0)
    return rho.mat[0, 1] / (complex(cfg.a) * np.conj(complex(cfg.b)))


# from 2^14 amplitudes (N >= 13) numpy reuses a temporary in ``amps * phases``
# and swaps its operands; complex multiplication need not commute bit for bit
@pytest.mark.parametrize("n", [12, 13, 14])
def test_evolve_diagonal_rounds_the_same_at_every_size(n):
    cfg = SpinBathConfig.random(n, rng)
    psi0 = oracle._joint_state([cfg.a, cfg.b], cfg)
    ham = dephasing_hamiltonian(cfg.g)
    for t in rng.uniform(0.0, 30.0, 3):
        phases = np.exp(-1j * ham.energies * t)
        want = np.multiply(phases, psi0.amps)
        assert np.array_equal(evolve_diagonal(ham, psi0, t).amps.view(float), want.view(float))


def test_oracle_r_equals_the_per_time_evolution_at_every_size():
    for n in range(1, 15):
        cfg = SpinBathConfig.random(n, rng)
        t_grid = np.concatenate([[0.0], rng.uniform(0.0, 30.0, 3)])
        assert np.array_equal(oracle_r(cfg, t_grid), [_per_time(cfg, t) for t in t_grid])


def test_every_time_is_checked_once(monkeypatch):
    checked = []
    real = states._check_stack

    def counted(amps, rho):
        checked.append(amps.shape[0])
        real(amps, rho)

    monkeypatch.setattr(oracle, "_check_stack", counted)
    for n, times in ((2, 20000), (10, 40), (14, 3)):
        checked.clear()
        oracle_r(SpinBathConfig.random(n, rng), rng.uniform(0.0, 30.0, times))
        assert sum(checked) == times and len(checked) > 1


def _message(build, *args):
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


def test_a_block_off_unit_norm_raises_the_state_vector_message():
    cfg = SpinBathConfig.random(3, rng)
    psi0 = oracle._joint_state([cfg.a, cfg.b], cfg)
    ham = dephasing_hamiltonian(cfg.g)
    # t = 0 keeps the amplitudes as they are: the phase is exactly 1
    off = SimpleNamespace(dims=psi0.dims, dim=psi0.dim, amps=psi0.amps * math.sqrt(1 + 1e-11))
    want = _message(StateVector, psi0.dims, off.amps)
    assert want.startswith("state is not normalized")
    for t_grid in ([0.0], [0.0, 1.0, 2.0]):
        blocks = oracle._dephasing_blocks(ham, off, np.array(t_grid))
        assert _message(list, blocks) == want


@pytest.mark.parametrize("bad, kind", [
    ([[0.5, 1e-11], [0.0, 0.5]], "not Hermitian"),
    ([[0.5, 0.0], [0.0, 0.5 + 1e-11]], "trace"),
    ([[1.5, 0.0], [0.0, -0.5]], "not positive semidefinite"),
    ([[np.nan, 0.0], [0.0, 0.5]], "not Hermitian"),
])
def test_a_bad_reduced_matrix_raises_the_density_matrix_message(bad, kind):
    want = _message(DensityMatrix, (2,), bad)
    assert kind in want
    amps = np.zeros((3, 4), dtype=complex)
    amps[:, 0] = 1.0
    rho = np.array([[[1.0, 0.0], [0.0, 0.0]], bad, np.eye(2) / 2], dtype=complex)
    assert _message(states._check_stack, amps, rho) == want


def test_the_first_time_to_fail_names_its_own_check():
    amps = np.zeros((3, 4), dtype=complex)
    amps[:, 0] = 1.0
    amps[2] *= 2.0  # the norm fails at the last time only
    rho = np.array([np.eye(2) / 2, [[1.5, 0.0], [0.0, -0.5]], np.eye(2) / 2], dtype=complex)
    want = _message(DensityMatrix, (2,), rho[1])
    assert _message(states._check_stack, amps, rho) == want


def test_oracle_r_follows_the_closed_form_shape_rule():
    cfg = SpinBathConfig.random(4, rng)
    t_2d = rng.uniform(0.0, 10.0, (2, 3))
    want = oracle_r(cfg, float(t_2d[0, 1]))
    for t in (float(t_2d[0, 1]), np.float64(t_2d[0, 1]), np.array(t_2d[0, 1])):
        got = oracle_r(cfg, t)
        assert type(got) is complex and got == want
    assert oracle_r(cfg, t_2d[0]).shape == (3,)
    grid = oracle_r(cfg, t_2d)
    assert grid.shape == (2, 3) and grid[0, 1] == want
    assert np.abs(grid - decoherence_factor(cfg, t_2d)).max() < 1e-12
    assert oracle_r(cfg, np.empty(0)).shape == (0,)


@pytest.mark.parametrize(
    "cfg, error",
    [
        (SpinBathConfig.balanced(np.ones(15)), DimensionCapError),
        (SpinBathConfig(1.0, 0.0, np.ones(14), np.ones(14), np.zeros(14)), UndefinedRatioError),
        (SpinBathConfig(0.0, 1.0, [0.5], [1.0], [0.0]), UndefinedRatioError),
    ],
)
def test_oracle_r_rejects_before_building_anything(cfg, error, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a 2^N object was built")

    for name in ("environment_branch", "dephasing_hamiltonian", "StateVector"):
        monkeypatch.setattr(oracle, name, no_build)
    with pytest.raises(error):
        oracle_r(cfg, np.linspace(0.0, 1.0, 4))


def test_oracle_task_builds_one_hamiltonian_per_bath(monkeypatch):
    builds = []
    real = oracle.dephasing_hamiltonian

    def counted(couplings):
        builds.append(len(couplings))
        return real(couplings)

    monkeypatch.setattr(oracle, "dephasing_hamiltonian", counted)
    for n, child in zip((3, 8), np.random.SeedSequence(4).spawn(2)):
        builds.clear()
        got_n, worst = cli._oracle_task((n, 20, 20.0, child))
        assert builds == [n]
        assert got_n == n and 0.0 <= worst < 1e-10


def test_nan_hamiltonian_is_rejected_by_name():
    # NaN - NaN is NaN, so the Hermiticity test itself rejects it
    psi = StateVector((2,), [1.0, 0.0])
    h = [[0.0, np.nan], [np.nan, 1.0]]
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
        evolve_dense_grid(h, psi, [0.5])
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
        evolve_dense(h, psi, 0.5)
