import math

import numpy as np
import pytest

from conftest import traced_peak
from decolab import fock, states
from decolab.fock import (
    FockSpace,
    TruncationError,
    _coherent_table,
    _expectations,
    coherent_completeness_deviation,
    coherent_measurement_set,
    coherent_state,
    default_coherent_grid,
    ehrenfest_check,
    photon_counting_set,
    polar_grid,
)
from decolab.measurement import kraus_update, povm_probabilities, validate_kraus
from decolab.oracle import evolve_dense_grid
from decolab.states import DENSITY_CAP, DimensionCapError, StateVector

rng = np.random.default_rng(6006)


def fock_level(space, n):
    amps = np.zeros(space.dim)
    amps[n] = 1.0
    return StateVector((space.dim,), amps)


# ------------------------------------------------------------ operators


def test_ladder_commutator_away_from_truncation_edge():
    space = FockSpace(10)
    comm = space.annihilate @ space.create - space.create @ space.annihilate
    # [a, a^dag] = 1 except on the top level where the ladder is cut
    want = np.eye(space.dim)
    want[-1, -1] = -space.n_max
    np.testing.assert_allclose(comm, want, atol=1e-12)


def test_number_operator_counts():
    space = FockSpace(7)
    np.testing.assert_allclose(
        space.create @ space.annihilate, space.number, atol=1e-12
    )


def test_quadratures_are_hermitian():
    space = FockSpace(6)
    for quad in (space.position, space.momentum):
        np.testing.assert_allclose(quad, quad.conj().T, atol=1e-14)


def test_operator_matrices_are_frozen():
    space = FockSpace(4)
    with pytest.raises(ValueError):
        space.position[0, 0] = 1.0


def test_fock_space_over_the_density_cap_allocates_nothing():
    # n_max = DENSITY_CAP means DENSITY_CAP + 1 levels: five such complex
    # matrices would be 1.3 GB, so the cap must fire before the first one
    def build():
        with pytest.raises(DimensionCapError, match="density cap"):
            FockSpace(DENSITY_CAP)

    assert traced_peak(build) < 2 ** 20


# ------------------------------------------------------------ coherent states


def test_coherent_state_poisson_statistics():
    space = FockSpace(30)
    alpha = 1.3 + 0.4j
    psi = coherent_state(space, alpha)
    mu = abs(alpha) ** 2
    for n in range(8):
        want = math.exp(-mu) * mu ** n / math.factorial(n)
        assert abs(abs(psi.amps[n]) ** 2 - want) < 1e-12


def test_coherent_state_is_near_eigenstate_of_annihilation():
    space = FockSpace(40)
    alpha = 1.1 - 0.6j
    psi = coherent_state(space, alpha)
    resid = space.annihilate @ psi.amps - alpha * psi.amps
    # only the truncation edge contributes
    assert np.linalg.norm(resid) < 1e-10


def test_coherent_state_truncation_guard():
    with pytest.raises(TruncationError):
        coherent_state(FockSpace(8), 2.0)  # |alpha|^2 = 4 > 8/4


def scalar_amplitudes(dim, alpha):
    """Reference: the one-alpha scalar recurrence a_n = a_{n-1} alpha / sqrt(n)."""
    amps = np.empty(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def test_coherent_table_matches_scalar_recurrence_bit_for_bit():
    local = np.random.default_rng(17)
    alphas = [complex(a) for a in 1.5 * np.exp(1j * local.uniform(0.0, 2 * math.pi, 50))]
    alphas += [0.0, 1.0, -2.5j, 3.0 - 4.0j]
    for dim, points in ((49, alphas), (49, polar_grid(18.0, 16, 16).points), (3, alphas)):
        table = _coherent_table(points, dim)
        want = np.array([scalar_amplitudes(dim, a) for a in points])
        np.testing.assert_array_equal(table, want)
    for alpha in alphas[:5]:
        np.testing.assert_array_equal(_coherent_table(alpha, 30)[0], scalar_amplitudes(30, alpha))


# ------------------------------------------------------------ photon counting


def test_photon_counting_is_exactly_complete():
    kset = photon_counting_set(FockSpace(15))
    assert kset.completeness_deviation() < 1e-14


def test_photon_counting_reads_fock_level():
    space = FockSpace(9)
    probs = povm_probabilities(fock_level(space, 2).density(), photon_counting_set(space))
    want = np.zeros(space.dim)
    want[2] = 1.0
    np.testing.assert_allclose(probs, want, atol=1e-14)


def test_photon_counting_poissonian_on_coherent_input():
    space = FockSpace(25)
    probs = povm_probabilities(
        coherent_state(space, 1.0).density(), photon_counting_set(space)
    )
    for n in range(6):
        assert abs(probs[n] - math.exp(-1.0) / math.factorial(n)) < 1e-9


def test_photon_counting_destroys_the_detected_photon():
    space = FockSpace(9)
    rec = kraus_update(fock_level(space, 4).density(), photon_counting_set(space), 4)
    assert rec.probability == pytest.approx(1.0, abs=1e-14)
    assert rec.post_state.mat[0, 0].real > 1.0 - 1e-12


# ------------------------------------------------------------ coherent POVM


def test_polar_grid_weights_tile_the_disc():
    grid = polar_grid(3.0, 12, 16)
    assert len(grid) == 12 * 16
    assert grid.weights.sum() == pytest.approx(math.pi * 9.0, rel=1e-12)
    assert np.max(np.abs(grid.points)) < 3.0


def test_default_grid_covers_the_support():
    space = FockSpace(10)
    grid = default_coherent_grid(space)
    assert grid.radius == math.ceil(2.5 * math.sqrt(10))
    assert grid.radius >= 2.0 * math.sqrt(10)


def test_coherent_set_rejects_small_radius():
    space = FockSpace(10)
    with pytest.raises(ValueError):
        coherent_measurement_set(space, polar_grid(2.0, 8, 8))
    with pytest.raises(ValueError):
        coherent_completeness_deviation(space, polar_grid(2.0, 8, 8))


def test_coherent_set_completeness_improves_with_density():
    space = FockSpace(8)
    radius = float(math.ceil(2.5 * math.sqrt(8)))
    devs = [
        coherent_measurement_set(space, polar_grid(radius, n, n)).completeness_deviation()
        for n in (8, 16, 32)
    ]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.02


def test_coherent_set_default_grid_is_tight():
    kset = coherent_measurement_set(FockSpace(10))
    report = validate_kraus(kset)
    assert report.deviation < 1e-10


def _two_temporary_deviation(space, grid):
    # the audit as B^T diag(dA/pi) conj(B), with both scaled and conjugate tables
    if grid is None:
        grid = default_coherent_grid(space)
    bra = _coherent_table(grid.points, space.dim)
    effect_sum = (bra * (grid.weights / math.pi)[:, None]).T @ bra.conj()
    return float(np.max(np.abs(effect_sum - np.eye(space.dim))))


@pytest.mark.parametrize("n_max", [2, 10, 20, 48])
def test_closed_form_completeness_matches_materialised_set(n_max):
    space = FockSpace(n_max)
    radius = float(math.ceil(2.5 * math.sqrt(n_max)))
    grids = [polar_grid(radius, n, n) for n in (8, 16, 32, 64)]
    grids += [None, polar_grid(3.0 * math.sqrt(n_max) + 0.5, 24, 40)]
    for grid in grids:
        want = coherent_measurement_set(space, grid).completeness_deviation()
        assert abs(coherent_completeness_deviation(space, grid) - want) <= 1e-13
        # conjugation commutes with every rounded product and sum, so forming
        # the effect sum as its conjugate leaves the deviation bit for bit
        # the same (at n_max 48 these are the benchmark's grids)
        assert coherent_completeness_deviation(space, grid) == _two_temporary_deviation(space, grid)


@pytest.mark.parametrize(
    "n_max, n", [(48, 8), (48, 16), (48, 32), (48, 64), (10, 64), (200, 32)]
)
def test_completeness_audit_holds_one_scaled_table(n_max, n):
    # the K x d amplitude table and its scaled conjugate, three d x d
    # matrices (the sum, its deviation and its modulus, with the identity
    # beside them) and per-node vectors of the amplitude recurrence
    space = FockSpace(n_max)
    grid = polar_grid(float(math.ceil(2.5 * math.sqrt(n_max))), n, n)
    k, d = len(grid), space.dim
    peak = traced_peak(coherent_completeness_deviation, space, grid)
    assert peak < 2 * k * d * 16 + 4 * d * d * 16 + 256 * k


def _whole_product(space, grid):
    # the conjugate effect sum as one product (conj(B) dA/pi)^T B
    if grid is None:
        grid = default_coherent_grid(space)
    bra = _coherent_table(grid.points, space.dim)
    scaled = np.conjugate(bra * (grid.weights / math.pi)[:, None])
    return bra, grid.weights / math.pi, scaled.T @ bra


def _audit_grids(n_max):
    radius = float(math.ceil(2.5 * math.sqrt(n_max)))
    return [polar_grid(radius, n, n) for n in (8, 16, 32)] + [None]


def _assert_blocks_equal_the_whole_product(space, grid):
    bra, weight, whole = _whole_product(space, grid)
    blocks = list(fock._effect_sum_blocks(bra, weight))
    rows = states._block_items(16 * bra.shape[0])
    assert [lo for lo, _ in blocks] == states._row_blocks(space.dim, rows)[:-1]
    assert np.concatenate([part for _, part in blocks]).tobytes() == whole.tobytes()
    want = float(np.max(np.abs(whole - np.eye(space.dim))))
    assert coherent_completeness_deviation(space, grid) == want


@pytest.mark.parametrize("n_max", [48, 10, 20])
def test_blocked_audit_equals_the_whole_product_bit_for_bit(n_max):
    # n_max 48: the benchmark's grids; d = 11 and 21, where blocks of a
    # fixed size would leave one row over (a one-row product goes to gemv)
    space = FockSpace(n_max)
    for grid in _audit_grids(n_max):
        _assert_blocks_equal_the_whole_product(space, grid)


@pytest.mark.parametrize("n_max", [10, 20])
@pytest.mark.parametrize("rows", [2, 4, 5, 10])
def test_audit_blocks_that_would_leave_one_row_still_match(monkeypatch, n_max, rows):
    # a block budget of `rows` rows of the default 4096-node table: d = 11
    # or 21 is then one row past a multiple of the rows (but for 4 at d = 11)
    monkeypatch.setattr(states, "_BLOCK_BYTES", rows * 16 * 4096)
    _assert_blocks_equal_the_whole_product(FockSpace(n_max), None)


@pytest.mark.parametrize("n_max", [48, 200])
def test_completeness_audit_scales_one_block_at_a_time(n_max):
    # beside B (K x d) only a K x block scaled slice of at most
    # states._BLOCK_BYTES, the block's rows of the sum and their modulus,
    # and per-node vectors of the amplitude recurrence
    space = FockSpace(n_max)
    grid = default_coherent_grid(space)
    k, d = len(grid), space.dim
    peak = traced_peak(coherent_completeness_deviation, space, grid)
    assert peak < k * d * 16 + states._BLOCK_BYTES + 2 * 16 * d * d + 256 * k


def test_coherent_outcome_projects_onto_coherent_state():
    space = FockSpace(12)
    grid = polar_grid(8.0, 6, 6)
    kset = coherent_measurement_set(space, grid)
    rho = coherent_state(space, 0.9).density()
    probs = povm_probabilities(rho, kset)
    i = int(np.argmax(probs))
    rec = kraus_update(rho, kset, i)
    alpha_i = grid.points[i]
    target = coherent_state(space, alpha_i) if abs(alpha_i) ** 2 <= 3 else None
    if target is not None:
        fid = np.real(target.amps.conj() @ rec.post_state.mat @ target.amps)
        assert fid > 1.0 - 1e-10


# ------------------------------------------------------------ Ehrenfest


def test_ehrenfest_residual_small_for_coherent_state():
    space = FockSpace(20)
    psi = coherent_state(space, 1.0)
    t = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    report = ehrenfest_check(space, psi, 1.0, 1.0, t)
    assert report.max_residual < 1e-5
    assert report.dt == pytest.approx(1e-3)
    assert report.t.size == t.size - 2


def test_ehrenfest_residual_scales_quadratically_in_dt():
    space = FockSpace(20)
    psi = coherent_state(space, 1.0)
    coarse = ehrenfest_check(space, psi, 1.0, 1.0, np.arange(0.0, 1.0, 2e-3))
    fine = ehrenfest_check(space, psi, 1.0, 1.0, np.arange(0.0, 1.0, 1e-3))
    assert 3.5 < coarse.max_residual / fine.max_residual < 4.5


def test_ehrenfest_position_tracks_classical_rotation():
    # <x>(t) = sqrt(2) |alpha| cos(omega t - arg alpha) for harmonic motion
    space = FockSpace(24)
    alpha = 1.2 * np.exp(0.3j)
    psi = coherent_state(space, alpha)
    ham = space.momentum @ space.momentum / 2 + space.position @ space.position / 2
    t = np.linspace(0.0, 6.0, 61)
    amps = evolve_dense_grid(ham, psi, t)
    exp_x = np.einsum("ti,ij,tj->t", amps.conj(), space.position, amps).real
    want = math.sqrt(2.0) * abs(alpha) * np.cos(t - np.angle(alpha))
    np.testing.assert_allclose(exp_x, want, atol=1e-9)


def _superposition(space, alpha, beta):
    amps = coherent_state(space, alpha).amps + coherent_state(space, beta).amps
    return StateVector((space.dim,), amps / np.linalg.norm(amps))


@pytest.mark.parametrize(
    "n_max, alpha",
    [pytest.param(20, 1.0, id="n20"), pytest.param(48, 1.5 * np.exp(0.7j), id="n48")],
)
@pytest.mark.parametrize("kind", ["coherent", "superposition"])
@pytest.mark.parametrize("omega, mass", [(1.0, 1.0), (1.7, 0.6)])
def test_ehrenfest_residuals_match_the_three_operand_einsum(n_max, alpha, kind, omega, mass):
    space = FockSpace(n_max)
    if kind == "coherent":
        psi = coherent_state(space, alpha)
    else:
        psi = _superposition(space, alpha, 1j * alpha)
    dt = 1e-3
    t = np.arange(5001) * dt
    report = ehrenfest_check(space, psi, omega, mass, t)

    ham = space.momentum @ space.momentum / (2.0 * mass) \
        + 0.5 * mass * omega ** 2 * (space.position @ space.position)
    amps = evolve_dense_grid(ham, psi, t)
    exp_x = np.einsum("ti,ij,tj->t", amps.conj(), space.position, amps).real
    exp_p = np.einsum("ti,ij,tj->t", amps.conj(), space.momentum, amps).real
    dpdt = (exp_p[2:] - exp_p[:-2]) / (2.0 * dt)
    want = np.abs(dpdt + mass * omega ** 2 * exp_x[1:-1])

    # Either way <X> = Re sum_ij conj(a_i) X_ij a_j is a sum of at most 2d
    # nonzero real products (X is tridiagonal, zero terms add exactly), so
    # each is rounded by at most about 2d eps kappa_X with the condition
    # number kappa_X = |a|^T |X| |a|.  The two differ by twice that, and the
    # centered difference divides <p>'s share by dt.
    d, eps = space.dim, np.finfo(float).eps
    kappa_x, kappa_p = (
        np.einsum("ti,ij,tj->t", abs(amps), abs(op), abs(amps)).max()
        for op in (space.position, space.momentum)
    )
    bound = 4 * d * eps * (kappa_p / dt + mass * omega ** 2 * kappa_x)
    assert np.max(np.abs(report.residuals - want)) <= bound
    assert report.t.tobytes() == t[1:-1].tobytes()


def _harmonic(space, omega, mass):
    return space.momentum @ space.momentum / (2.0 * mass) \
        + 0.5 * mass * omega ** 2 * (space.position @ space.position)


def _whole_grid_amplitudes(ham, psi, t):
    evals, evecs = np.linalg.eigh(ham)
    coeff = evecs.conj().T @ psi.amps
    return (np.exp(-1j * np.outer(t, evals)) * coeff) @ evecs.T


def _block_rows(space):
    return states._block_items(16 * space.dim)


@pytest.mark.parametrize("offset", [-1, 0, 1, None])
@pytest.mark.parametrize("omega, mass", [(1.0, 1.0), (1.7, 0.6)])
def test_ehrenfest_report_equals_the_whole_grid_reduction(offset, omega, mass):
    # the blocks are reduced one at a time; every value must be the one the
    # whole amplitude grid gives, byte for byte
    space = FockSpace(48)
    psi = coherent_state(space, 1.5 * np.exp(0.7j))
    points = 5001 if offset is None else _block_rows(space) + offset
    dt = 1e-3
    t = np.arange(points) * dt
    report = ehrenfest_check(space, psi, omega, mass, t)

    amps = _whole_grid_amplitudes(_harmonic(space, omega, mass), psi, t)
    exp_x = _expectations(amps, space.position)
    exp_p = _expectations(amps, space.momentum)
    dpdt = (exp_p[2:] - exp_p[:-2]) / (2.0 * dt)
    residuals = np.abs(dpdt + mass * omega ** 2 * exp_x[1:-1])
    assert report.t.tobytes() == t[1:-1].tobytes()
    assert report.residuals.tobytes() == residuals.tobytes()
    assert report.max_residual == float(np.max(residuals))


def test_ehrenfest_memory_grows_only_with_its_per_point_arrays():
    # the states are streamed in blocks, so ten times the grid costs only the
    # floats kept per point: <x>, <p> and the report's t and residuals
    space = FockSpace(48)
    psi = coherent_state(space, 1.5 * np.exp(0.7j))
    grids = [np.arange(points) * 1e-3 for points in (5001, 50001)]
    small, large = (traced_peak(ehrenfest_check, space, psi, 1.0, 1.0, t) for t in grids)
    assert large - small <= (50001 - 5001) * 4 * 8
    assert small < 4 * states._BLOCK_BYTES


def test_ehrenfest_names_the_first_bad_time_of_a_later_block():
    # m omega = 2 squeezes the state onto the edge near t = 0.068, in the
    # third block of this grid: the message must be the whole grid's
    space = FockSpace(20)
    psi = coherent_state(space, 1.0)
    t = np.arange(10001) * 1e-5
    amps = _whole_grid_amplitudes(_harmonic(space, 2.0, 1.0), psi, t)
    upper = amps[:, 11:].view(float)
    tails = np.einsum("ti,ti->t", upper, upper)
    first = int(np.flatnonzero(~(tails <= 1e-6))[0])
    assert first > _block_rows(space)
    want = (
        f"evolved state carries {tails[first]:g} population above level 10 "
        f"at t = {t[first]:g}; enlarge the space before trusting the dynamics"
    )
    with pytest.raises(TruncationError) as err:
        ehrenfest_check(space, psi, 2.0, 1.0, t)
    assert str(err.value) == want


def test_ehrenfest_grid_validation():
    space = FockSpace(12)
    psi = coherent_state(space, 0.5)
    with pytest.raises(ValueError):
        ehrenfest_check(space, psi, 1.0, 1.0, [0.0, 1.0])
    with pytest.raises(ValueError):
        ehrenfest_check(space, psi, 1.0, 1.0, [0.0, 0.1, 0.5])


def test_ehrenfest_rejects_states_crowding_the_truncation():
    space = FockSpace(8)
    with pytest.raises(TruncationError):
        ehrenfest_check(space, fock_level(space, 7), 1.0, 1.0, np.linspace(0, 1, 11))


@pytest.mark.parametrize("omega, mass", [(10.0, 1.0), (1.0, 25.0)])
def test_ehrenfest_rejects_dynamics_that_reach_the_truncation(omega, mass):
    # the initial tail is 1e-8, but m omega far from 1 squeezes the state
    # onto the edge of the space within the grid
    space = FockSpace(20)
    t = np.arange(1001) * 1e-3
    with pytest.raises(TruncationError, match=r"evolved state .* above level 10 at t = "):
        ehrenfest_check(space, coherent_state(space, 1.0), omega, mass, t)


def test_ehrenfest_rejects_a_nan_in_the_time_grid():
    space = FockSpace(20)
    with pytest.raises(ValueError, match="t_grid"):
        ehrenfest_check(space, coherent_state(space, 0.5), 1.0, 1.0, [0.0, 0.002, np.nan, 0.006])
