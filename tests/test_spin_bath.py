import numpy as np
import pytest

from decolab.oracle import oracle_r
from decolab.spin_bath import (
    DecoherenceTrace,
    FitWindowError,
    SpinBathConfig,
    decoherence_factor,
    decoherence_trace,
    environment_branch,
    fit_gaussian_decay,
    recurrence_scan,
    reduced_state_A,
    time_averaged_r2,
)

rng = np.random.default_rng(3003)


# ------------------------------------------------------------ config


def test_config_rejects_bad_normalization():
    with pytest.raises(ValueError):
        SpinBathConfig(1.0, 1.0, [0.5], [1.0], [0.0])
    with pytest.raises(ValueError):
        SpinBathConfig(0.6, 0.8, [0.5], [1.0], [1.0])
    with pytest.raises(ValueError):
        SpinBathConfig(0.6, 0.8, [], [], [])


def test_config_random_is_reproducible():
    c1 = SpinBathConfig.random(6, np.random.default_rng(5))
    c2 = SpinBathConfig.random(6, np.random.default_rng(5))
    np.testing.assert_array_equal(c1.g, c2.g)
    np.testing.assert_array_equal(c1.alpha, c2.alpha)
    assert c1.a == c2.a and c1.b == c2.b


def test_config_arrays_are_frozen():
    cfg = SpinBathConfig.balanced([0.5, 0.7])
    with pytest.raises(ValueError):
        cfg.g[0] = 1.0


# ------------------------------------------------------------ r(t)


def test_decoherence_factor_starts_at_one():
    cfg = SpinBathConfig.random(7, rng)
    assert decoherence_factor(cfg, 0.0) == pytest.approx(1.0)


def test_decoherence_factor_two_spin_product_formula():
    # balanced spins with g = (1, 2): r(t) = cos(2t) cos(4t)
    cfg = SpinBathConfig.balanced([1.0, 2.0])
    t = np.linspace(0.0, 7.0, 200)
    np.testing.assert_allclose(
        decoherence_factor(cfg, t), np.cos(2 * t) * np.cos(4 * t), atol=1e-14
    )


def test_decoherence_factor_single_spin_zero_crossing():
    # cos(2 * 1 * pi/4) = 0
    cfg = SpinBathConfig.balanced([1.0])
    assert abs(decoherence_factor(cfg, np.pi / 4)) < 1e-15


def test_decoherence_factor_modulus_bounded():
    for _ in range(5):
        cfg = SpinBathConfig.random(int(rng.integers(1, 12)), rng)
        r = decoherence_factor(cfg, np.linspace(0.0, 50.0, 500))
        assert np.all(np.abs(r) <= 1.0 + 1e-12)


def test_decoherence_factor_scalar_in_scalar_out():
    cfg = SpinBathConfig.balanced([0.4])
    assert np.isscalar(decoherence_factor(cfg, 1.0))


def _outer_product_r(cfg, t):
    """The (T, N) outer-product evaluation of r(t), kept as a reference."""
    t_arr = np.asarray(t, dtype=float)
    phase = 2.0 * np.multiply.outer(t_arr, cfg.g)
    weight = np.abs(cfg.alpha) ** 2 - np.abs(cfg.beta) ** 2
    factors = np.cos(phase) + 1j * weight * np.sin(phase)
    r = factors.prod(axis=-1)
    if np.isscalar(t) or t_arr.ndim == 0:
        return complex(r)
    return r


def _mixed_bath(n, gen):
    """Balanced spins beside eigenstate spins (w = +1 and -1) and random ones."""
    rand = SpinBathConfig.random(n, gen)
    kind = np.arange(n) % 4
    half = 1 / np.sqrt(2)
    alpha = np.select([kind == 0, kind == 1, kind == 2], [half, 1.0, 0.0], rand.alpha)
    beta = np.select([kind == 0, kind == 1, kind == 2], [half, 0.0, 1.0], rand.beta)
    return SpinBathConfig(rand.a, rand.b, rand.g, alpha, beta)


@pytest.mark.parametrize("n", [1, 13, 40, 200])
@pytest.mark.parametrize("bath", ["balanced", "random", "mixed"])
def test_streamed_kernel_matches_outer_product_reference(n, bath):
    gen = np.random.default_rng(n)
    if bath == "balanced":
        cfg = SpinBathConfig.balanced(gen.uniform(0.0, 1.0, n))
    elif bath == "random":
        cfg = SpinBathConfig.random(n, gen)
    else:
        cfg = _mixed_bath(n, gen)
    times = [
        0.7,
        np.float64(3.1),
        np.array(5.3),
        np.linspace(0.0, 20.0, 301),
        gen.uniform(0.0, 20.0, size=(7, 11)),
    ]
    for t in times:
        got, want = decoherence_factor(cfg, t), _outer_product_r(cfg, t)
        if np.ndim(t) == 0:
            assert type(got) is complex
        else:
            assert got.dtype == complex and got.shape == np.shape(t)
        if bath == "balanced":
            # the same cosines multiplied in the same order; the sign of the
            # zero imaginary part is not compared
            np.testing.assert_array_equal(np.real(got), np.real(want))
            np.testing.assert_array_equal(np.imag(got), 0.0)
            np.testing.assert_array_equal(np.imag(want), 0.0)
        else:
            assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13


def test_decoherence_factor_matches_oracle():
    for _ in range(8):
        cfg = SpinBathConfig.random(int(rng.integers(1, 9)), rng)
        if abs(cfg.a) < 1e-3 or abs(cfg.b) < 1e-3:
            continue
        t = float(rng.uniform(0.0, 25.0))
        assert abs(decoherence_factor(cfg, t) - oracle_r(cfg, t)) < 1e-10


# ------------------------------------------------------------ branches


def test_environment_branch_at_zero_time():
    cfg = SpinBathConfig.random(4, rng)
    for branch in ("up", "down"):
        out = environment_branch(cfg, 0.0, branch)
        want = np.array([1.0], dtype=complex)
        for ak, bk in zip(cfg.alpha, cfg.beta):
            want = np.kron(want, [ak, bk])
        np.testing.assert_allclose(out.amps, want, atol=1e-14)


def test_environment_branch_overlap_is_decoherence_factor():
    cfg = SpinBathConfig.random(6, rng)
    for t in (0.3, 1.7, 9.2):
        up = environment_branch(cfg, t, "up")
        down = environment_branch(cfg, t, "down")
        # off-diagonal of the reduced qubit state carries <E_down|E_up>
        assert abs(down.overlap(up) - decoherence_factor(cfg, t)) < 1e-13


def test_environment_branch_rejects_unknown_label():
    cfg = SpinBathConfig.balanced([0.5])
    with pytest.raises(ValueError):
        environment_branch(cfg, 1.0, "sideways")


def test_reduced_state_matches_explicit_joint_evolution():
    cfg = SpinBathConfig.random(5, rng)
    for t in (0.0, 0.9, 4.2):
        rho = reduced_state_A(cfg, t)
        up = environment_branch(cfg, t, "up")
        down = environment_branch(cfg, t, "down")
        joint = cfg.a * np.kron([1, 0], up.amps) + cfg.b * np.kron([0, 1], down.amps)
        resh = joint.reshape(2, -1)
        want = resh @ resh.conj().T
        np.testing.assert_allclose(rho.mat, want, atol=1e-13)


def test_reduced_state_entries_closed_form():
    cfg = SpinBathConfig.random(4, rng)
    t = 2.6
    rho = reduced_state_A(cfg, t)
    r = decoherence_factor(cfg, t)
    assert abs(rho.mat[0, 0] - abs(cfg.a) ** 2) < 1e-13
    assert abs(rho.mat[1, 1] - abs(cfg.b) ** 2) < 1e-13
    assert abs(rho.mat[0, 1] - cfg.a * np.conj(cfg.b) * r) < 1e-13


# ------------------------------------------------------------ traces


def test_trace_validation():
    with pytest.raises(ValueError):
        DecoherenceTrace(np.array([0.5, 1.0]), np.array([1.0, 0.5 + 0j]))
    with pytest.raises(ValueError):
        DecoherenceTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0 + 0j]))
    with pytest.raises(ValueError):
        DecoherenceTrace(np.array([0.0, 1.0]), np.array([0.9, 0.5 + 0j]))


def test_time_averaged_r2_single_balanced_spin():
    # average of cos^2(2 g t) over many periods approaches 1/2
    cfg = SpinBathConfig.balanced([0.7])
    t = np.linspace(0.0, 300.0, 40001)
    assert time_averaged_r2(cfg, t) == pytest.approx(0.5, rel=0.05)


def test_time_averaged_r2_eigenstate_is_one():
    cfg = SpinBathConfig(0.6, 0.8, [0.3, 0.9], [1.0, 1.0], [0.0, 0.0])
    t = np.linspace(0.0, 100.0, 5000)
    assert time_averaged_r2(cfg, t) == pytest.approx(1.0, abs=1e-12)


def test_time_averaged_r2_needs_enough_samples():
    cfg = SpinBathConfig.balanced([0.7])
    with pytest.raises(ValueError):
        time_averaged_r2(cfg, np.linspace(0.0, 10.0, 50))


# ------------------------------------------------------------ fits


def test_fit_recovers_synthetic_gaussian():
    # |r|^2 = e^{-4 t^2} means gamma = 2 exactly
    t = np.linspace(0.0, 1.5, 400)
    r = np.exp(-2.0 * t ** 2)  # |r|^2 = e^{-4 t^2}
    fit = fit_gaussian_decay(DecoherenceTrace(t, r.astype(complex)))
    assert fit.gamma == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_small_bath_returns_without_error():
    cfg = SpinBathConfig.balanced([0.6, 1.1])
    gamma0 = 2.0 * np.sqrt(np.dot(cfg.g, cfg.g))
    t = np.linspace(0.0, 6.0 / gamma0, 600)
    fit = fit_gaussian_decay(decoherence_trace(cfg, t))
    assert 0.0 <= fit.r_squared <= 1.0


def test_fit_requires_window():
    cfg = SpinBathConfig(0.6, 0.8, [0.5], [1.0], [0.0])  # |r| = 1 forever
    t = np.linspace(0.0, 10.0, 500)
    with pytest.raises(FitWindowError):
        fit_gaussian_decay(decoherence_trace(cfg, t))


# ------------------------------------------------------------ recurrences


def test_recurrence_integer_couplings():
    cfg = SpinBathConfig.balanced([1.0, 2.0, 3.0])
    intervals = recurrence_scan(cfg, 4.0, 0.01)
    assert any(lo <= np.pi <= hi for lo, hi in intervals)


def test_recurrence_intervals_match_run_by_run_reference():
    # |r| = |cos 2t cos 4t cos 6t| revives at every multiple of pi/2; the
    # horizon sits just past the third revival, so the last run is still open
    cfg = SpinBathConfig.balanced([1.0, 2.0, 3.0])
    horizon, eps, step = 1.5 * np.pi + 0.005, 0.01, 1e-3
    intervals = recurrence_scan(cfg, horizon, eps, step=step)
    t_grid = np.linspace(0.0, horizon, int(np.ceil(horizon / step)) + 1)
    above = np.abs(decoherence_factor(cfg, t_grid)) > 1.0 - eps
    want, run_start = [], None
    for i in range(int(np.argmin(above)), t_grid.size):
        if above[i] and run_start is None:
            run_start = i
        elif not above[i] and run_start is not None:
            want.append((float(t_grid[run_start]), float(t_grid[i - 1])))
            run_start = None
    if run_start is not None:
        want.append((float(t_grid[run_start]), float(t_grid[-1])))
    assert intervals == want
    assert len(intervals) == 3
    for k, (lo, hi) in enumerate(intervals, start=1):
        assert lo <= k * np.pi / 2 <= hi
    assert intervals[-1][1] == horizon


def test_recurrence_eigenstate_never_departs():
    cfg = SpinBathConfig(0.6, 0.8, [0.4, 1.3], [0.0, 0.0], [1.0, 1.0])
    assert recurrence_scan(cfg, 25.0, 0.05) == [(0.0, 25.0)]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_recurrence_rejects_couplings_whose_squares_overflow():
    # sum g^2 = inf would leave a zero step and an unbounded grid
    cfg = SpinBathConfig.balanced([1e200])
    with pytest.raises(ValueError, match="scan step"):
        recurrence_scan(cfg, 1.0, 0.01)


def test_recurrence_validation():
    cfg = SpinBathConfig.balanced([1.0])
    with pytest.raises(ValueError):
        recurrence_scan(cfg, 10.0, 0.7)
    with pytest.raises(ValueError):
        recurrence_scan(cfg, -1.0, 0.01)
    with pytest.raises(ValueError):
        recurrence_scan(cfg, 10.0, 0.01, step=5.0)
