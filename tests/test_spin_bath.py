import re
import tracemalloc

import numpy as np
import pytest

from conftest import traced_peak
from decolab import spin_bath, states
from decolab.oracle import oracle_r
from decolab.spin_bath import (
    DecoherenceTrace,
    FitWindowError,
    SpinBathConfig,
    decoherence_factor,
    decoherence_on_grid,
    decoherence_trace,
    environment_branch,
    fit_gaussian_decay,
    recurrence_scan,
    reduced_state_A,
    time_averaged_r2,
)
from decolab.states import DIM_CAP, DimensionCapError

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


def _spin_loop_r(cfg, t):
    """r(t) spin by spin, one accumulator per time: the per-time kernel that
    ``decoherence_factor`` replaced, kept as its bit-for-bit reference."""
    t_arr = np.asarray(t, dtype=float)
    two_t = 2.0 * t_arr
    weight = np.abs(cfg.alpha) ** 2 - np.abs(cfg.beta) ** 2
    phase = np.empty(t_arr.shape)
    factor = np.empty(t_arr.shape, dtype=complex)
    real = np.ones(t_arr.shape)
    r = np.ones(t_arr.shape, dtype=complex)
    for g_k, w_k in zip(cfg.g.tolist(), weight.tolist()):
        np.multiply(two_t, g_k, out=phase)
        if w_k == 0.0:
            real *= np.cos(phase, out=phase)
        else:
            np.cos(phase, out=factor.real)
            np.sin(phase, out=factor.imag)
            factor.imag *= w_k
            r *= factor
    r *= real
    if np.isscalar(t) or t_arr.ndim == 0:
        return complex(r)
    return r


def _bath(kind, n, gen):
    if kind == "balanced":
        return SpinBathConfig.balanced(gen.uniform(0.0, 1.0, n))
    if kind == "random":
        return SpinBathConfig.random(n, gen)
    return _mixed_bath(n, gen)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("bath", ["balanced", "random", "mixed"])
def test_decoherence_factor_equals_the_spin_loop_bit_for_bit(n, bath):
    gen = np.random.default_rng(n + 101)
    cfg = _bath(bath, n, gen)
    times = [
        0.7,
        -2.9,
        0.0,
        -0.0,
        np.float64(3.1),
        np.array(-5.3),
        np.array(-0.0),
        np.linspace(0.0, 20.0, 301),
        np.array([0.0, -0.0, 5e-324, -1e-310, 1e5, -1e5]),
        gen.uniform(-20.0, 20.0, size=(7, 11)),
        gen.uniform(-20.0, 20.0, size=(3, 4)).T,   # not contiguous
        gen.uniform(-50.0, 50.0, size=9000),        # several tiles of times
        np.zeros(0),
    ]
    for t in times:
        got, want = decoherence_factor(cfg, t), _spin_loop_r(cfg, t)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) == np.shape(t)
        assert np.asarray(got).dtype == complex
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), t


@pytest.mark.parametrize("n, count", [(10, 1 << 18), (40, 10 ** 6)])
def test_decoherence_factor_holds_less_than_the_spin_loop(n, count):
    # 24 bytes per time plus one tile, where the loop held 56
    cfg = SpinBathConfig.balanced(np.random.default_rng(n).uniform(0.0, 1.0, n))
    t = np.linspace(0.0, 50.0, count)
    assert traced_peak(decoherence_factor, cfg, t) < traced_peak(_spin_loop_r, cfg, t)


@pytest.mark.parametrize("n, count", [(1, 1), (20, 20), (13, 401), (200, 2000), (6, 2000)])
@pytest.mark.parametrize("bath", ["balanced", "random", "mixed"])
def test_decoherence_factor_small_calls_exceed_the_spin_loop_by_at_most_a_tile(n, count, bath):
    cfg = _bath(bath, n, np.random.default_rng(count))
    t = np.linspace(0.0, 10.0, count)
    extra = traced_peak(decoherence_factor, cfg, t) - traced_peak(_spin_loop_r, cfg, t)
    assert extra <= 1 << 20


@pytest.mark.parametrize("n", [1, 13, 40, 200])
@pytest.mark.parametrize("bath", ["balanced", "random", "mixed"])
def test_grid_evaluator_matches_decoherence_factor_to_phase_rounding(n, bath):
    gen = np.random.default_rng(n + 7)
    if bath == "balanced":
        cfg = SpinBathConfig.balanced(gen.uniform(0.0, 1.0, n))
    elif bath == "random":
        cfg = SpinBathConfig.random(n, gen)
    else:
        cfg = _mixed_bath(n, gen)
    eps = np.finfo(float).eps
    span = 400.0 / cfg.g.min()  # the scaling section's grid
    for samples in (2, 63, 64, 65, 1201, 200001):
        # the longest grid only at the span, the case with the largest phases
        for t_max in (span,) if samples == 200001 else (1.0, span):
            t, step = np.linspace(0.0, t_max, samples, retstep=True)
            got = decoherence_on_grid(cfg, t)
            want = decoherence_factor(cfg, t)
            assert got.dtype == complex and got.shape == (samples,)
            assert got[0] == 1.0
            assert np.max(np.abs(got)) <= 1.0 + 1e-12
            # Both round each phase when t_j = j h and 2 g t are formed, the
            # grid also A and B apart: at most about 2 eps |2 g t| between
            # them, plus a few eps from cos, sin and the angle addition.  Every
            # factor has modulus <= 1, so the products differ by at most the
            # sum of the N factor differences.
            bound = 4 * n * eps * (1.0 + 2.0 * cfg.g.max() * t_max)
            assert np.max(np.abs(got - want)) <= bound
            # where B = 0 or A = 0 the factors are decoherence_factor's own,
            # multiplied in its order (linspace's last point is t_max itself,
            # not (samples - 1) * step)
            exact = np.r_[0 : min(samples, 64), 0:samples:64]
            exact = exact[t[exact] == exact * step]
            assert got[exact].tobytes() == want[exact].tobytes()
            # a prefix of the linspace grid is the start of it, bit for bit
            count = samples // 3 + 1
            assert decoherence_on_grid(cfg, t[:count]).tobytes() == got[:count].tobytes()


@pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf])
def test_grid_evaluator_rejects_a_bad_step(step):
    with pytest.raises(ValueError, match="t_grid must be finite"):
        decoherence_on_grid(SpinBathConfig.balanced([0.5]), [0.0, step, 2.0 * step])


@pytest.mark.parametrize("step, count", [(1e308, 3), (1e308, 2), (5e307, 3)])
def test_grid_evaluator_rejects_a_phase_that_overflows(step, count):
    # (count - 1) step or 2 g t is inf, where cos and sin would give NaN
    with np.errstate(over="ignore"):
        t_grid = np.arange(count) * step
    message = "t_grid: the phase" if np.isfinite(t_grid).all() else "t_grid must be finite"
    with np.errstate(over="raise"), pytest.raises(ValueError, match=message):
        decoherence_on_grid(SpinBathConfig.balanced([0.5, 1.0]), t_grid)


def test_grid_evaluator_rejects_an_empty_grid():
    for t_grid in ([], np.empty((0, 3))):
        with pytest.raises(ValueError, match="t_grid: empty time grid"):
            decoherence_on_grid(SpinBathConfig.balanced([0.5]), t_grid)


def test_grid_functions_take_the_grid_evaluator_on_uniform_grids_only(monkeypatch):
    # the grid entry alone picks the kernel's offsets: a block of 64 on a
    # linspace grid or a prefix of one, the single offset 0 on any other
    widths = []
    product = spin_bath._product

    def spy(cfg, t_anchor, t_offset):
        widths.append(t_offset.size)
        return product(cfg, t_anchor, t_offset)

    monkeypatch.setattr(spin_bath, "_product", spy)
    cfg = _mixed_bath(9, np.random.default_rng(4))
    t = np.linspace(0.0, 30.0, 700)
    on_grid = decoherence_on_grid(cfg, t)
    assert decoherence_trace(cfg, t).r.tobytes() == on_grid.tobytes()
    assert decoherence_trace(cfg, t[:300]).r.tobytes() == on_grid[:300].tobytes()
    assert time_averaged_r2(cfg, t) == float(np.mean(np.abs(on_grid) ** 2))
    assert widths == [64] * 4
    for other in (t[1:] - t[1], np.sqrt(t * 30.0), np.r_[t[:-1], 30.5]):
        widths.clear()
        want = decoherence_factor(cfg, other)
        assert decoherence_on_grid(cfg, other).tobytes() == want.tobytes()
        assert decoherence_trace(cfg, other).r.tobytes() == want.tobytes()
        assert time_averaged_r2(cfg, other) == float(np.mean(np.abs(want) ** 2))
        assert widths == [1] * 4


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


def test_environment_branch_cap_is_dim_cap():
    # 2^15 amplitudes is DIM_CAP itself; one spin more is over it
    assert environment_branch(SpinBathConfig.balanced(np.ones(15)), 0.5).dim == DIM_CAP
    with pytest.raises(DimensionCapError, match="dense cap"):
        environment_branch(SpinBathConfig.balanced(np.ones(16)), 0.5)


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


NAN = float("nan")
NAN_INPUTS = {
    "qubit-a": lambda: SpinBathConfig(NAN, 0.8, [0.5], [1.0], [0.0]),
    "qubit-b": lambda: SpinBathConfig(0.6, complex(0.0, NAN), [0.5], [1.0], [0.0]),
    "spin-alpha": lambda: SpinBathConfig(0.6, 0.8, [0.5, 0.5], [1.0, NAN], [0.0, 0.0]),
    "spin-beta": lambda: SpinBathConfig(0.6, 0.8, [0.5, 0.5], [1.0, 0.0], [0.0, NAN]),
    "trace-r0": lambda: DecoherenceTrace([0.0, 1.0], [NAN, 0.5]),
    "trace-r": lambda: DecoherenceTrace([0.0, 1.0], [1.0, NAN]),
    "trace-t": lambda: DecoherenceTrace([0.0, NAN], [1.0, 0.5]),
}


@pytest.mark.parametrize("build", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_validators_reject_nan(build):
    with pytest.raises(ValueError):
        build()


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


def test_recurrence_scan_evaluates_every_chunk_by_angle_addition(monkeypatch):
    # a grid of two chunks: every chunk takes the kernel's 64 offsets, and no
    # time reaches the arbitrary-time path
    def refuse(*args, **kwargs):
        raise AssertionError("the scan took the arbitrary-time path")

    calls = []
    product = spin_bath._product

    def spy(cfg, t_anchor, t_offset):
        calls.append((t_anchor.size, t_offset.size))
        return product(cfg, t_anchor, t_offset)

    monkeypatch.setattr(spin_bath, "decoherence_factor", refuse)
    monkeypatch.setattr(spin_bath, "_product", spy)
    cfg = SpinBathConfig.balanced([0.3, 0.5, 0.7, 0.9])
    intervals = recurrence_scan(cfg, 15000.0, 0.01)
    assert intervals
    n_pts = sum(rows * width for rows, width in calls)
    chunk = spin_bath._slice_size(32)
    chunks = -(-n_pts // chunk)
    assert chunks > 1
    assert [width for _, width in calls] == [64] * chunks
    assert [rows for rows, _ in calls[:-1]] == [chunk // 64] * (chunks - 1)


@pytest.mark.parametrize("bath", ["balanced", "random", "mixed"])
def test_recurrence_intervals_do_not_depend_on_the_chunk_size(monkeypatch, bath):
    # integer couplings revive at every multiple of pi/2 whatever the spins'
    # amplitudes; 128-point chunks split the grid into 79, the last of 17
    gen = np.random.default_rng(29)
    n = 3 if bath == "balanced" else 8
    g = np.arange(1.0, n + 1.0)
    if bath == "balanced":
        cfg = SpinBathConfig.balanced(g)
    else:
        base = SpinBathConfig.random(n, gen) if bath == "random" else _mixed_bath(n, gen)
        cfg = SpinBathConfig(base.a, base.b, g, base.alpha, base.beta)
    horizon, eps, step = 10.0, 0.01, 1e-3
    n_pts = int(np.ceil(horizon / step)) + 1
    assert n_pts > 128 and 0 < n_pts % 128 < 64
    whole = recurrence_scan(cfg, horizon, eps, step=step)
    monkeypatch.setattr(states, "_BLOCK_BYTES", 128 * 32)  # 128-point chunks
    assert recurrence_scan(cfg, horizon, eps, step=step) == whole
    assert len(whole) >= 6


def _whole_grid_scan(cfg, horizon, eps, step):
    """The scan over the whole grid at once, its t_grid and ``above`` arrays
    held whole, kept as a reference."""
    n_pts = int(np.ceil(horizon / step)) + 1
    t_grid = np.linspace(0.0, float(horizon), n_pts)
    above = np.abs(decoherence_on_grid(cfg, t_grid)) > 1.0 - eps
    departed = np.nonzero(~above)[0]
    if departed.size == 0:
        return [(0.0, float(horizon))]
    above[: departed[0]] = False
    edges = np.diff(np.concatenate(([False], above, [False])).astype(np.int8))
    enters = np.nonzero(edges == 1)[0]
    exits = np.nonzero(edges == -1)[0] - 1
    return [(float(t_grid[i]), float(t_grid[j])) for i, j in zip(enters, exits)]


def _commensurate_bath(kind):
    # couplings 0.1 x odd numbers: |r| returns to 1 near every multiple of
    # 5 pi whatever the spins' amplitudes
    g = [0.3, 0.5, 0.7, 0.9]
    if kind == "balanced":
        return SpinBathConfig.balanced(g)
    if kind == "eigenstate":
        return SpinBathConfig(0.6, 0.8, g, [1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0])
    base = _bath(kind, 4, np.random.default_rng(41))
    return SpinBathConfig(base.a, base.b, g, base.alpha, base.beta)


@pytest.mark.parametrize("chunk", [64, 128, None], ids=["64", "128", "default"])
@pytest.mark.parametrize("bath", ["balanced", "random", "mixed", "eigenstate"])
@pytest.mark.parametrize("horizon, eps, step", [
    (100.0, 0.01, None),  # six closed revivals over 1 812 points
    (31.42, 0.01, 2.5e-4),  # |r| leaves the band past 128 points; the last run is open
    (47.2, 0.05, 2e-3),  # wider windows, the last run open at the horizon
])
def test_streamed_scan_equals_the_whole_grid_scan(monkeypatch, chunk, bath, horizon, eps, step):
    cfg = _commensurate_bath(bath)
    if chunk is not None:
        monkeypatch.setattr(states, "_BLOCK_BYTES", chunk * 32)  # chunks of `chunk` points
    got = recurrence_scan(cfg, horizon, eps, step=step)
    if step is None:
        step = spin_bath._scan_step(float(np.max(cfg.g)), float(np.dot(cfg.g, cfg.g)), eps)
    want = _whole_grid_scan(cfg, horizon, eps, step)
    assert got == want
    if bath == "eigenstate":
        assert got == [(0.0, horizon)]
    else:
        assert len(got) >= 2


def _scan_peak(cfg, horizon):
    """The scan's tracemalloc peak beyond the list of intervals it returns."""
    tracemalloc.start()
    try:
        intervals = recurrence_scan(cfg, horizon, 0.01)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return len(intervals), peak - held


def test_recurrence_scan_memory_does_not_grow_with_the_horizon():
    # 2.7e5 grid points (one full chunk) against 1.81e7 (70 chunks and
    # 63 661 intervals); the whole-grid scan held 19-21 bytes per point
    cfg = SpinBathConfig.balanced([0.3, 0.5, 0.7, 0.9])
    short, small = _scan_peak(cfg, 1.5e4)
    long, large = _scan_peak(cfg, 1e6)
    assert (short, long) == (954, 63661)
    # what a chunk's reduction keeps while the next chunk is evaluated
    assert large <= small + (1 << 20)


def test_slices_check_the_whole_grid_before_the_first_slice():
    # only the last slice's phase overflows: the walker raises when called,
    # before any slice is evaluated or a caller opens a file for them
    cfg = SpinBathConfig.balanced([0.5, 1.0])
    evaluated = []
    with np.errstate(over="ignore"):
        for grid in (np.arange(3 * 64) * 6e305, np.r_[np.zeros(129), 1e308]):
            with pytest.raises(ValueError, match="t_grid: the phase 2 g t overflows"):
                evaluated += spin_bath._slices(cfg, grid, 64, "t_grid")
            with pytest.raises(ValueError, match="t_grid: the phase 2 g t overflows"):
                decoherence_on_grid(cfg, grid)
    assert evaluated == []
    with pytest.raises(ValueError, match="t_grid: empty time grid"):
        spin_bath._slices(cfg, [], 64, "t_grid")
    with pytest.raises(ValueError, match="horizon: the phase 2 g t overflows"):
        spin_bath._slices(cfg, 3, 64, "horizon", step=1e308)


def test_phase_is_checked_once_per_call(monkeypatch):
    # the walker checks a grid before its first slice and decoherence_factor
    # its own times; the kernel checks nothing again, slice by slice
    checks = []
    real = spin_bath._check_phase

    def spy(cfg, times, name):
        checks.append(name)
        return real(cfg, times, name)

    monkeypatch.setattr(spin_bath, "_check_phase", spy)
    cfg = _mixed_bath(5, np.random.default_rng(8))
    uniform = np.linspace(0.0, 40.0, 3 * spin_bath._slice_size(64) + 5)
    for t_grid in (uniform, np.sqrt(uniform * 40.0)):
        time_averaged_r2(cfg, t_grid)
        decoherence_on_grid(cfg, t_grid)
    decoherence_factor(cfg, uniform)
    recurrence_scan(SpinBathConfig.balanced([0.3, 0.5, 0.7, 0.9]), 15000.0, 0.01)
    assert checks == ["t_grid"] * 4 + ["t", "horizon"]


def _whole_grid_step(t_grid):
    # the uniform-grid test on a whole copy of the grid, kept as a reference
    n = t_grid.size
    if n < 2 or t_grid[0] != 0.0 or not t_grid[1] > 0.0:
        return None
    step = float(t_grid[1])
    uniform = np.arange(n, dtype=float) * step
    if t_grid[-1] / (n - 1) == step:
        uniform[-1] = t_grid[-1]
    return step if np.array_equal(uniform, t_grid) else None


@pytest.mark.parametrize("slices", [0, 1, 3])
@pytest.mark.parametrize("extra", [2, 17, 64])
def test_grid_step_compared_in_slices_decides_as_the_whole_grid(slices, extra):
    samples = slices * states._block_items(8) + extra  # compared 8 bytes a point
    for t_max in (1.0, 9.0, 1e-3 / 3.0, 123.456):
        grid = np.linspace(0.0, t_max, samples)
        assert spin_bath._grid_step(grid) == _whole_grid_step(grid) is not None
        # one point off its j h, in the first, a middle or the last slice
        for j in {1, samples // 2, samples - 2, samples - 1} - {0}:
            bent = grid.copy()
            bent[j] = np.nextafter(bent[j], np.inf)
            assert spin_bath._grid_step(bent) == _whole_grid_step(bent)
            assert spin_bath._grid_step(bent) is None or j == samples - 1


@pytest.mark.parametrize("size", [64, 128, 4096])
@pytest.mark.parametrize("bath", ["balanced", "random", "mixed"])
def test_slices_are_the_whole_grid_bit_for_bit(size, bath):
    cfg = _bath(bath, 9, np.random.default_rng(17))
    uniform = np.linspace(0.0, 25.0, 3 * 4096 + 17)
    other = np.sqrt(uniform * 25.0)
    for grid in (uniform, other):
        whole = decoherence_on_grid(cfg, grid)
        starts, parts = zip(*spin_bath._slices(cfg, grid, size, "t_grid"))
        assert list(starts) == list(range(0, grid.size, size))
        assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("bath", ["balanced", "random", "mixed"])
def test_time_averaged_r2_equals_the_whole_grid_mean_bit_for_bit(bath):
    cfg = _bath(bath, 12, np.random.default_rng(23))
    for samples in (100, 4097, spin_bath._slice_size(64) + 1, 200001):
        for t_grid in (np.linspace(0.0, 300.0, samples), np.geomspace(1e-3, 300.0, samples)):
            want = float(np.mean(np.abs(decoherence_on_grid(cfg, t_grid)) ** 2))
            assert time_averaged_r2(cfg, t_grid) == want


def test_time_averaged_r2_holds_one_float_per_sample_and_one_slice():
    # the grid is the caller's; the mean holds |r|^2 (8 bytes a sample),
    # one slice of r with its temporaries and the kernel's tiles, where the
    # whole-grid mean held about 40 bytes a sample
    cfg = SpinBathConfig.balanced(np.random.default_rng(5).uniform(0.0, 1.0, 14))
    samples = 200001
    t_grid = np.linspace(0.0, 400.0 / cfg.g.min(), samples)
    peak = traced_peak(time_averaged_r2, cfg, t_grid)
    assert peak < 2 * 8 * samples + 64 * spin_bath._slice_size(64) + 32 * spin_bath._GRID_ENTRIES


def test_recurrence_eigenstate_never_departs():
    cfg = SpinBathConfig(0.6, 0.8, [0.4, 1.3], [0.0, 0.0], [1.0, 1.0])
    assert recurrence_scan(cfg, 25.0, 0.05) == [(0.0, 25.0)]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_recurrence_rejects_couplings_whose_squares_overflow():
    # sum g^2 = inf would leave a zero step and an unbounded grid
    cfg = SpinBathConfig.balanced([1e200])
    with pytest.raises(ValueError, match="scan step"):
        recurrence_scan(cfg, 1.0, 0.01)


def test_recurrence_rejects_couplings_whose_squares_underflow():
    # sum g^2 = 0 while max |g| > 0 once divided the window by zero
    with pytest.raises(ValueError, match="couplings"):
        recurrence_scan(SpinBathConfig.balanced([1e-300]), 10.0, 0.01)


def test_recurrence_validation():
    cfg = SpinBathConfig.balanced([1.0])
    with pytest.raises(ValueError):
        recurrence_scan(cfg, 10.0, 0.7)
    with pytest.raises(ValueError):
        recurrence_scan(cfg, -1.0, 0.01)
    with pytest.raises(ValueError):
        recurrence_scan(cfg, 10.0, 0.01, step=5.0)


@pytest.mark.parametrize("horizon", [float("inf"), 1e308])
def test_recurrence_horizon_that_overflows_the_grid_names_horizon(horizon):
    # 1e308 is finite, but horizon / step overflows to inf
    with pytest.raises(ValueError, match="horizon"):
        recurrence_scan(SpinBathConfig.balanced([0.5, 0.7]), horizon, 0.01)


@pytest.mark.parametrize("horizon", [1e18, 1e300])
def test_recurrence_grid_past_one_array_names_horizon_and_points(horizon, monkeypatch):
    # finite horizon / step, but more points than one float array can hold:
    # rejected by name before np.linspace is reached
    def no_grid(*args, **kwargs):
        raise AssertionError("the scan grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    cfg = SpinBathConfig.balanced([0.5, 0.7])
    with pytest.raises(ValueError, match=re.escape(f"horizon {horizon:g} needs ")) as err:
        recurrence_scan(cfg, horizon, 0.01)
    points = float(str(err.value).split()[3])
    step = min(np.pi / (20 * 0.7), np.sqrt(0.01 / (2 * (0.5 ** 2 + 0.7 ** 2))))
    assert points == pytest.approx(horizon / step, rel=1e-3)


def test_environment_branch_equals_the_spin_loop_byte_for_byte():
    # reference: the spin-by-spin Kronecker loop, each pair from numpy scalars
    for cfg in (SpinBathConfig.random(7, rng), SpinBathConfig.balanced(rng.uniform(0, 1, 5))):
        for t, branch in ((0.0, "up"), (1.3, "up"), (2.9, "down")):
            sign = 1.0 if branch == "up" else -1.0
            phases = np.exp(1j * sign * cfg.g * t)
            want = np.ones(1, dtype=complex)
            for alpha_k, beta_k, ph in zip(cfg.alpha, cfg.beta, phases):
                want = np.kron(want, np.array([alpha_k * ph, beta_k * np.conj(ph)]))
            assert environment_branch(cfg, t, branch).amps.tobytes() == want.tobytes()
