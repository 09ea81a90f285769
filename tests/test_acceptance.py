"""End-to-end acceptance gate.

Each test exercises one shipped guarantee at its stated tolerance and appends
one PASS/FAIL line to the summary block printed after the run.
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import run_cli
from decolab.fock import (
    FockSpace,
    coherent_measurement_set,
    coherent_state,
    ehrenfest_check,
    photon_counting_set,
    polar_grid,
)
from decolab.measurement import (
    ImpossibleOutcomeError,
    KrausSet,
    Projector,
    born_probability,
    kraus_update,
    luders_update,
    sample_outcomes,
)
from decolab.oracle import oracle_r
from decolab.pointer import (
    ApparatusModel,
    TriConfig,
    apparatus_reduced_state,
    basis_correlation_decay,
    predictability_sieve,
    tridecompose_state,
)
from decolab.spin_bath import (
    SpinBathConfig,
    decoherence_factor,
    decoherence_trace,
    fit_gaussian_decay,
    recurrence_scan,
    time_averaged_r2,
)
from decolab.states import (
    BasisSpec,
    DensityMatrix,
    StateVector,
    offdiag_norm,
    reduced_density,
)

Z_BASIS = BasisSpec(0, np.eye(2))
X_BASIS = BasisSpec(0, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def _record(criterion_log, num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    criterion_log.append(f"criterion {num:02d} {name:<26s} {status}  ({detail})")
    return ok


def random_density(dim, rng):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return DensityMatrix((dim,), mat / np.trace(mat))


def test_criterion_01_oracle_equivalence(criterion_log):
    start = time.perf_counter()
    gen = np.random.default_rng(101)
    worst = 0.0
    done = 0
    while done < 100:
        n = int(gen.integers(2, 13))
        cfg = SpinBathConfig.random(n, gen)
        if abs(cfg.a) < 1e-3 or abs(cfg.b) < 1e-3:
            continue
        done += 1
        for t in gen.uniform(0.0, 25.0, 20):
            dev = abs(decoherence_factor(cfg, float(t)) - oracle_r(cfg, float(t)))
            worst = max(worst, float(dev))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 60.0
    _record(
        criterion_log, 1, "closed form vs oracle", ok,
        f"worst dev {worst:.2e} over 100 configs, {elapsed:.1f}s",
    )
    assert worst < 1e-10
    assert elapsed < 60.0


def test_criterion_02_inverse_power_scaling(criterion_log):
    start = time.perf_counter()
    gen = np.random.default_rng(202)
    devs = {}
    for n in (4, 6, 8, 10, 12):
        g = gen.uniform(0.0, 1.0, n)
        cfg = SpinBathConfig.balanced(g)
        horizon = max(6e4, 400.0 / float(g.min()))
        mean = time_averaged_r2(cfg, np.linspace(0.0, horizon, 400001))
        devs[n] = abs(math.log2(mean) + n)
    elapsed = time.perf_counter() - start
    worst = max(devs.values())
    ok = worst <= 0.2 and elapsed < 30.0
    _record(
        criterion_log, 2, "long-time 2^-N scaling", ok,
        f"worst log2 dev {worst:.3f} for N in 4..12, {elapsed:.1f}s",
    )
    assert worst <= 0.2
    assert elapsed < 30.0


def test_criterion_03_gaussian_decay(criterion_log):
    good = 0
    worst = 1.0
    for child in np.random.SeedSequence(303).spawn(20):
        g = np.random.default_rng(child).uniform(0.0, 1.0, 50)
        cfg = SpinBathConfig.balanced(g)
        gamma0 = 2.0 * math.sqrt(float(g @ g))
        t = np.linspace(0.0, 5.0 / gamma0, 1200)
        fit = fit_gaussian_decay(decoherence_trace(cfg, t))
        good += fit.r_squared >= 0.99
        worst = min(worst, fit.r_squared)
    ok = good >= 18
    _record(
        criterion_log, 3, "Gaussian decay at N=50", ok,
        f"{good}/20 seeds with r_squared >= 0.99 (worst {worst:.4f})",
    )
    assert good >= 18


def test_criterion_04_eigenstate_no_decay(criterion_log):
    t = np.linspace(0.0, 100.0, 20001)
    worst = 0.0
    for n, up_mask in ((8, np.ones(8)), (6, np.array([1, 0, 1, 1, 0, 1]))):
        alpha = up_mask.astype(complex)
        beta = (1 - up_mask).astype(complex)
        cfg = SpinBathConfig(0.6, 0.8, np.linspace(0.2, 1.3, n), alpha, beta)
        r = decoherence_factor(cfg, t)
        worst = max(worst, float(np.max(np.abs(np.abs(r) - 1.0))))
    ok = worst < 1e-12
    _record(
        criterion_log, 4, "eigenstate keeps |r| = 1", ok,
        f"max ||r|-1| = {worst:.2e} on 20001 samples",
    )
    assert worst < 1e-12


def test_criterion_05_recurrences(criterion_log):
    cfg = SpinBathConfig.balanced([1.0, 2.0, 3.0])
    eps = 0.01
    step = min(math.pi / (20.0 * 3.0), math.sqrt(eps / (2.0 * 14.0)))
    intervals = recurrence_scan(cfg, 4.0, eps)
    hit = any(lo - step <= math.pi <= hi + step for lo, hi in intervals)

    random_cfg = SpinBathConfig.random(20, np.random.default_rng(505))
    start = time.perf_counter()
    none_found = recurrence_scan(random_cfg, 1e3, eps)
    scan_s = time.perf_counter() - start
    ok = hit and none_found == []
    _record(
        criterion_log, 5, "recurrence detection", ok,
        f"pi revival within {step:.3f}; random N=20 over 1e3: "
        f"{len(none_found)} intervals, {scan_s:.2f}s",
    )
    assert hit
    assert none_found == []


def test_criterion_06_projective_update_semantics(criterion_log):
    rng = np.random.default_rng(606)
    idem_worst = 0.0
    comm_worst = 0.0
    for dim, rank in ((4, 2), (6, 3), (5, 4)):
        rho = random_density(dim, rng)
        proj = Projector.onto(np.eye(dim)[:, :rank])
        once = luders_update(rho, proj)
        twice = luders_update(once, proj)
        idem_worst = max(idem_worst, float(np.max(np.abs(once.mat - twice.mat))))
        sub = Projector.onto(np.eye(dim)[:, : rank - 1])
        want = born_probability(rho, sub) / born_probability(rho, proj)
        comm_worst = max(comm_worst, abs(born_probability(once, sub) - want))
    raised = False
    try:
        luders_update(
            StateVector((3,), [1.0, 0.0, 0.0]).density(),
            Projector.onto(np.eye(3)[:, 2:]),
        )
    except ImpossibleOutcomeError:
        raised = True
    ok = idem_worst < 1e-12 and comm_worst < 1e-10 and raised
    _record(
        criterion_log, 6, "projective update rules", ok,
        f"idempotence {idem_worst:.2e}, conditional ratio {comm_worst:.2e}, "
        f"impossible outcome raised: {raised}",
    )
    assert idem_worst < 1e-12
    assert comm_worst < 1e-10
    assert raised


def test_criterion_07_born_statistics(criterion_log):
    stats = pytest.importorskip("scipy.stats")
    gen = np.random.default_rng(707)
    p_min = 1.0
    for child in np.random.SeedSequence(708).spawn(10):
        raw = gen.normal(size=4)
        a, b = complex(raw[0], raw[1]), complex(raw[2], raw[3])
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        psi = StateVector((2,), [a / norm, b / norm])
        counts = sample_outcomes(psi, Z_BASIS, 10 ** 4, child)
        expected = 1e4 * np.abs(psi.amps) ** 2
        p_min = min(p_min, float(stats.chisquare(counts, f_exp=expected).pvalue))
    ok = p_min > 0.001
    _record(
        criterion_log, 7, "sampled Born frequencies", ok,
        f"10 amplitude pairs x 1e4 shots, min chi-square p = {p_min:.4f}",
    )
    assert p_min > 0.001


def test_criterion_08_measurement_completeness(criterion_log):
    counting_dev = photon_counting_set(FockSpace(10)).completeness_deviation()
    space = FockSpace(10)
    default_dev = coherent_measurement_set(space).completeness_deviation()
    radius = float(math.ceil(2.5 * math.sqrt(10)))
    ladder = [
        coherent_measurement_set(space, polar_grid(radius, n, n)).completeness_deviation()
        for n in (8, 16, 32)
    ]
    monotone = ladder[0] > ladder[1] > ladder[2]
    ok = counting_dev < 1e-14 and default_dev < 0.02 and monotone
    _record(
        criterion_log, 8, "POVM completeness", ok,
        f"counting {counting_dev:.1e}; coherent default {default_dev:.1e}; "
        f"doubling {ladder[0]:.1e} > {ladder[1]:.1e} > {ladder[2]:.1e}",
    )
    assert counting_dev < 1e-14
    assert default_dev < 0.02
    assert monotone


def test_criterion_09_photon_destruction(criterion_log):
    space = FockSpace(12)
    kset = photon_counting_set(space)
    worst = 1.0
    for n in (1, 4, 9):
        amps = np.zeros(space.dim)
        amps[n] = 1.0
        rec = kraus_update(StateVector((space.dim,), amps).density(), kset, n)
        worst = min(worst, float(rec.post_state.mat[0, 0].real), rec.probability)
    ok = worst > 1.0 - 1e-12
    _record(
        criterion_log, 9, "counting empties the mode", ok,
        f"vacuum fidelity and probability >= {worst:.15f}",
    )
    assert worst > 1.0 - 1e-12


def test_criterion_10_pointer_basis_stability(criterion_log):
    bath = SpinBathConfig.balanced(np.random.default_rng(1010).uniform(0.1, 1.0, 10))
    cfg = TriConfig(0.6, 0.8, bath)
    t_grid = np.linspace(0.0, 6.0, 61)
    scale = 2 * abs(cfg.a) * abs(cfg.b)
    r_abs = np.abs(decoherence_factor(bath, t_grid))
    full = BasisSpec(0, np.eye(4))
    offdiag_dev = max(
        abs(offdiag_norm(reduced_density(tridecompose_state(cfg, t), keep=(0, 1)), full)
            - scale * r)
        for t, r in zip(t_grid, r_abs)
    )
    flat = basis_correlation_decay(cfg, 0.0, t_grid)
    flat_dev = float(np.max(np.abs(flat - abs(cfg.a) * abs(cfg.b))))
    rotated = basis_correlation_decay(cfg, math.pi / 4, t_grid)
    track_dev = float(np.max(np.abs(rotated - abs(cfg.a) * abs(cfg.b) * r_abs)))
    ok = offdiag_dev < 1e-10 and flat_dev < 1e-8 and track_dev < 1e-8
    _record(
        criterion_log, 10, "pointer-basis stability", ok,
        f"joint coherence dev {offdiag_dev:.1e}; flat dev {flat_dev:.1e}; "
        f"rotated tracking dev {track_dev:.1e} at N=10",
    )
    assert offdiag_dev < 1e-10
    assert flat_dev < 1e-8
    assert track_dev < 1e-8


def test_criterion_11_sieve_ranking(criterion_log):
    bath = SpinBathConfig.balanced(np.random.default_rng(1111).uniform(0.1, 1.0, 8))
    cfg = TriConfig(1 / math.sqrt(2), 1 / math.sqrt(2), bath)
    t_grid = np.linspace(0.0, 8.0, 401)
    ranked = predictability_sieve([X_BASIS, Z_BASIS], cfg, t_grid)
    scores = {id(basis): score for basis, score in ranked}
    z_dev = abs(scores[id(Z_BASIS)] - 1.0)
    r2 = np.abs(decoherence_factor(bath, t_grid)) ** 2
    x_dev = abs(scores[id(X_BASIS)] - float(np.mean((1.0 + r2) / 2.0)))
    ordered = ranked[0][0] is Z_BASIS
    ok = ordered and z_dev < 1e-8 and x_dev < 1e-8
    _record(
        criterion_log, 11, "predictability sieve", ok,
        f"monitored basis first, score devs {z_dev:.1e} / {x_dev:.1e}",
    )
    assert ordered
    assert z_dev < 1e-8
    assert x_dev < 1e-8


def test_criterion_12_apparatus_diagonalization(criterion_log):
    c = np.array([0.5, 0.5j, math.sqrt(0.5)], dtype=complex)
    lam = 0.8
    rates = [0.5, 1.3]
    weights = [0.3, 0.7]
    pure = ApparatusModel(c, lambda i, j, t, m: 1.0 if i == j else math.exp(-lam * t))
    mixed = ApparatusModel(
        c,
        lambda i, j, t, m: 1.0 if i == j else math.exp(-rates[m] * t),
        weights,
    )
    worst = 0.0
    for t in np.linspace(0.0, 4.0, 41):
        k_pure = math.exp(-lam * t)
        k_mixed = sum(w * math.exp(-r * t) for w, r in zip(weights, rates))
        for model, k in ((pure, k_pure), (mixed, k_mixed)):
            rho = apparatus_reduced_state(model, float(t))
            for i in range(3):
                for j in range(3):
                    want = abs(c[i]) ** 2 if i == j else c[i] * np.conj(c[j]) * k
                    worst = max(worst, abs(rho.mat[i + 1, j + 1] - want))
    ok = worst < 1e-12
    _record(
        criterion_log, 12, "apparatus diagonalization", ok,
        f"max entry dev {worst:.2e} vs kernel closed form (pure + mixed)",
    )
    assert worst < 1e-12


def test_criterion_13_ehrenfest_relation(criterion_log):
    space = FockSpace(20)
    fine_grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    coarse_grid = np.arange(0.0, 1.0 + 1e-12, 2e-3)
    superpos = np.zeros(space.dim, dtype=complex)
    superpos[0] = superpos[2] = 1 / math.sqrt(2)
    states = {
        "coherent": coherent_state(space, 1.0),
        "superposition": StateVector((space.dim,), superpos),
    }
    residuals = {
        name: ehrenfest_check(space, psi, 1.0, 1.0, fine_grid).max_residual
        for name, psi in states.items()
    }
    coarse = ehrenfest_check(space, states["coherent"], 1.0, 1.0, coarse_grid)
    ratio = coarse.max_residual / residuals["coherent"]
    ok = max(residuals.values()) < 1e-5 and 3.5 <= ratio <= 4.5
    _record(
        criterion_log, 13, "Ehrenfest residual", ok,
        f"dt=1e-3 residuals {residuals['coherent']:.1e} / "
        f"{residuals['superposition']:.1e}; dt-halving ratio {ratio:.2f}",
    )
    assert max(residuals.values()) < 1e-5
    assert 3.5 <= ratio <= 4.5


DETERMINISM_CONFIGS = {
    "spin-bath": {
        "experiment": "spin-bath",
        "seed": 21,
        "trace": {"n_spins": 3, "t_max": 2.0, "samples": 21},
        "scaling": {"n_values": [3], "span_periods": 50, "samples": 20001},
        "gaussian_fit": {"n_spins": 20, "n_seeds": 2, "samples": 400},
        "recurrence": {"couplings": [1.0, 2.0], "horizon": 4.0, "epsilon": 0.02},
    },
    "measure": {
        "experiment": "measure",
        "seed": 22,
        "system": {"a": [0.6, 0.0], "b": [0.0, 0.8]},
        "shots": 1000,
    },
    "pointer": {
        "experiment": "pointer",
        "seed": 23,
        "branch_amplitudes": {"a": [0.6, 0.0], "b": [0.8, 0.0]},
        "environment": {"n_spins": 4},
        "correlation": {"thetas": [0.0, 0.5], "t_max": 3.0, "samples": 16},
        "sieve": {"t_max": 4.0, "samples": 101},
        "apparatus": {
            "amplitudes": [[0.6, 0.0], [0.8, 0.0]],
            "decay_rates": [0.7],
            "t_max": 2.0,
            "samples": 11,
        },
    },
    "fock": {
        "experiment": "fock",
        "n_max": 8,
        "counting": {"alpha": [0.8, 0.0]},
        "completeness": {"densities": [[8, 8]]},
        "ehrenfest": {"alpha": [0.3, 0.0], "t_max": 0.3, "dt": 0.005},
    },
    "oracle-compare": {
        "experiment": "oracle-compare",
        "seed": 25,
        "n_values": [2, 3],
        "trials": 2,
        "times_per_trial": 5,
    },
    "check": None,
}


def _dir_bytes_equal(d1, d2):
    names1 = sorted(os.listdir(d1))
    if names1 != sorted(os.listdir(d2)):
        return False
    return all(
        filecmp.cmp(os.path.join(d1, n), os.path.join(d2, n), shallow=False)
        for n in names1
    )


def test_criterion_14_cli_determinism(criterion_log, tmp_path):
    kraus_path = tmp_path / "z_readout.json"
    zset = KrausSet(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=["up", "down"]
    )
    with open(kraus_path, "w") as fh:
        json.dump(zset.to_dict(), fh)
    identical = {}
    for name, config in DETERMINISM_CONFIGS.items():
        base = ["check"] if config is None else [name]
        if config is not None:
            config = dict(config)
            if name == "measure":
                config["kraus_file"] = str(kraus_path)
            cfg_path = tmp_path / f"{name}.json"
            with open(cfg_path, "w") as fh:
                json.dump(config, fh)
            base += ["--config", str(cfg_path)]
        out1, out2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        first = run_cli(base + ["--out", str(out1), "--quiet"], cwd=tmp_path)
        second = run_cli(
            base + ["--out", str(out2), "--quiet", "--workers", "2"], cwd=tmp_path
        )
        assert first.returncode == 0, (name, first.stderr)
        assert second.returncode == 0, (name, second.stderr)
        identical[name] = _dir_bytes_equal(out1, out2)
    ok = all(identical.values())
    detail = "byte-identical reruns: " + ", ".join(
        f"{k}={'yes' if v else 'NO'}" for k, v in identical.items()
    )
    _record(criterion_log, 14, "reproducible artifacts", ok, detail)
    assert ok, identical
