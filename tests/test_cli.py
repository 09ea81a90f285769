import concurrent.futures
import csv
import functools
import importlib.util
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import README, README_CONFIGS, cli_env, run_cli, traced_peak
from decolab import cli
from decolab.cli import CONFIG_SCHEMAS, main
from decolab.measurement import KrausSet, povm_probabilities
from decolab.spin_bath import (
    FitWindowError,
    SpinBathConfig,
    decoherence_factor,
    decoherence_trace,
    fit_gaussian_decay,
)
from decolab.states import DIM_CAP

# trace.csv rows in one slice of the trace writer: one piece of its numbers
_TRACE_ROWS = cli.spin_bath._slice_size(4 * cli._CELL_BYTES)


def _filled(config):
    """``config`` with its schema defaults filled in, as ``main`` hands it to
    a runner."""
    return cli._with_defaults(config, CONFIG_SCHEMAS[config["experiment"]])


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def read_csv(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.strip())
            else:
                rows.append(line)
    return comments, list(csv.reader(rows))


SPIN_CFG = {
    "experiment": "spin-bath",
    "seed": 11,
    "trace": {"n_spins": 4, "t_max": 3.0, "samples": 31},
    "recurrence": {"couplings": [1.0, 2.0], "horizon": 4.0, "epsilon": 0.02},
}


# ------------------------------------------------------------ usage errors


def test_missing_config_is_usage_error(tmp_path):
    proc = run_cli(["spin-bath", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "config" in proc.stderr


def test_empty_config_object_is_usage_error(tmp_path):
    cfg = write_config(tmp_path / "c.json", {})
    proc = run_cli(["spin-bath", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2


def test_config_for_wrong_subcommand_is_usage_error(tmp_path):
    cfg = write_config(tmp_path / "c.json", SPIN_CFG)
    proc = run_cli(["measure", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2


def test_config_for_wrong_subcommand_names_both_experiments(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", SPIN_CFG)
    args = ["measure", "--config", cfg, "--out", str(tmp_path / "o")]
    assert "'spin-bath'" in _usage_error(capsys, args, "'measure'")


def test_unknown_config_key_is_usage_error(tmp_path):
    bad = dict(SPIN_CFG, typo_section={"x": 1})
    cfg = write_config(tmp_path / "c.json", bad)
    proc = run_cli(["spin-bath", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert "typo_section" in proc.stderr or "invalid" in proc.stderr


def test_malformed_env_seed_is_usage_error(tmp_path):
    cfg = write_config(tmp_path / "c.json", SPIN_CFG)
    proc = run_cli(
        ["spin-bath", "--config", cfg, "--out", str(tmp_path / "o")],
        env_extra={"DECOLAB_SEED": "not-a-number"},
    )
    assert proc.returncode == 2


def test_every_subcommand_has_a_schema():
    assert set(CONFIG_SCHEMAS) == {
        "spin-bath",
        "measure",
        "pointer",
        "fock",
        "oracle-compare",
        "check",
    }


def _usage_error(capsys, args, expected=""):
    """Run ``main`` in process: exit 2, one stderr line that holds ``expected``,
    and no directory left behind that the run had to create for ``--out``
    (its first missing ancestor stays missing); returns the line."""
    path = Path(args[args.index("--out") + 1]) if "--out" in args else None
    missing = None
    while path is not None and not os.path.lexists(path):
        missing, path = path, path.parent
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("decolab: ") and err.count("\n") == 1, err
    assert expected in err, err
    assert missing is None or not os.path.lexists(missing), sorted(os.listdir(missing))
    return err


def test_out_naming_an_existing_file_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", SPIN_CFG)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    _usage_error(capsys, ["spin-bath", "--config", cfg, "--out", str(taken)], "--out")
    assert taken.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("artifact", ["outcomes.csv", "premeasured_state.json"])
def test_artifact_that_cannot_be_written_is_usage_error(tmp_path, capsys, artifact):
    config = {"experiment": "measure", "system": {"a": [0.6, 0.0], "b": [0.8, 0.0]}, "shots": 10}
    cfg = write_config(tmp_path / "c.json", config)
    out = tmp_path / "o"
    (out / artifact).mkdir(parents=True)  # a directory where the file should go
    args = ["measure", "--config", cfg, "--out", str(out), "--quiet"]
    _usage_error(capsys, args, f"cannot write {out / artifact}: ")
    # outcomes.csv, written before premeasured_state.json failed, is removed;
    # the directory that was there before the run stays
    assert [p.name for p in out.iterdir()] == [artifact]


def test_config_nested_past_the_parser_is_not_valid_json(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    args = ["spin-bath", "--config", str(cfg), "--out", str(tmp_path / "o")]
    _usage_error(capsys, args, "config is not valid JSON")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kraus", [
    "[]",                                              # a list, not an object
    "[" * 100_000 + "]" * 100_000,                     # deeper than the parser goes
    '{"shape": 2, "operators": []}',                   # a number for the shape
    '{"shape": [1, 1], "operators": [[1.0, 0.0]]}',    # entries that are not pairs
    '{"shape": [2, 2], "labels": "ud", "operators": '  # a string for the labels
    '[[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]}',
    '{"shape": [2, 2], "completeness_tol": true, "operators": '  # true, not 1.0
    '[[[1, 0], [0, 0], [0, 0], [0, 0]], [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]}',
    '{"shape": [true, 2], "operators": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',  # true, not 1
    '{"shape": [2, 2], "operators": [[[true, 0], [0, 0], [0, 0], [0, 0]], '
    '[[0, 0], [0, 0], [0, 0], [1, 0]]]}',
    '{"operators": [[[1, 0]]]}',
    '{"shape": [1, 1]}',
], ids=["list", "deep", "number-shape", "unpaired-entries", "string-labels", "boolean-tolerance",
        "boolean-shape", "boolean-entry", "no-shape", "no-operators"])
def test_malformed_kraus_file_is_usage_error(tmp_path, capsys, kraus):
    (tmp_path / "k.json").write_text(kraus, encoding="utf-8")
    config = {"experiment": "measure", "system": {"a": [0.6, 0.0], "b": [0.8, 0.0]},
              "shots": 10, "kraus_file": str(tmp_path / "k.json")}
    cfg = write_config(tmp_path / "c.json", config)
    args = ["measure", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]
    _usage_error(capsys, args, "cannot load Kraus set")


def test_recurrence_couplings_whose_squares_underflow_are_usage_error(tmp_path, capsys):
    config = {"experiment": "spin-bath",
              "recurrence": {"couplings": [1e-300], "horizon": 10.0, "epsilon": 0.01}}
    with pytest.raises(ValueError, match="couplings"):
        cli.spin_bath_bytes(config, workers=1)
    cfg = write_config(tmp_path / "c.json", config)
    args = ["spin-bath", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]
    _usage_error(capsys, args, "couplings")


@pytest.mark.parametrize("experiment, section", [
    ("spin-bath", {"trace": {"n_spins": 3, "t_max": 1e308, "samples": 3}}),
    ("pointer", {"branch_amplitudes": {"a": [0.6, 0.0], "b": [0.8, 0.0]},
                 "environment": {"n_spins": 3},
                 "correlation": {"thetas": [0.0], "t_max": 1e308, "samples": 3}}),
], ids=["trace", "correlation"])
def test_time_whose_phase_overflows_is_usage_error(tmp_path, capsys, experiment, section):
    # the phase 2 g t is inf, so cos and sin would write NaN rows
    cfg = write_config(tmp_path / "c.json", {"experiment": experiment, **section})
    out = tmp_path / "o"
    args = [experiment, "--config", cfg, "--out", str(out), "--workers", "1"]
    _usage_error(capsys, args, "t_grid: the phase 2 g t overflows")
    assert not out.exists()


def test_exit_2_removes_the_parents_it_created_for_out(tmp_path, capsys):
    config = {"experiment": "spin-bath", "trace": {"n_spins": 3, "t_max": 1e308, "samples": 3}}
    cfg = write_config(tmp_path / "c.json", config)
    args = ["spin-bath", "--config", cfg, "--out", str(tmp_path / "deep" / "a" / "b")]
    _usage_error(capsys, args, "phase 2 g t overflows")
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


@pytest.mark.parametrize("experiment, body, name", [
    ("fock", {"n_max": 8, "counting": {"alpha": [1e200, 0.0]}}, "alpha"),
    ("fock", {"n_max": 8, "completeness": {"radius": 1e300}}, "radius"),
    ("fock", {"n_max": 20, "ehrenfest": {"alpha": [0.5, 0.0], "omega": 1e300,
                                        "t_max": 0.01, "dt": 0.001}}, "omega"),
    ("pointer", {"branch_amplitudes": {"a": [1e200, 0.0], "b": [0.8, 0.0]},
                 "environment": {"n_spins": 3},
                 "sieve": {"t_max": 1.0, "samples": 5}}, "|a|^2"),
], ids=["counting-alpha", "completeness-radius", "ehrenfest-omega", "branch-amplitude"])
def test_huge_finite_number_is_usage_error(tmp_path, capsys, experiment, body, name):
    # each squares a float that a Python ** would overflow with OverflowError
    cfg = write_config(tmp_path / "c.json", {"experiment": experiment, **body})
    args = [experiment, "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]
    _usage_error(capsys, args, name)


# a Kraus file whose first entry overflows to inf when parsed
INF_KRAUS = ('{"shape": [2, 2], "operators": [[[1e999, 0], [0, 0], [0, 0], [0, 0]], '
             '[[0, 0], [0, 0], [0, 0], [1, 0]]]}')
_POINTER_BODY = {"branch_amplitudes": {"a": [0.6, 0.0], "b": [0.8, 0.0]},
                 "environment": {"n_spins": 3}}
_APPARATUS = {"amplitudes": [[0.6, 0.0], [0.8, 0.0]], "decay_rates": [0.5],
              "t_max": 1.0, "samples": 3}


@pytest.mark.parametrize("experiment, body, code, expected", [
    ("pointer", dict(_POINTER_BODY, apparatus=dict(
        _APPARATUS, amplitudes=[[1e200, 0.0], [0.0, 0.0]])), 2, "sum |c_i|^2 = inf"),
    ("pointer", dict(_POINTER_BODY, apparatus=dict(
        _APPARATUS, decay_rates=[0.5, 1.0], weights=[1e308, 1e308])), 2, "mixture weights"),
    ("pointer", dict(_POINTER_BODY, apparatus=dict(
        _APPARATUS, decay_rates=[1e300], t_max=1e300)), 0, None),
    ("measure", {"system": {"a": [0.6, 0.0], "b": [0.8, 0.0]}, "shots": 10,
                 "kraus_file": "inf-kraus.json"}, 2, "non-finite number 1e999"),
], ids=["apparatus-amplitudes", "apparatus-weights", "apparatus-decay-rates", "kraus-file"])
def test_overflow_prints_one_line_at_exit_2_and_nothing_at_exit_0(
    tmp_path, monkeypatch, capsys, experiment, body, code, expected
):
    # under warnings-as-errors a numpy overflow warning would escape main
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inf-kraus.json").write_text(INF_KRAUS, encoding="utf-8")
    cfg = write_config(tmp_path / "c.json", {"experiment": experiment, **body})
    out = tmp_path / "o"
    args = [experiment, "--config", cfg, "--out", str(out), "--workers", "1", "--quiet"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if code == 2:
            _usage_error(capsys, args, expected)
            return
        assert main(args) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out / "apparatus.csv")
    # exp(-t gamma) is 0 once t gamma passes the float range
    assert [float(row[1]) for row in rows[2:]] == [0.0, 0.0]
    assert all(np.isfinite(float(x)) for row in rows[1:] for x in row)


def test_scaling_span_that_overflows_the_grid_is_usage_error(tmp_path, capsys):
    # span_periods / min g is inf, which np.linspace would turn into NaN times
    # with an "invalid value" warning on stderr; trace.csv, written before
    # the scaling task fails, is removed with the --out the run created
    config = {"experiment": "spin-bath", "trace": {"n_spins": 3, "t_max": 1.0, "samples": 3},
              "scaling": {"n_values": [4], "span_periods": 1.7e308, "samples": 1000}}
    cfg = write_config(tmp_path / "c.json", config)
    args = ["spin-bath", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _usage_error(capsys, args, "span_periods")


# ------------------------------------------------------------ spin-bath output


def test_spin_bath_trace_round_trips_full_precision(tmp_path):
    cfg = write_config(tmp_path / "c.json", SPIN_CFG)
    out = tmp_path / "out"
    proc = run_cli(["spin-bath", "--config", cfg, "--out", str(out), "--quiet"])
    assert proc.returncode == 0, proc.stderr
    comments, rows = read_csv(out / "trace.csv")
    assert any(c.startswith("# seed = 11") for c in comments)
    assert any("config_sha256" in c for c in comments)
    assert rows[0] == ["t", "re_r", "im_r", "abs_r_squared"]
    # rebuild the run exactly: first spawned child of the root seed, then the
    # same vectorized evaluation; the 17-digit format must round-trip it
    child = np.random.SeedSequence(11).spawn(4)[0]
    g = np.random.default_rng(child).uniform(0.0, 1.0, 4)
    bath = SpinBathConfig.balanced(g)
    t_grid = np.linspace(0.0, 3.0, 31)
    r = decoherence_factor(bath, t_grid)
    assert len(rows) == 32
    for i, row in enumerate(rows[1:]):
        assert float(row[0]) == t_grid[i]
        assert float(row[1]) == r[i].real
        assert float(row[3]) == abs(r[i]) ** 2


def test_spin_bath_recurrence_csv(tmp_path):
    cfg = write_config(tmp_path / "c.json", SPIN_CFG)
    out = tmp_path / "out"
    assert run_cli(["spin-bath", "--config", cfg, "--out", str(out)]).returncode == 0
    _, rows = read_csv(out / "recurrence.csv")
    assert rows[0] == ["t_enter", "t_exit"]
    intervals = [(float(a), float(b)) for a, b in rows[1:]]
    # g = (1, 2) gives revivals at multiples of pi
    assert any(lo <= np.pi <= hi for lo, hi in intervals)


# four sections, so one pool carries both the scaling and the fit tasks
FOUR_SECTION_CFG = dict(
    SPIN_CFG,
    scaling={"n_values": [4, 5, 6], "samples": 2000},
    gaussian_fit={"n_spins": 8, "n_seeds": 5, "samples": 300},
)
FORKED_POOL = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or multiprocessing.get_start_method() != "fork",
    reason="needs two CPUs and forked workers that inherit a patched task",
)


def _count_pools(monkeypatch):
    starts = []
    real = concurrent.futures.ProcessPoolExecutor

    def counting(*args, **kwargs):
        starts.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    return starts


@FORKED_POOL
def test_spin_bath_starts_one_pool_for_all_its_sections(tmp_path, monkeypatch):
    starts = _count_pools(monkeypatch)
    cfg = write_config(tmp_path / "c.json", FOUR_SECTION_CFG)
    files = {}
    for workers, pools in (("2", 1), ("1", 0)):
        out = tmp_path / f"w{workers}"
        argv = ["spin-bath", "--config", cfg, "--out", str(out), "--workers", workers, "--quiet"]
        assert main(argv) == 0
        assert len(starts) == pools
        starts.clear()
        files[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(files["2"]) == ["gaussian_fit.csv", "recurrence.csv", "scaling.csv", "trace.csv"]
    assert files["2"] == files["1"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", ["1", pytest.param("2", marks=FORKED_POOL)])
def test_failing_fit_task_leaves_no_files_and_no_workers(tmp_path, monkeypatch, capsys, workers):
    def no_window(payload):
        raise FitWindowError("trace never decays below e^-4; no Gaussian fit window exists")

    monkeypatch.setattr(cli, "_fit_task", no_window)
    starts = _count_pools(monkeypatch)
    cfg = write_config(tmp_path / "c.json", FOUR_SECTION_CFG)
    out = tmp_path / "o"
    code = main(["spin-bath", "--config", cfg, "--out", str(out), "--workers", workers, "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == (
        "decolab: trace never decays below e^-4; no Gaussian fit window exists\n"
    )
    # trace.csv and scaling.csv were written before the fits failed; exit 2
    # removes them and the --out the run created
    assert not out.exists()
    assert len(starts) == (workers == "2")
    assert multiprocessing.active_children() == []


def test_trace_rows_streamed_in_slices_match_whole_array_rows(tmp_path):
    # 3 slices and 17 rows, written as %.17g rows of r(t) on the whole grid
    sec = {"n_spins": 6, "ensemble": "random", "t_max": 9.0, "samples": 3 * _TRACE_ROWS + 17}
    out = cli._Output(str(tmp_path), "spin-bath", {}, 0, quiet=True)
    cli._write_trace(sec, np.random.SeedSequence(5), out)
    t_grid = np.linspace(0.0, sec["t_max"], sec["samples"])
    bath = cli._bath_from(sec["n_spins"], sec["ensemble"], np.random.SeedSequence(5))
    r = cli.spin_bath.decoherence_on_grid(bath, t_grid)
    whole = zip(t_grid.tolist(), r.real.tolist(), r.imag.tolist(), (np.abs(r) ** 2).tolist())
    rows = "".join("%.17g,%.17g,%.17g,%.17g\r\n" % row for row in whole).encode()
    assert (tmp_path / "trace.csv").read_bytes().endswith(b"abs_r_squared\r\n" + rows)


def _full_grid_fit(n, samples, child):
    bath = cli._bath_from(n, "balanced", child)
    gamma0 = 2.0 * np.sqrt(float(np.dot(bath.g, bath.g)))
    t_grid = np.linspace(0.0, 5.0 / gamma0, samples)
    fit = fit_gaussian_decay(decoherence_trace(bath, t_grid))
    return bath, t_grid, (fit.gamma, fit.r_squared, fit.t_max)


def _spy_fit_slices(monkeypatch, size=0):
    """Record (slice size, start, r) of every slice the fit walk draws from
    ``spin_bath._slices``; with ``size`` the walk takes slices of that size
    (None: the whole grid in one slice) instead of its own."""
    drawn = []
    real = cli.spin_bath._slices

    def spy(cfg, grid, own, name, step=None):
        taken = own if size == 0 else size
        for lo, r in real(cfg, grid, taken, name, step):
            drawn.append((taken, lo, r))
            yield lo, r

    monkeypatch.setattr(cli.spin_bath, "_slices", spy)
    return drawn


@pytest.mark.parametrize("samples", [50, 1200, 2000])
@pytest.mark.parametrize("n", [2, 8, 50, 200])
def test_fit_walk_matches_the_full_grid_bit_for_bit(monkeypatch, n, samples):
    drawn = _spy_fit_slices(monkeypatch)
    for seed in range(6):
        child = np.random.SeedSequence([seed, n, samples])
        bath, t_grid, want = _full_grid_fit(n, samples, child)
        full = cli.spin_bath.decoherence_on_grid(bath, t_grid)
        drawn.clear()
        assert cli._fit_task((n, samples, child)) == want
        walked = np.concatenate([r for _, _, r in drawn])
        assert walked.tobytes() == full[: walked.size].tobytes()
        assert all(size % 64 == 0 for size, _, _ in drawn)


def test_fit_walk_first_slice_ends_past_two_over_gamma0(monkeypatch):
    # the first multiple of 64 samples past t = 2/Gamma0, sample 2 (samples - 1) / 5
    drawn = _spy_fit_slices(monkeypatch)
    for samples in range(50, 5000, 7):
        drawn.clear()
        cli._fit_task((8, samples, np.random.SeedSequence(samples)))
        size = drawn[0][0]
        assert size % 64 == 0
        assert size >= samples or (size - 1) * 5 >= 2 * (samples - 1)
        assert size - 64 < 2 * (samples - 1) / 5 + 1
    # the benchmark's fits: one slice of 832 samples holds the window
    drawn.clear()
    cli._fit_task((200, 2000, np.random.SeedSequence(8)))
    assert [(size, lo) for size, lo, _ in drawn] == [(832, 0)]


def test_fit_walk_with_short_slices_walks_on_to_the_window(monkeypatch):
    n, samples, child = 200, 2000, np.random.SeedSequence(8)
    bath, t_grid, want = _full_grid_fit(n, samples, child)
    below = np.abs(cli.spin_bath.decoherence_on_grid(bath, t_grid)) ** 2 < np.exp(-4.0)
    end = int(np.argmax(below))  # the first sample past the window
    drawn = _spy_fit_slices(monkeypatch, size=64)
    assert cli._fit_task((n, samples, child)) == want
    # every slice up to the one that holds the window's end, and no more
    assert [lo for _, lo, _ in drawn] == list(range(0, end // 64 * 64 + 1, 64))
    assert len(drawn) > 1


def test_fit_task_on_a_trace_that_never_decays_raises(monkeypatch):
    # every bath spin in an energy eigenstate: |r| = 1 on the whole grid
    def eigenstate_bath(n, ensemble, child):
        return SpinBathConfig(0.6, 0.8, np.linspace(0.2, 1.0, n), np.ones(n), np.zeros(n))

    monkeypatch.setattr(cli, "_bath_from", eigenstate_bath)
    drawn = _spy_fit_slices(monkeypatch)
    with pytest.raises(FitWindowError):
        cli._fit_task((8, 1200, np.random.SeedSequence(1)))
    assert sum(r.size for _, _, r in drawn) == 1200


# ------------------------------------------------------------ measure output


def test_measure_counts_and_state_dumps(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "experiment": "measure",
            "seed": 4,
            "system": {"a": [0.6, 0.0], "b": [0.0, 0.8]},
            "shots": 4000,
        },
    )
    out = tmp_path / "out"
    proc = run_cli(["measure", "--config", cfg, "--out", str(out), "--quiet"])
    assert proc.returncode == 0, proc.stderr
    _, rows = read_csv(out / "outcomes.csv")
    counts = {row[0]: int(row[1]) for row in rows[1:]}
    assert sum(counts.values()) == 4000
    assert counts["up,down"] == 0 and counts["down,up"] == 0
    with open(out / "premeasured_state.json") as fh:
        dump = json.load(fh)
    assert dump["state"]["dims"] == [2, 2]
    amps = [complex(re, im) for re, im in dump["state"]["amps"]]
    assert amps == [0.6, 0.0, 0.0, 0.8j]
    assert dump["provenance"]["seed"] == 4


def test_measure_kraus_dimension_mismatch_is_usage_error(tmp_path):
    kraus = {
        "shape": [3, 3],
        "labels": [0],
        "completeness_tol": None,
        "operators": [[[1.0, 0.0]] + [[0.0, 0.0]] * 8],
    }
    with open(tmp_path / "k.json", "w") as fh:
        json.dump(kraus, fh)
    cfg = write_config(
        tmp_path / "c.json",
        {
            "experiment": "measure",
            "system": {"a": [1.0, 0.0], "b": [0.0, 0.0]},
            "shots": 10,
            "kraus_file": str(tmp_path / "k.json"),
        },
    )
    proc = run_cli(["measure", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert "dimension" in proc.stderr


def test_library_rejection_is_usage_error_without_traceback(tmp_path):
    bad = dict(SPIN_CFG)
    bad["recurrence"] = {"couplings": [0.0], "horizon": 4.0, "epsilon": 0.02}
    cfg = write_config(tmp_path / "c.json", bad)
    proc = run_cli(["spin-bath", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("decolab: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("workers, expected", [
    ("0", "is below 1"), ("-3", "is below 1"),
    (str((os.cpu_count() or 1) + 1), f"exceeds the {os.cpu_count() or 1} CPUs"),
])
def test_workers_out_of_range_is_usage_error(tmp_path, monkeypatch, capsys, workers, expected):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = write_config(tmp_path / "c.json", SPIN_CFG)
    out = tmp_path / "o"
    for args in (["spin-bath", "--config", cfg, "--out", str(out)], ["check"]):
        _usage_error(capsys, args + ["--workers", workers], f"--workers {workers} {expected}")
    assert not out.exists()


# one config per subcommand holding a NaN, an infinity or a literal that
# overflows a double; the loader must reject each before the schema sees it
NON_FINITE_CONFIGS = {
    "spin-bath": '{"experiment": "spin-bath", '
    '"trace": {"n_spins": 3, "t_max": Infinity, "samples": 5}}',
    "measure": '{"experiment": "measure", '
    '"system": {"a": [NaN, 0], "b": [0.8, 0]}, "shots": 10}',
    "pointer": '{"experiment": "pointer", "branch_amplitudes": {"a": [0.6, 0], "b": [0.8, 0]}, '
    '"environment": {"n_spins": 3}, "sieve": {"t_max": 1e999, "samples": 5}}',
    "fock": '{"experiment": "fock", "n_max": 4, '
    '"ehrenfest": {"alpha": [1, 0], "omega": NaN, "t_max": 0.1, "dt": 0.01}}',
    "oracle-compare": '{"experiment": "oracle-compare", "n_values": [2], "trials": 1, '
    '"t_max": NaN}',
    "check": '{"experiment": "check", "seed": -Infinity}',
}


@pytest.mark.parametrize("subcommand", sorted(NON_FINITE_CONFIGS))
def test_non_finite_config_is_usage_error(tmp_path, capsys, subcommand):
    assert set(NON_FINITE_CONFIGS) == set(CONFIG_SCHEMAS)
    cfg = tmp_path / "c.json"
    cfg.write_text(NON_FINITE_CONFIGS[subcommand], encoding="utf-8")
    out = tmp_path / "o"
    args = [subcommand, "--config", str(cfg), "--out", str(out), "--workers", "1"]
    err = _usage_error(capsys, args)
    assert err.startswith("decolab: config holds the non-finite number ")
    assert not out.exists()


# an integer literal past the largest double, which Python parses as an int
HUGE = 10 ** 400


@pytest.mark.parametrize("experiment, body, source", [
    ("spin-bath", {"trace": {"n_spins": 3, "t_max": HUGE, "samples": 3}}, "config"),
    ("spin-bath", {"recurrence": {"couplings": [0.3], "horizon": HUGE, "epsilon": 0.01}},
     "config"),
    ("measure", {"system": {"a": [0.6, 0.0], "b": [0.8, 0.0]}, "shots": 10,
                 "kraus_file": "huge-kraus.json"}, "Kraus file"),
], ids=["trace-t-max", "recurrence-horizon", "kraus-entry"])
def test_integer_past_the_double_range_is_usage_error(
    tmp_path, monkeypatch, capsys, experiment, body, source
):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "huge-kraus.json", {
        "shape": [2, 2], "operators": [[[HUGE, 0], [0, 0], [0, 0], [0, 0]]]})
    cfg = write_config(tmp_path / "c.json", {"experiment": experiment, **body})
    args = [experiment, "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]
    _usage_error(capsys, args, f"{source} holds the non-finite number 1000")


# ------------------------------------------------------------ resource bounds

BIG = 10 ** 12


def test_spin_bath_estimate_grows_with_samples_not_spins():
    def need(n_spins, samples):
        sec = {"n_spins": n_spins, "t_max": 1.0, "samples": samples}
        return cli.spin_bath_bytes({"trace": sec}, workers=1)["trace"]

    assert need(10, 2 * 10 ** 6) > 1.9 * need(10, 10 ** 6)
    assert need(1000, 10 ** 6) < 1.01 * need(10, 10 ** 6)


def test_oversized_spin_bath_is_rejected_before_allocation(tmp_path, monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("a time grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    config = dict(SPIN_CFG, trace={"n_spins": 4, "t_max": 1.0, "samples": BIG})
    cfg = write_config(tmp_path / "c.json", config)
    _usage_error(capsys, ["spin-bath", "--config", cfg, "--out", str(tmp_path / "o"),
                          "--workers", "1"], "section 'trace' exceeds the 2 GiB memory budget")


def test_spin_bath_sections_that_run_at_once_are_budgeted_by_their_sum(
    tmp_path, monkeypatch, capsys
):
    def no_grid(*args, **kwargs):
        raise AssertionError("a time grid was allocated")

    # each section fits alone, but trace and scaling run at once
    config = dict(
        SPIN_CFG,
        trace={"n_spins": 4, "t_max": 1.0, "samples": 2 * 10 ** 7},
        scaling={"n_values": [4], "samples": 2 * 10 ** 7},
    )
    need = cli.spin_bath_bytes(config, workers=1)
    assert max(need.values()) + cli._WRITER_BYTES <= cli.BYTE_BUDGET
    assert cli.BYTE_BUDGET < need["trace"] + need["scaling"] + cli._WRITER_BYTES
    # they write their files one after another: one CSV writer is charged
    fits = dict(need, trace=cli.BYTE_BUDGET - cli._WRITER_BYTES - need["scaling"])
    cli._enforce_budget("spin-bath", fits, ("trace", "scaling"))
    monkeypatch.setattr(np, "linspace", no_grid)
    cfg = write_config(tmp_path / "c.json", config)
    code = main(["spin-bath", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "decolab: spin-bath sections 'trace', 'scaling' run at once and together "
        "exceed the 2 GiB memory budget\n"
    )
    assert not (tmp_path / "o").exists()


def test_shots_above_the_ceiling_are_rejected_before_sampling(tmp_path, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("outcomes were sampled")

    monkeypatch.setattr(cli.measurement, "sample_outcomes", no_sampling)
    config = {"experiment": "measure", "system": {"a": [0.6, 0.0], "b": [0.0, 0.8]}, "shots": BIG}
    cfg = write_config(tmp_path / "c.json", config)
    err = _usage_error(capsys, ["measure", "--config", cfg, "--out", str(tmp_path / "o")])
    assert err.startswith("decolab: config invalid at shots")
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(dict(config, shots=cli.MAX_SHOTS), CONFIG_SCHEMAS["measure"])


def _benchmark_configs(directory, subcommand):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = []
    for workload in workloads.WORKLOADS:
        steps, _ = workloads.generate(workload, 0, str(directory / workload))
        for sub, name, _ in steps:
            if sub == subcommand:
                with open(directory / workload / name) as fh:
                    configs.append(json.load(fh))
    return configs


FOCK_SECTIONS = {
    "counting": {"alpha": [1.0, 0.0]},
    "completeness": {},
    "ehrenfest": {"alpha": [1.0, 0.0], "t_max": 1.0, "dt": 0.01},
}


def test_fock_estimate_scales_with_the_section_sizes():
    def need(section, n_max, **body):
        config = {"experiment": "fock", "n_max": n_max,
                  section: dict(FOCK_SECTIONS[section], **body)}
        return cli.fock_bytes(config)[section]

    # counting: the FockSpace operators and the d x d density matrix
    assert 3.9 < need("counting", 799) / need("counting", 399) < 4.1
    # completeness: linear in the largest grid, the 64 x 64 default at least
    small = need("completeness", 48, densities=[[8, 8]])
    assert small == need("completeness", 48, densities=[[64, 64]])
    assert need("completeness", 48, densities=[[8, 8], [256, 256]]) > 8 * small
    # ehrenfest: linear in the number of time points
    assert 1.9 < need("ehrenfest", 48, t_max=2e4) / need("ehrenfest", 48, t_max=1e4) < 2.1


def test_oversized_fock_is_rejected_before_allocation(tmp_path, monkeypatch, capsys):
    def no_space(*args, **kwargs):
        raise AssertionError("a Fock space was allocated")

    monkeypatch.setattr(cli.fock, "FockSpace", no_space)
    config = {"experiment": "fock", "n_max": 48,
              "completeness": {"densities": [[10 ** 5, 10 ** 5]]}}
    cfg = write_config(tmp_path / "c.json", config)
    _usage_error(capsys, ["fock", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"],
                 "section 'completeness' exceeds the 2 GiB memory budget")


@pytest.mark.parametrize("omega, mass", [(10.0, 1.0), (1.0, 25.0)])
def test_ehrenfest_dynamics_past_the_truncation_is_a_usage_error(tmp_path, capsys, omega, mass):
    # m omega far from 1 squeezes the coherent state onto the edge of n_max 20
    config = {"experiment": "fock", "n_max": 20,
              "ehrenfest": {"alpha": [1.0, 0.0], "omega": omega, "mass": mass,
                            "t_max": 1.0, "dt": 1e-3}}
    cfg = write_config(tmp_path / "c.json", config)
    err = _usage_error(capsys, ["fock", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert err.startswith("decolab: evolved state carries ")
    assert not (tmp_path / "o" / "ehrenfest.csv").exists()


def test_fock_counting_never_builds_the_operator_array(tmp_path, monkeypatch):
    space = cli.fock.FockSpace(20)
    alpha = complex(1.1, -0.7)
    want = povm_probabilities(
        cli.fock.coherent_state(space, alpha).density(), cli.fock.photon_counting_set(space)
    )

    def no_array(*args, **kwargs):
        raise AssertionError("the photon-counting operators were built")

    monkeypatch.setattr(cli.fock, "photon_counting_set", no_array)
    config = {"experiment": "fock", "n_max": 20, "counting": {"alpha": [1.1, -0.7]},
              "completeness": {"densities": [[8, 8]]}}
    cfg = write_config(tmp_path / "c.json", config)
    assert main(["fock", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    _, rows = read_csv(tmp_path / "o" / "counting.csv")
    assert [float(p) for _, p in rows[1:]] == want.tolist()
    _, rows = read_csv(tmp_path / "o" / "completeness.csv")
    assert rows[1] == ["photon_counting", "exact", "0"]


POINTER_CFG = {
    "experiment": "pointer",
    "seed": 3,
    "branch_amplitudes": {"a": [0.6, 0.0], "b": [0.0, 0.8]},
    "environment": {"n_spins": 4, "ensemble": "random"},
    "correlation": {"thetas": [0.0, 0.4], "t_max": 3.0, "samples": 31},
    "sieve": {"t_max": 4.0, "samples": 41},
    "apparatus": {"amplitudes": [[0.6, 0.0], [0.0, 0.8]], "decay_rates": [0.5, 2.0],
                  "t_max": 3.0, "samples": 21},
}


def test_pointer_estimate_holds_the_bath_in_every_section():
    def need(n_spins):
        return cli.pointer_bytes(dict(POINTER_CFG, environment={"n_spins": n_spins}))

    small, large = need(4), need(4 + 10 ** 6)
    assert set(small) == {"environment", "correlation", "sieve", "apparatus"}
    bath = large["environment"] - small["environment"]
    assert bath >= 10 ** 6 * 128
    for section in small:
        assert large[section] - small[section] == bath
    # a bath over the budget is rejected whatever the sections ask for
    assert need(BIG)["environment"] > cli.BYTE_BUDGET


@pytest.mark.parametrize("section", ["environment", "correlation", "sieve", "apparatus"])
def test_oversized_pointer_is_rejected_before_allocation(tmp_path, monkeypatch, capsys, section):
    def refuse(*args, **kwargs):
        raise AssertionError("pointer work started")

    for owner, name in [(np, "linspace"), (cli, "_bath_from"),
                        (cli.spin_bath, "decoherence_factor"),
                        (cli.spin_bath, "decoherence_on_grid"),
                        (cli.pointer, "decoherence_on_grid")]:
        monkeypatch.setattr(owner, name, refuse)
    body = {"environment": {"n_spins": BIG},
            "correlation": dict(POINTER_CFG["correlation"], samples=BIG),
            "sieve": dict(POINTER_CFG["sieve"], samples=BIG),
            "apparatus": dict(POINTER_CFG["apparatus"], samples=BIG)}[section]
    cfg = write_config(tmp_path / "c.json", dict(POINTER_CFG, **{section: body}))
    _usage_error(capsys, ["pointer", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"],
                 f"section '{section}' exceeds the 2 GiB memory budget")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_spins", [14, 200])
def test_pointer_runs_past_the_old_13_spin_cap(tmp_path, n_spins):
    config = dict(POINTER_CFG, environment={"n_spins": n_spins, "ensemble": "random"})
    cfg = write_config(tmp_path / "c.json", config)
    code = main(["pointer", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    _, rows = read_csv(tmp_path / "o" / "correlation.csv")
    assert len(rows) == 1 + 31
    # theta = 0 keeps the full pointer correlation |a b| = 0.48
    assert all(abs(float(row[1]) - 0.48) < 1e-12 for row in rows[1:])


def _count_grid_calls(monkeypatch):
    """Record (cfg, t_grid) of every grid walked by the one evaluator picker,
    ``spin_bath._slices``; refuse decoherence_factor."""
    calls = []
    real = cli.spin_bath._slices

    def counted(cfg, t_grid, *args, **kwargs):
        calls.append((cfg, np.array(t_grid)))
        return real(cfg, t_grid, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a time grid went to decoherence_factor")

    monkeypatch.setattr(cli.spin_bath, "_slices", counted)
    for owner in (cli.spin_bath, cli.pointer):
        monkeypatch.setattr(owner, "decoherence_factor", refuse, raising=False)
    return calls


def test_pointer_evaluates_r_once_per_time_grid(tmp_path, monkeypatch):
    calls = _count_grid_calls(monkeypatch)
    config = dict(POINTER_CFG, correlation=dict(POINTER_CFG["correlation"],
                                                thetas=[0.0, 0.3, 0.9, 1.2]))
    cfg = write_config(tmp_path / "c.json", config)
    assert main(["pointer", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    # one r(t) for the four correlation angles, one for the sieve
    assert [t.size for _, t in calls] == [31, 41]
    bath, t_grid = calls[0]
    tri = cli.pointer.TriConfig(0.6, 0.8j, bath)
    _, rows = read_csv(tmp_path / "o" / "correlation.csv")
    for j, theta in enumerate(config["correlation"]["thetas"]):
        want = cli.pointer.basis_correlation_decay(tri, theta, t_grid)
        assert [float(row[j + 1]) for row in rows[1:]] == want.tolist()


def test_every_grid_section_evaluates_r_through_the_grid_entry(tmp_path, monkeypatch):
    calls = _count_grid_calls(monkeypatch)
    spin = {"experiment": "spin-bath", "seed": 3,
            "trace": {"n_spins": 5, "t_max": 4.0, "samples": 101},
            "scaling": {"n_values": [3, 4], "samples": 300},
            "gaussian_fit": {"n_spins": 20, "n_seeds": 2, "samples": 400}}
    cfg = write_config(tmp_path / "spin.json", spin)
    argv = ["spin-bath", "--config", cfg, "--out", str(tmp_path / "s"), "--workers", "1", "--quiet"]
    assert main(argv) == 0
    # trace, then each scaling task, then each fit's grid, walked up to its window
    assert [t.size for _, t in calls] == [101, 300, 300, 400, 400]
    calls.clear()
    cfg = write_config(tmp_path / "pointer.json", POINTER_CFG)
    assert main(["pointer", "--config", cfg, "--out", str(tmp_path / "p"), "--quiet"]) == 0
    # correlation, then sieve
    assert [t.size for _, t in calls] == [31, 41]


def test_readme_pointer_config_never_builds_a_density_matrix(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense apparatus path ran")

    for owner, name in [(cli.pointer, "apparatus_reduced_state"),
                        (cli.pointer, "DensityMatrix"), (cli.states, "DensityMatrix")]:
        monkeypatch.setattr(owner, name, refuse)
    (config,) = [c for c in README_CONFIGS if c["experiment"] == "pointer"]
    cfg = write_config(tmp_path / "c.json", config)
    code = main(["pointer", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    _, rows = read_csv(tmp_path / "o" / "apparatus.csv")
    assert len(rows) == 1 + config["apparatus"]["samples"]


ORACLE_CFG = {"experiment": "oracle-compare", "n_values": [2, 14], "trials": 3}


def test_oracle_compare_spin_maximum_is_the_oracle_cap():
    # oracle_r evolves a 2^(N+1) joint state, so the schema's largest N is DIM_CAP's
    items = CONFIG_SCHEMAS["oracle-compare"]["properties"]["n_values"]["items"]
    assert 2 ** (items["maximum"] + 1) == DIM_CAP


def test_oracle_compare_estimate_scales_with_spins_times_and_workers():
    def need(workers=1, **body):
        return cli.oracle_compare_bytes(_filled(dict(ORACLE_CFG, **body)), workers)["run"]

    # one 2^15-amplitude bath per busy worker, never more than there are tasks
    assert 1.9 < need(workers=2) / need(workers=1) < 2.1
    assert need(workers=2, trials=1, n_values=[14]) == need(trials=1, n_values=[14])
    # the joint state's part grows as 2^N past the fixed tile buffers and
    # the oracle's block, which is at most 1 MiB at every N
    grows = [need(n_values=[n + 1]) - need(n_values=[n]) for n in (10, 13)]
    assert 7 < grows[1] / grows[0] < 8.5
    assert 1.9 < need(times_per_trial=2 * 10 ** 7) / need(times_per_trial=10 ** 7) < 2.1


def _no_spawn(monkeypatch):
    class NoSeeds:
        def __init__(self, *args, **kwargs):
            raise AssertionError("seed children were spawned")

    monkeypatch.setattr(cli.np.random, "SeedSequence", NoSeeds)


def test_oversized_oracle_compare_is_rejected_before_spawning(tmp_path, monkeypatch, capsys):
    _no_spawn(monkeypatch)
    cfg = write_config(tmp_path / "c.json", dict(ORACLE_CFG, times_per_trial=BIG))
    _usage_error(capsys, ["oracle-compare", "--config", cfg, "--out", str(tmp_path / "o")],
                 "section 'run' exceeds the 2 GiB memory budget")


@pytest.mark.parametrize("body", [
    {"t_max": 1e6},
    {"n_values": [1, 4, 14], "t_max": 1e-300, "tolerance": 1e-290},
    {"t_max": 1e-6, "tolerance": 1e-20},
], ids=["long", "tiny-t", "short"])
def test_tolerance_below_float_floor_is_usage_error(tmp_path, monkeypatch, capsys, body):
    # at t_max = 1e6 the two sides part by ~1.5e-10, above the default 1e-10;
    # at tiny t_max they still part by a few eps, the oracle's rounding at
    # t = 0: a tolerance under eps * (N (t_max + 7.5) + 6) cannot be met and
    # is rejected
    config = dict(ORACLE_CFG, **body)
    n = max(config["n_values"])
    floor = np.finfo(float).eps * (n * (config["t_max"] + 7.5) + 6)
    assert cli.oracle_float_floor(_filled(config)) == floor
    _no_spawn(monkeypatch)
    cfg = write_config(tmp_path / "c.json", config)
    _usage_error(capsys, ["oracle-compare", "--config", cfg, "--out", str(tmp_path / "o")],
                 f"below the float floor {floor:.3g}")


@pytest.mark.parametrize("n", range(1, 15))
def test_float_floor_covers_the_oracle_at_tiny_times(n):
    # the t-independent part of the floor: at t <= 1e-300 the phases are
    # exact and the deviation is the oracle's rounding at t = 0
    floor = cli.oracle_float_floor({"n_values": [n], "t_max": 1e-300})
    children = np.random.SeedSequence(n).spawn(40 if n <= 11 else 8)
    worst = max(cli._oracle_task((n, 20, 1e-300, child))[1] for child in children)
    assert 0 < worst <= floor


# ------------------------------------------------------------ estimates vs peaks


def _need(config, workers=1):
    """The CLI's byte estimate of ``config``, by section."""
    name = config["experiment"].replace("-", "_")
    args = (workers,) if name in ("spin_bath", "oracle_compare") else ()
    return getattr(cli, f"{name}_bytes")(_filled(config), *args)


@pytest.mark.parametrize("config, section", [
    *[({"experiment": "spin-bath", section: body}, section) for section, body in [
        ("trace", {"n_spins": 4, "t_max": 1.0, "samples": BIG}),
        ("trace", {"n_spins": BIG, "t_max": 1.0, "samples": 10}),
        ("scaling", {"n_values": [4], "samples": BIG}),
        ("scaling", {"n_values": [4] * 2 * 10 ** 6}),
        ("gaussian_fit", {"n_spins": 4, "n_seeds": 1, "samples": BIG}),
        ("gaussian_fit", {"n_spins": 4, "n_seeds": BIG}),
        ("recurrence", {"couplings": [1.0], "horizon": 1e12, "epsilon": 0.01}),
        ("recurrence", {"n_spins": BIG, "horizon": 1.0, "epsilon": 0.01}),
        ("recurrence", {"n_spins": 2, "horizon": float("inf"), "epsilon": 0.01}),
    ]],
    *[({"experiment": "fock", "n_max": n_max, section: body}, section)
      for section, n_max, body in [
        ("counting", 5000, FOCK_SECTIONS["counting"]),
        ("completeness", 5000, {}),
        ("completeness", 48, {"densities": [[10 ** 5, 10 ** 5]]}),
        ("completeness", 48, {"densities": [[8, 8], [1, 10 ** 8]]}),
        ("ehrenfest", 5000, FOCK_SECTIONS["ehrenfest"]),
        ("ehrenfest", 48, {"alpha": [1.0, 0.0], "t_max": 1e9, "dt": 1e-3}),
        ("ehrenfest", 48, {"alpha": [1.0, 0.0], "t_max": 1e308, "dt": 1e-308}),
        ("ehrenfest", BIG, FOCK_SECTIONS["ehrenfest"]),
    ]],
    *[(dict(POINTER_CFG, **{section: body}), section) for section, body in [
        ("environment", {"n_spins": BIG}),
        ("correlation", {"thetas": [0.0], "t_max": 1.0, "samples": BIG}),
        ("correlation", {"thetas": [0.1] * 10 ** 5, "t_max": 1.0, "samples": 10 ** 4}),
        ("sieve", {"t_max": 1.0, "samples": BIG}),
        ("apparatus", {"amplitudes": [[1.0, 0.0]], "decay_rates": [1.0],
                       "t_max": 1.0, "samples": BIG}),
        ("apparatus", {"amplitudes": [[1.0, 0.0]], "decay_rates": [1.0] * 10 ** 5,
                       "t_max": 1.0, "samples": 10 ** 4}),
    ]],
    *[(dict(ORACLE_CFG, **body), "run") for body in [
        {"trials": BIG},
        {"times_per_trial": BIG},
        {"n_values": [1] * 10 ** 6},
    ]],
])
def test_estimate_rejects_oversized_sections(config, section):
    assert _need(config, workers=2)[section] > cli.BYTE_BUDGET


@pytest.mark.parametrize("experiment, sections", [
    ("spin-bath", {"trace", "scaling", "gaussian_fit", "recurrence"}),
    ("pointer", {"environment", "correlation", "sieve", "apparatus"}),
    ("fock", {"counting", "completeness", "ehrenfest"}),
    ("oracle-compare", {"run"}),
])
def test_shipped_configs_fit_the_budget(tmp_path, experiment, sections):
    shipped = [c for c in README_CONFIGS if c["experiment"] == experiment]
    shipped += _benchmark_configs(tmp_path, experiment)
    assert len(shipped) == 2
    for config in shipped:
        need = _need(config, workers=os.cpu_count() or 1)
        assert set(need) == sections
        assert max(need.values()) <= cli.BYTE_BUDGET
        if experiment == "oracle-compare":
            assert config["tolerance"] >= cli.oracle_float_floor(config)


@pytest.mark.parametrize("section, n_max, body", [
    ("completeness", 3555, {}),
    ("ehrenfest", 2954, {"alpha": [1.0, 0.0], "t_max": 999.0, "dt": 1.0}),
])
def test_readme_fock_limits_hold(tmp_path, monkeypatch, capsys, section, n_max, body):
    # README: completeness with the default grid up to n_max 3 555, ehrenfest
    # over 1 000 time points up to 2 954; one level more is rejected unbuilt
    config = {"experiment": "fock", "n_max": n_max, section: body}
    cli._enforce_budget("fock", cli.fock_bytes(_filled(config)))
    monkeypatch.setattr(cli.fock, "FockSpace", None)  # a space built would raise
    cfg = write_config(tmp_path / "c.json", dict(config, n_max=n_max + 1))
    _usage_error(capsys, ["fock", "--config", cfg, "--out", str(tmp_path / "o")],
                 f"section {section!r} exceeds the 2 GiB memory budget")


def _row(section, config_of, sizes):
    """A table row: the estimate of ``section`` of ``config_of(size)``, its
    CSV writer added as ``_enforce_budget`` adds it, and a serial run of
    that config, at each of ``sizes``."""
    def run(size, out):
        config = _filled(config_of(size))
        assert cli._RUNNERS[config["experiment"]](config, 0, 1, out) == 0

    return lambda size: _need(config_of(size))[section] + cli._WRITER_BYTES, run, sizes


def _pointer(section):
    """A pointer config of one section at size (n_spins, samples), or at
    (n_spins, samples, angles) with that many correlation angles."""
    def config(size):
        sec = dict(POINTER_CFG[section], samples=size[1])
        if len(size) > 2:
            sec["thetas"] = np.linspace(0.0, 1.5, size[2]).tolist()
        return {"experiment": "pointer", "branch_amplitudes": POINTER_CFG["branch_amplitudes"],
                "environment": {"n_spins": size[0], "ensemble": "random"}, section: sec}

    return config


def _fit(size):
    return {"experiment": "spin-bath",
            "gaussian_fit": {"n_spins": size[0], "n_seeds": 1, "samples": size[1]}}


_COUPLINGS = [0.3, 0.5, 0.7, 0.9]


def _recurrence(horizon):
    return {"experiment": "spin-bath", "recurrence": {
        "couplings": _COUPLINGS, "horizon": horizon, "epsilon": 0.01}}


def _bath(n, ensemble="random"):
    return cli._bath_from(n, ensemble, np.random.SeedSequence(3))


def _lib(estimate, call, sizes):
    """A library row: a byte function against the calls it bounds, no CLI."""
    return lambda size: estimate(*size), lambda size, out: call(*size), sizes


def _rotated(n, samples, angles):
    tri = cli.pointer.TriConfig(0.6, 0.8, _bath(n))
    r = cli.spin_bath.decoherence_on_grid(tri.bath, np.linspace(0.0, 10.0, samples))
    return [cli.pointer._rotated_correlation(tri, th, r) for th in np.linspace(0, 1.5, angles)]


def _dephasing_rows(n):
    """One block of the oracle's evolution at N spins, a time less (when
    that leaves a time) and a time more."""
    rows = cli.states._block_items(cli.oracle._dephasing_time_bytes(2 ** (n + 1)))
    return [size for size in (rows - 1, rows, rows + 1) if size > 0]


def _ehrenfest(n_max, points):
    space = cli.fock.FockSpace(n_max)
    state = cli.fock.coherent_state(space, 0.1)
    cli.fock.ehrenfest_check(space, state, 1.0, 1.0, np.arange(points) * 1e-3)


@functools.lru_cache(maxsize=None)
def _numeric_columns(count):
    """Three columns of ``count`` numbers, made once: a runner's columns
    are charged to its section, not to the writer."""
    k = np.arange(count, dtype=float)
    return k / 7, -k * 1e-9, k ** 0.5


def _numeric_rows(count, out):
    """A CSV of ``count`` rows of three numbers, handed over as the runners
    hand a table of columns to the writer: one piece of rows at a time."""
    out.csv("numbers.csv", ["a", "b", "c"], cli._table(*_numeric_columns(count)))


# Each row: (estimate of a size, workload of that size writing to ``out``,
# sizes).  At the smallest size of every row fixed costs dominate.  The CLI
# rows check a section's estimate against its serial CLI run; the library
# rows each ``_*_bytes`` of the library against the calls it bounds.
ESTIMATE_ROWS = {
    "trace": _row("trace", lambda s: {"experiment": "spin-bath", "trace": {
        "n_spins": 40, "ensemble": "random", "t_max": 20.0, "samples": s}},
        # less than a slice, one, five slices and a row, and two sizes off the slice
        [31, _TRACE_ROWS, 5 * _TRACE_ROWS + 1, 6528, 32641]),
    # the CSV writer alone: one piece of numbers however many rows
    "writer": (lambda rows: cli._WRITER_BYTES, _numeric_rows, [10 ** 2, 10 ** 4, 10 ** 5]),
    # pooled sections: one task, run in process
    "scaling": _row("scaling", lambda s: {"experiment": "spin-bath", "scaling": {
        "n_values": [s[0]], "span_periods": 400.0, "samples": s[1]}},
        [(2, 100), (14, 20001), (14, 200001)]),
    "fit": _row("gaussian_fit", _fit, [(8, 200), (200, 2000), (200, 20000)]),
    # the most a fit walk holds: the whole grid walked, here in one slice
    "fit-whole-grid": _row("gaussian_fit", _fit, [(8, 200), (200, 2000), (200, 20000)]),
    # 15000: past one chunk of the scan
    "recurrence": _row("recurrence", _recurrence, [10.0, 100.0, 2000.0, 10000.0, 15000.0]),
    # the bath alone, held as pointer's environment
    **{f"ensemble-{ensemble}": (cli.spin_bath._bath_bytes, lambda n, out, e=ensemble: _bath(n, e),
                                [1, 1000, 10 ** 5]) for ensemble in ("balanced", "random")},
    # r(t) on the grid holds the kernel's tile buffers however short the grid
    # 64 angles: the columns outweigh r(t), and a whole stacked table would too
    "correlation": _row("correlation", _pointer("correlation"),
                        [(13, 401), (64, 512), (8, 4096), (1000, 2000), (8, 4096, 64),
                         (13, 20001, 64)]),
    "sieve": _row("sieve", _pointer("sieve"), [(13, 401), (64, 512), (8, 4096), (1000, 2000)]),
    "apparatus": _row("apparatus", _pointer("apparatus"), [(4, 21), (4, 10 ** 4), (4, 10 ** 5)]),
    "counting": _row("counting", lambda n: {
        "experiment": "fock", "n_max": n, "counting": {"alpha": [0.5, 0.0]}}, [2, 48, 400]),
    "completeness": _row("completeness", lambda n: {
        "experiment": "fock", "n_max": n, "completeness": {}}, [2, 20, 48]),
    # 2001: t_max / dt reads just under 2001, so only a rounded step count
    # gives every point
    "ehrenfest": _row("ehrenfest", lambda s: {"experiment": "fock", "n_max": s[0], "ehrenfest": {
        "alpha": [s[2], 0.0], "t_max": (s[1] - 1) * 1e-3, "dt": 1e-3}},
        [(8, 3, 0.1), (48, 2002, 1.5), (48, 5001, 1.5), (400, 101, 1.5)]),
    "oracle-compare": _row("run", lambda s: {
        "experiment": "oracle-compare", "n_values": [s[0]], "trials": 2,
        "times_per_trial": s[1], "tolerance": 1e-8}, [(1, 20), (4, 20), (4, 10 ** 4), (10, 20),
                                                       (14, 20)]),
    "r-on-grid": _lib(cli.spin_bath._r_bytes, lambda n, s: cli.spin_bath.decoherence_on_grid(
        _bath(n), np.linspace(0.0, 20.0, s)), [(1, 2), (40, 4096), (14, 200001)]),
    "scan": _lib(lambda h: cli.spin_bath._scan_bytes(4, 0.9, float(np.dot(_COUPLINGS, _COUPLINGS)),
                                                     h, 0.01),
                 lambda h: cli.spin_bath.recurrence_scan(SpinBathConfig.balanced(
                     np.array(_COUPLINGS)), h, 0.01), [(1.0,), (100.0,), (15000.0,)]),
    "rotated-correlation": _lib(cli.pointer._correlation_bytes, _rotated,
                                [(1, 2, 1), (13, 401, 3), (1000, 2000, 8)]),
    "apparatus-dephasing": _lib(cli.pointer._apparatus_bytes, lambda a, k, s: (
        cli.pointer.apparatus_dephasing(np.full(a, a ** -0.5), np.linspace(0.5, 1.0, k), None,
                                        np.linspace(0.0, 10.0, s))),
        [(2, 1, 2), (2, 2, 21), (3, 4, 10 ** 5)]),
    "fock-space": _lib(cli.fock._space_bytes, cli.fock.FockSpace, [(1,), (8,), (400,)]),
    "coherent-audit": _lib(lambda n: cli.fock._audit_bytes(n, cli.fock.DEFAULT_DENSITY ** 2),
                           lambda n: cli.fock.coherent_completeness_deviation(
                               cli.fock.FockSpace(n)), [(1,), (20,), (48,)]),
    "ehrenfest-check": _lib(cli.fock._ehrenfest_bytes, _ehrenfest,
                            [(8, 3), (48, 5001), (400, 101)]),
    "oracle-r": _lib(lambda n, t: cli.oracle._oracle_r_bytes(2 ** (n + 1), t),
                     lambda n, t: cli.oracle.oracle_r(_bath(n), np.linspace(0.0, 20.0, t)),
                     [(1, 1), (4, 10 ** 4), *[(n, rows) for n in (10, 14)
                                               for rows in _dephasing_rows(n)], (14, 20)]),
}


@pytest.mark.parametrize("row, size", [
    pytest.param(row, size, id=f"{row}-{size}")
    for row, (_, _, sizes) in ESTIMATE_ROWS.items() for size in sizes
])
def test_estimate_covers_the_traced_peak(tmp_path, monkeypatch, row, size):
    estimate, workload, _ = ESTIMATE_ROWS[row]
    if row == "fit-whole-grid":
        _spy_fit_slices(monkeypatch, size=None)
    out = cli._Output(str(tmp_path), "x", {}, 0, quiet=True)
    workload(size, out)  # the peak of a warm run: no first-call caches
    if row == "writer":  # but a freshly built formatter, as a process's first file has
        cli._number_tables.cache_clear()
    assert estimate(size) >= traced_peak(workload, size, out)
    if row == "ehrenfest":  # run_fock writes every point of its grid but t = 0
        assert len(read_csv(tmp_path / "ehrenfest.csv")[1]) == size[1] - 1


# One pooled section run by its runner at 2 workers in a child interpreter,
# traced from the runner's start: the pool starts cold, its modules imported
# and its futures held inside the traced run, as in a CLI run.  Going through
# the runner starts a pool on a 1-CPU host too, where ``main`` would refuse
# ``--workers 2``.
POOLED_PEAK = """
import json, sys, tempfile, tracemalloc
from decolab import cli
config = json.loads(sys.argv[1])
with tempfile.TemporaryDirectory() as directory:
    out = cli._Output(directory, "x", {}, 0, quiet=True)
    tracemalloc.start()
    code = cli._RUNNERS[config["experiment"]](config, 0, 2, out)
    peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({"code": code, "peak": peak}))
"""


@pytest.mark.parametrize("section, config", [
    pytest.param("gaussian_fit", {"experiment": "spin-bath", "gaussian_fit": {
        "n_spins": 2, "n_seeds": 2000, "samples": 50}}, id="gaussian_fit"),
    pytest.param("run", {"experiment": "oracle-compare", "n_values": [1], "trials": 2000},
                 id="oracle-compare"),
])
def test_pooled_estimate_covers_the_parent_peak(tmp_path, monkeypatch, section, config):
    config = _filled(config)
    proc = subprocess.run([sys.executable, "-c", POOLED_PEAK, json.dumps(config)],
                          capture_output=True, text=True, env=cli_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    # the budget check charges the section at least its peak: a budget one
    # byte under the peak refuses it
    monkeypatch.setattr(cli, "BYTE_BUDGET", report["peak"] - 1)
    with pytest.raises(cli.ConfigError, match=f"section {section!r} exceeds"):
        cli._enforce_budget(config["experiment"], _need(config, workers=2))


def test_recurrence_row_reaches_past_one_chunk_of_the_scan():
    g = np.array(_recurrence(15000.0)["recurrence"]["couplings"])
    step = cli.spin_bath._scan_step(float(g.max()), float(np.dot(g, g)), 0.01)
    assert 15000.0 / step > cli.spin_bath._slice_size(32)


# ------------------------------------------------------------ CSV writer


def _reference_csv(header, rows, prov):
    """What ``csv.writer`` makes of each row, its numbers as ``%.17g``; a
    2-D array stands for its rows."""
    buf = io.StringIO(newline="")
    for key in ("artifact_version", "experiment", "config_sha256", "seed"):
        buf.write(f"# {key} = {prov[key]}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for item in rows:
        for row in item if isinstance(item, np.ndarray) and item.ndim == 2 else [item]:
            writer.writerow(
                [cell if isinstance(cell, str) else format(float(cell), ".17g") for cell in row]
            )
    return buf.getvalue().encode("utf-8")


_PROV = cli._provenance("spin-bath", {"experiment": "spin-bath"}, 7)


def test_csv_writer_matches_csv_module_bytes(tmp_path):
    header = ["a", "b", "c"]
    numbers = [
        (0, 1.5, np.float64(0.1)),
        (-0.0, float("nan"), float("inf")),
        (float("-inf"), 1e-300, 1e300),
        (np.float64(-0.0), np.float64(2.0) ** -1074, 12345678901234567),
        (np.float64(1) / 3, -7, np.float64("nan")),
    ]
    text = [
        ("plain", 0.25, "x"),
        ("up,down", 3, np.float64(0.5)),
        ('say "hi"', "a,b", 'x"y'),
        ("", -0.0, "tail"),
        ("1e3", True, "0.50"),  # text that reads as a number stays as written
    ]
    # ints, bools and numpy scalars of every kind, and blocks of rows
    scalars = [
        (True, False, np.bool_(True)),
        (np.int64(-2 ** 63), np.uint64(2 ** 64 - 1), np.int32(7)),
        (np.float32(0.1), np.float16(-65504.0), 12345678901234567),
        (np.uint8(255), np.int8(-128), np.float64(1e-5)),
    ]
    huge = [(2 ** 70, -(2 ** 80), 3)]  # no numpy integer holds these
    blocks = [
        np.array([[1.0, -2.5, 3e-7], [0.0, 1e17, -1e-4], [123456789.125, 1e16, 5e-324]]),
        np.arange(-3, 3).reshape(2, 3),
        np.array([[True, False, True]]),
        np.zeros((0, 3)),
    ]
    # rows and blocks in any mix: rows of numbers alone, then with text
    rows = (numbers[:2] + [blocks[0]] + text[:2] + [blocks[1]] + scalars + [blocks[2]] + huge
            + [blocks[1]] + numbers[2:] + [blocks[3]] + text[2:] + scalars + huge)
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), header, iter(rows), _PROV, quiet=True)
    assert path.read_bytes() == _reference_csv(header, rows, _PROV)


@pytest.mark.parametrize("rows, got", [
    ([(1.0, 2.0, 3.0), (4.0, 5.0), (6.0, 7.0, 8.0, 9.0)], 2),
    ([(1.0, 2.0, 3.0), (6.0, 7.0, 8.0, 9.0)], 4),
    ([np.zeros((2, 3)), np.zeros((2, 4))], 4),
    ([("a", 1.0)], 2),
])
def test_csv_writer_refuses_a_row_of_another_width(tmp_path, rows, got):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: a row of {got} cells under a "
                                                   "header of 3")):
        cli._write_csv(str(path), ["a", "b", "c"], rows, _PROV, quiet=True)


def test_csv_writer_formats_in_pieces_of_one_block(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    block = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-20, 20, (500, 3))
    rows = [block, *map(tuple, block.tolist()), ("text", 1.5, -2.0)]
    pieces = []
    lines = cli._Numbers.lines

    def counted(self, piece):
        pieces.append(piece.size)
        return lines(self, piece)

    monkeypatch.setattr(cli._Numbers, "lines", counted)
    cli._write_csv(str(tmp_path / "whole.csv"), ["a", "b", "c"], rows, _PROV, quiet=True)
    # the array alone: the rows and the text row go to csv.writer
    assert pieces == [1500]
    pieces.clear()
    monkeypatch.setattr(cli.states, "_BLOCK_BYTES", 4096)
    cli._write_csv(str(tmp_path / "pieces.csv"), ["a", "b", "c"], rows, _PROV, quiet=True)
    # 4096 bytes hold 6 rows of three numbers at _CELL_BYTES each
    assert max(pieces) * cli._CELL_BYTES <= 4096 and len(pieces) == math.ceil(500 / 6)
    assert (tmp_path / "pieces.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "whole.csv").read_bytes() == _reference_csv(["a", "b", "c"], rows, _PROV)


@pytest.mark.parametrize("experiment, builds", [("measure", 0), ("pointer", 1)])
def test_number_tables_are_built_once_and_only_for_a_file_of_numbers(
    tmp_path, monkeypatch, experiment, builds
):
    # measure writes text tables alone; pointer two files of numbers and one of text
    (config,) = [c for c in README_CONFIGS if c["experiment"] == experiment]
    write_kraus_file(tmp_path, config)
    monkeypatch.chdir(tmp_path)
    cli._number_tables.cache_clear()
    assert main([experiment, "--config", write_config(tmp_path / "c.json", config),
                 "--out", "o", "--quiet"]) == 0
    assert cli._number_tables.cache_info().misses == builds


# ------------------------------------------------------------ README examples


def write_kraus_file(directory, config):
    """The z-basis Kraus set, in ``directory`` under the file name that
    ``config`` gives, if it gives one (a README example names it relative
    to the working directory)."""
    if "kraus_file" in config:
        zset = KrausSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=["up", "down"])
        with open(directory / config["kraus_file"], "w") as fh:
            json.dump(zset.to_dict(), fh)


def _numbers_as_arrays(monkeypatch):
    """Check each item the run hands the CSV writer: one without a text
    cell is a 2-D array, the writer's one route for numbers."""
    write_csv = cli._write_csv

    def checked(path, header, rows, prov, quiet):
        def items():
            for item in rows:
                assert (isinstance(item, np.ndarray) and item.ndim == 2
                        or any(isinstance(cell, str) for cell in item)), (path, type(item))
                yield item

        write_csv(path, header, items(), prov, quiet)

    monkeypatch.setattr(cli, "_write_csv", checked)


def _assert_same_files(want, got):
    """``got`` holds the files of ``want``, byte for byte, and no other."""
    names = sorted(os.listdir(want))
    assert names and sorted(os.listdir(got)) == names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_readme_dotted_names_resolve():
    names = set(re.findall(r"`(decolab(?:\.\w+)+)`", README.read_text(encoding="utf-8")))
    assert "decolab.cli.BYTE_BUDGET" in names
    for name in sorted(names):
        try:
            importlib.import_module(name)  # a module such as decolab.states
        except ModuleNotFoundError:
            module, _, attr = name.rpartition(".")
            assert hasattr(importlib.import_module(module), attr), name


def _readme_numbers(pattern):
    """Every number README states where ``pattern`` matches, its whitespace
    taken as any whitespace and ``{}`` as a number such as "16 384" or "1.25"."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    number = r"(\d{1,3}(?: \d{3})+|[\d.]+)"
    regex = re.escape(pattern).replace(r"\{\}", number).replace(r"\ ", " ")
    return [float(n.replace(" ", "")) for m in re.finditer(regex, text) for n in m.groups()]


def test_readme_walk_sizes_match_the_code():
    slice_size = cli.spin_bath._slice_size
    row = 4 * cli._CELL_BYTES
    stated = {
        "`time_averaged_r2` ({} samples at 64 bytes": [slice_size(64)],
        "`trace.csv` {} rows at a time, {} bytes a row": [_TRACE_ROWS, row],
        "one slice of {} rows of r(t) and of its rows (1 MiB at {} bytes a row)":
            [_TRACE_ROWS, row],
        "`recurrence_scan` ({} points at 32 bytes": [slice_size(32)],
        "one chunk of {} points (1 MiB at 32 bytes a point)": [slice_size(32)],
        "{} MiB per section for writing its CSV file": [cli._WRITER_BYTES / 2 ** 20],
    }
    assert cli.states._BLOCK_BYTES == 2 ** 20  # the "1 MiB" of each slice
    for pattern, numbers in stated.items():
        assert _readme_numbers(pattern) == numbers, pattern


def test_readme_has_a_config_per_subcommand():
    assert sorted(c["experiment"] for c in README_CONFIGS) == sorted(
        name for name in CONFIG_SCHEMAS if name != "check"
    )


@pytest.mark.parametrize(
    "config", README_CONFIGS, ids=[c["experiment"] for c in README_CONFIGS]
)
def test_readme_config_runs_as_documented(tmp_path, monkeypatch, config):
    write_kraus_file(tmp_path, config)
    cfg = write_config(tmp_path / "config.json", config)
    proc = run_cli(
        [config["experiment"], "--config", cfg, "--out", "out", "--quiet"], cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    # the same files at one worker as at the default
    monkeypatch.chdir(tmp_path)
    _numbers_as_arrays(monkeypatch)
    argv = [config["experiment"], "--config", cfg, "--out", "serial", "--quiet", "--workers", "1"]
    assert main(argv) == 0
    _assert_same_files(tmp_path / "out", tmp_path / "serial")


def _summary_prefixes(config):
    """Prefixes of the lines other than ``wrote <path>`` that a loud run prints."""
    experiment = config["experiment"]
    if experiment == "measure" and "kraus_file" in config:
        return ["kraus completeness deviation "]
    if experiment == "fock" and "ehrenfest" in config:
        return ["ehrenfest max residual "]
    if experiment == "oracle-compare":
        return ["worst |closed form - oracle| = "]
    if experiment == "check":
        return [f"ok   {name}" for name, _ in cli.CHECKS]
    return []


STDOUT_CONFIGS = README_CONFIGS + [{"experiment": "check"}]


@pytest.mark.parametrize(
    "config", STDOUT_CONFIGS, ids=[c["experiment"] for c in STDOUT_CONFIGS]
)
def test_loud_run_names_each_file_once_and_quiet_run_prints_nothing(tmp_path, config):
    write_kraus_file(tmp_path, config)
    cfg = write_config(tmp_path / "config.json", config)
    stdout = {}
    for label, flags in (("loud", []), ("quiet", ["--quiet"])):
        argv = [config["experiment"], "--config", cfg, "--out", label, *flags]
        proc = run_cli(argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        stdout[label] = proc.stdout
    files = sorted(os.listdir(tmp_path / "loud"))
    assert files
    lines = stdout["loud"].splitlines()
    wrote = [line[len("wrote "):] for line in lines if line.startswith("wrote ")]
    assert sorted(wrote) == [os.path.join("loud", name) for name in files]
    summary = [line for line in lines if not line.startswith("wrote ")]
    prefixes = _summary_prefixes(config)
    assert len(summary) == len(prefixes)
    assert all(line.startswith(prefix) for line, prefix in zip(summary, prefixes))
    assert stdout["quiet"] == ""
    _assert_same_files(tmp_path / "loud", tmp_path / "quiet")


# ------------------------------------------------------------ exit 0 at the edges

# Configs at the edge of a bound that must exit 0, print nothing on stderr
# and write the same files at one worker as at the default.  Each but
# "rates" is sized to walk more than one block (``_edge_blocks``).
EDGE_CONFIGS = {
    # t gamma past the float range: exp(-inf) = 0, not an overflow warning
    "rates": {"experiment": "pointer", **_POINTER_BODY, "apparatus": dict(
        _APPARATUS, decay_rates=[1e300], t_max=1e300)},
    # a recurrence scan over several chunks of its grid
    "chunks": {"experiment": "spin-bath", "recurrence": {
        "couplings": [0.3, 0.5, 0.7, 0.9], "horizon": 15000.0, "epsilon": 0.01}},
    # an Ehrenfest audit whose 50 001 states are evolved in several blocks
    "blocks": {"experiment": "fock", "n_max": 20, "ehrenfest": {
        "alpha": [1.0, 0.0], "omega": 1.0, "mass": 1.0, "t_max": 50.0, "dt": 0.001}},
    # trace.csv written over several slices of rows
    "slices": {"experiment": "spin-bath", "trace": {
        "n_spins": 40, "ensemble": "random", "t_max": 20.0, "samples": 20001}},
    # the default coherent audit at n_max 48, its sum formed in several blocks of rows
    "audit": {"experiment": "fock", "n_max": 48, "completeness": {}},
    # the dense oracle's evolution at N = 13 and 14 over several blocks of times
    "oracle": {"experiment": "oracle-compare", "n_values": [13, 14], "trials": 2,
               "times_per_trial": 9},
}


def _edge_blocks(name, config):
    """Blocks of its walk that edge config ``name`` spans, by the code's own sizes."""
    states = cli.states
    if name == "chunks":
        sec = config["recurrence"]
        g = np.array(sec["couplings"])
        step = cli.spin_bath._scan_step(float(g.max()), float(np.dot(g, g)), sec["epsilon"])
        return math.ceil(sec["horizon"] / step / cli.spin_bath._slice_size(32))
    if name == "blocks":
        sec = config["ehrenfest"]
        points = round(sec["t_max"] / sec["dt"]) + 1
        block = states._block_items(16 * (config["n_max"] + 1))
        return len(states._row_blocks(points, block)) - 1
    if name == "slices":
        return math.ceil(config["trace"]["samples"] / _TRACE_ROWS)
    if name == "audit":
        block = states._block_items(16 * cli.fock.DEFAULT_DENSITY ** 2)
        return len(states._row_blocks(config["n_max"] + 1, block)) - 1
    assert name == "oracle"
    per_time = cli.oracle._dephasing_time_bytes(2 ** (min(config["n_values"]) + 1))
    block = states._block_items(per_time)
    return len(states._row_blocks(config["times_per_trial"], block, least=1)) - 1


@pytest.mark.parametrize("name", sorted(EDGE_CONFIGS))
def test_edge_config_exits_0_quietly_and_alike_at_one_worker(tmp_path, monkeypatch, capfd,
                                                             name):
    config = EDGE_CONFIGS[name]
    assert name == "rates" or _edge_blocks(name, config) > 1
    _numbers_as_arrays(monkeypatch)
    cfg = write_config(tmp_path / "c.json", config)
    for label, flags in (("default", []), ("serial", ["--workers", "1"])):
        argv = [config["experiment"], "--config", cfg, "--out", str(tmp_path / label), "--quiet"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + flags) == 0
        assert capfd.readouterr().err == ""
    _assert_same_files(tmp_path / "default", tmp_path / "serial")


# ------------------------------------------------------------ seeds


def test_config_without_seed_runs_at_seed_42(tmp_path, monkeypatch):
    monkeypatch.delenv("DECOLAB_SEED", raising=False)
    cfg = write_config(tmp_path / "c.json", {k: v for k, v in SPIN_CFG.items() if k != "seed"})
    for label, flags in (("unseeded", []), ("seeded", ["--seed", "42"])):
        argv = ["spin-bath", "--config", cfg, "--out", str(tmp_path / label), "--workers", "1",
                "--quiet"]
        assert main(argv + flags) == 0
    _assert_same_files(tmp_path / "unseeded", tmp_path / "seeded")


def test_seed_flag_overrides_env_and_config(tmp_path):
    cfg = write_config(tmp_path / "c.json", SPIN_CFG)

    def trace_bytes(label, args, env_extra=None):
        out = tmp_path / label
        proc = run_cli(
            ["spin-bath", "--config", cfg, "--out", str(out), "--quiet", *args],
            env_extra=env_extra,
        )
        assert proc.returncode == 0, proc.stderr
        return (out / "trace.csv").read_bytes()

    flagged = trace_bytes("flag", ["--seed", "500"])
    env_and_flag = trace_bytes("both", ["--seed", "500"], {"DECOLAB_SEED": "900"})
    env_only = trace_bytes("env", [], {"DECOLAB_SEED": "500"})
    config_only = trace_bytes("cfg", [])
    assert flagged == env_and_flag == env_only
    assert flagged != config_only
    assert b"# seed = 500" in flagged
    assert b"# seed = 11" in config_only


# ------------------------------------------------------------ oracle-compare / check


def test_oracle_compare_passes_and_reports(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "experiment": "oracle-compare",
            "seed": 2,
            "n_values": [2, 4],
            "trials": 2,
            "times_per_trial": 5,
        },
    )
    out = tmp_path / "out"
    proc = run_cli(["oracle-compare", "--config", cfg, "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "worst |closed form - oracle|" in proc.stdout
    assert "float floor 2.58e-14" in proc.stdout  # eps * (N 4 (t_max 20 + 7.5) + 6)
    _, rows = read_csv(out / "oracle_compare.csv")
    devs = [float(row[2]) for row in rows[1:]]
    assert len(devs) == 4
    assert max(devs) < 1e-10


def test_check_subcommand_passes_in_process(tmp_path, capsys):
    # run in-process to keep the battery's runtime down
    code = main(["check", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "FAIL" not in captured.out
    with open(tmp_path / "check.json") as fh:
        report = json.load(fh)
    assert report["failed"] == 0
    assert all(report["results"].values())


# ------------------------------------------------- config errors before work


@pytest.mark.parametrize("workers", ["1", "2"])
def test_recurrence_without_couplings_or_n_spins_fails_before_any_section(
    tmp_path, monkeypatch, capsys, workers
):
    def no_work(*args, **kwargs):
        raise AssertionError("a section ran")

    monkeypatch.setattr(cli, "_write_trace", no_work)
    monkeypatch.setattr(cli, "_spin_bath_task", no_work)
    config = dict(SPIN_CFG, scaling={"n_values": [4], "samples": 200},
                  recurrence={"horizon": 4.0, "epsilon": 0.02})
    cfg = write_config(tmp_path / "c.json", config)
    out = tmp_path / "o"
    args = ["spin-bath", "--config", cfg, "--out", str(out), "--workers", workers]
    _usage_error(capsys, args, "config invalid at recurrence: needs one of 'couplings', 'n_spins'")
    assert not out.exists()
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(config, CONFIG_SCHEMAS["spin-bath"])


@pytest.mark.parametrize("kraus, expected", [
    (None, "cannot load Kraus set"),
    ("{not json", "cannot load Kraus set"),
    (json.dumps({"shape": [2, 2], "operators": [[[1, 0]]]}), "cannot load Kraus set"),
    (json.dumps({"shape": [3, 3], "operators": [
        [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [1, 0]]]}),
     "Kraus input dimension 3"),
    # its completeness sum alone would be a 4096 x 4096 complex matrix
    (json.dumps({"shape": [1, 4096], "operators": [[[1, 0]] * 4096]}),
     "Kraus input dimension 4096"),
], ids=["missing", "not-json", "malformed", "dimension-3", "dimension-4096"])
def test_bad_kraus_file_fails_before_sampling_or_writing(
    tmp_path, monkeypatch, capsys, kraus, expected
):
    def no_sampling(*args, **kwargs):
        raise AssertionError("outcomes were sampled")

    def no_operators(*args, **kwargs):
        raise AssertionError("an operator array was built")

    monkeypatch.setattr(cli.measurement, "sample_outcomes", no_sampling)
    if expected.startswith("Kraus input dimension"):
        monkeypatch.setattr(cli.measurement.KrausSet, "from_dict", no_operators)
    path = tmp_path / "k.json"
    if kraus is not None:
        path.write_text(kraus, encoding="utf-8")
    config = {"experiment": "measure", "system": {"a": [0.6, 0.0], "b": [0.8, 0.0]},
              "shots": 10 ** 6, "kraus_file": str(path)}
    cfg = write_config(tmp_path / "c.json", config)
    out = tmp_path / "o"
    _usage_error(capsys, ["measure", "--config", cfg, "--out", str(out)], expected)
    assert not out.exists()


def _crashing_check():
    raise RuntimeError("kaboom")


@pytest.mark.parametrize("quiet", [False, True])
def test_check_reports_why_a_check_crashed_once_on_stderr(monkeypatch, capsys, quiet):
    checks = [("state-algebra", _crashing_check)] + cli.CHECKS[1:]
    monkeypatch.setattr(cli, "CHECKS", checks)
    code = main(["check"] + (["--quiet"] if quiet else []))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "FAIL state-algebra: RuntimeError: kaboom\n"
    passing = [f"ok   {name}" for name, _ in checks[1:]]
    assert captured.out.splitlines() == ([] if quiet else passing)
