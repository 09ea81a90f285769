import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import cli_env
from decolab import cli
from decolab.cli import CONFIG_SCHEMAS, main
from decolab.measurement import KrausSet
from decolab.spin_bath import SpinBathConfig, decoherence_factor


def run_cli(args, env_extra=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "decolab", *args],
        capture_output=True,
        text=True,
        env=cli_env(env_extra),
        cwd=cwd,
    )


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


def test_workers_above_cpu_count_is_usage_error(tmp_path, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    cfg = write_config(tmp_path / "c.json", SPIN_CFG)
    too_many = str((os.cpu_count() or 1) + 1)
    out = tmp_path / "o"
    code = main(["spin-bath", "--config", cfg, "--out", str(out), "--workers", too_many])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("decolab: ") and err.count("\n") == 1
    assert "--workers" in err
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
    code = main([subcommand, "--config", str(cfg), "--out", str(out), "--workers", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("decolab: config holds the non-finite number ")
    assert err.count("\n") == 1
    assert not out.exists()


# ------------------------------------------------------------ resource bounds

BIG = 10 ** 12


@pytest.mark.parametrize(
    "section, body",
    [
        ("trace", {"n_spins": 4, "t_max": 1.0, "samples": BIG}),
        ("trace", {"n_spins": BIG, "t_max": 1.0, "samples": 10}),
        ("scaling", {"n_values": [4], "samples": BIG}),
        ("scaling", {"n_values": [4] * 2 * 10 ** 6}),
        ("gaussian_fit", {"n_spins": 4, "n_seeds": 1, "samples": BIG}),
        ("gaussian_fit", {"n_spins": 4, "n_seeds": BIG}),
        ("recurrence", {"couplings": [1.0], "horizon": 1e12, "epsilon": 0.01}),
        ("recurrence", {"n_spins": BIG, "horizon": 1.0, "epsilon": 0.01}),
        ("recurrence", {"n_spins": 2, "horizon": float("inf"), "epsilon": 0.01}),
    ],
)
def test_spin_bath_estimate_rejects_oversized_sections(section, body):
    need = cli.spin_bath_bytes({"experiment": "spin-bath", section: body}, workers=2)
    assert need[section] > cli.SPIN_BATH_BYTE_BUDGET


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
    code = main(["spin-bath", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("decolab: ") and "'trace'" in err and err.count("\n") == 1


def test_shots_above_the_ceiling_are_rejected_before_sampling(tmp_path, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("outcomes were sampled")

    monkeypatch.setattr(cli.measurement, "sample_outcomes", no_sampling)
    config = {"experiment": "measure", "system": {"a": [0.6, 0.0], "b": [0.0, 0.8]}, "shots": BIG}
    cfg = write_config(tmp_path / "c.json", config)
    code = main(["measure", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("decolab: config invalid at shots") and err.count("\n") == 1
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


def test_shipped_spin_bath_configs_fit_the_budget(tmp_path):
    shipped = [c for c in README_CONFIGS if c["experiment"] == "spin-bath"]
    shipped += _benchmark_configs(tmp_path, "spin-bath")
    assert len(shipped) == 2
    for config in shipped:
        need = cli.spin_bath_bytes(config, workers=os.cpu_count() or 1)
        assert set(need) == {"trace", "scaling", "gaussian_fit", "recurrence"}
        assert max(need.values()) <= cli.SPIN_BATH_BYTE_BUDGET


FOCK_SECTIONS = {
    "counting": {"alpha": [1.0, 0.0]},
    "completeness": {},
    "ehrenfest": {"alpha": [1.0, 0.0], "t_max": 1.0, "dt": 0.01},
}


@pytest.mark.parametrize(
    "section, n_max, body",
    [
        ("counting", 5000, FOCK_SECTIONS["counting"]),
        ("completeness", 5000, {}),
        ("completeness", 48, {"densities": [[10 ** 5, 10 ** 5]]}),
        ("completeness", 48, {"densities": [[8, 8], [1, 10 ** 8]]}),
        ("ehrenfest", 5000, FOCK_SECTIONS["ehrenfest"]),
        ("ehrenfest", 48, {"alpha": [1.0, 0.0], "t_max": 1e9, "dt": 1e-3}),
        ("ehrenfest", 48, {"alpha": [1.0, 0.0], "t_max": 1e308, "dt": 1e-308}),
        ("ehrenfest", BIG, FOCK_SECTIONS["ehrenfest"]),
    ],
)
def test_fock_estimate_rejects_oversized_sections(section, n_max, body):
    need = cli.fock_bytes({"experiment": "fock", "n_max": n_max, section: body})
    assert need[section] > cli.FOCK_BYTE_BUDGET


def test_fock_estimate_scales_with_the_section_sizes():
    def need(section, n_max, **body):
        config = {"experiment": "fock", "n_max": n_max,
                  section: dict(FOCK_SECTIONS[section], **body)}
        return cli.fock_bytes(config)[section]

    # counting: the d^3 photon-counting array dominates
    assert 7.5 < need("counting", 799) / need("counting", 399) < 8.5
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
    code = main(["fock", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("decolab: ") and "'completeness'" in err and err.count("\n") == 1


def test_shipped_fock_configs_fit_the_budget(tmp_path):
    shipped = [c for c in README_CONFIGS if c["experiment"] == "fock"]
    shipped += _benchmark_configs(tmp_path, "fock")
    assert len(shipped) == 2
    for config in shipped:
        need = cli.fock_bytes(config)
        assert set(need) == {"counting", "completeness", "ehrenfest"}
        assert max(need.values()) <= cli.FOCK_BYTE_BUDGET


ORACLE_CFG = {"experiment": "oracle-compare", "n_values": [2, 14], "trials": 3}


@pytest.mark.parametrize(
    "body",
    [
        {"trials": BIG},
        {"times_per_trial": BIG},
        {"n_values": [1] * 10 ** 6},
    ],
)
def test_oracle_compare_estimate_rejects_oversized_runs(body):
    need = cli.oracle_compare_bytes(dict(ORACLE_CFG, **body), workers=2)
    assert set(need) == {"run"}
    assert need["run"] > cli.ORACLE_COMPARE_BYTE_BUDGET


def test_oracle_compare_estimate_scales_with_spins_times_and_workers():
    def need(workers=1, **body):
        return cli.oracle_compare_bytes(dict(ORACLE_CFG, **body), workers)["run"]

    # one 2^15-amplitude bath per busy worker, never more than there are tasks
    assert 1.9 < need(workers=2) / need(workers=1) < 2.1
    assert need(workers=2, trials=1, n_values=[14]) == need(trials=1, n_values=[14])
    assert 7 < need(n_values=[14]) / need(n_values=[11]) < 8.5
    assert 1.9 < need(times_per_trial=2 * 10 ** 7) / need(times_per_trial=10 ** 7) < 2.1


def _no_spawn(monkeypatch):
    class NoSeeds:
        def __init__(self, *args, **kwargs):
            raise AssertionError("seed children were spawned")

    monkeypatch.setattr(cli.np.random, "SeedSequence", NoSeeds)


def test_oversized_oracle_compare_is_rejected_before_spawning(tmp_path, monkeypatch, capsys):
    _no_spawn(monkeypatch)
    cfg = write_config(tmp_path / "c.json", dict(ORACLE_CFG, times_per_trial=BIG))
    code = main(["oracle-compare", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("decolab: ") and "GiB memory budget" in err and err.count("\n") == 1


def test_tolerance_below_float_floor_is_usage_error(tmp_path, monkeypatch, capsys):
    # at t_max = 1e6 the two sides part by ~1.5e-10, above the default 1e-10:
    # a tolerance under eps * t_max * max N cannot be met and is rejected
    config = dict(ORACLE_CFG, t_max=1e6)
    assert cli.oracle_float_floor(config) == np.finfo(float).eps * 1e6 * 14
    _no_spawn(monkeypatch)
    cfg = write_config(tmp_path / "c.json", config)
    code = main(["oracle-compare", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("decolab: ") and "float floor" in err and err.count("\n") == 1


def test_shipped_oracle_compare_configs_fit_the_budget_and_floor(tmp_path):
    shipped = [c for c in README_CONFIGS if c["experiment"] == "oracle-compare"]
    shipped += _benchmark_configs(tmp_path, "oracle-compare")
    assert len(shipped) == 2
    for config in shipped:
        need = cli.oracle_compare_bytes(config, workers=os.cpu_count() or 1)
        assert need["run"] <= cli.ORACLE_COMPARE_BYTE_BUDGET
        assert config["tolerance"] >= cli.oracle_float_floor(config)


# ------------------------------------------------------------ CSV writer


def _reference_csv(header, rows, prov):
    buf = io.StringIO(newline="")
    for key in ("artifact_version", "experiment", "config_sha256", "seed"):
        buf.write(f"# {key} = {prov[key]}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [cell if isinstance(cell, str) else format(float(cell), ".17g") for cell in row]
        )
    return buf.getvalue().encode("utf-8")


def test_csv_writer_matches_csv_module_bytes(tmp_path):
    prov = cli._provenance("spin-bath", {"experiment": "spin-bath"}, 7)
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
    ]
    rows = numbers[:2] + text[:2] + numbers[2:] + text[2:]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), header, iter(rows), prov, quiet=True)
    assert path.read_bytes() == _reference_csv(header, rows, prov)


# ------------------------------------------------------------ README examples

README = Path(__file__).resolve().parent.parent / "README.md"
README_CONFIGS = [
    json.loads(block)
    for block in re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
]


def test_readme_has_a_config_per_subcommand():
    assert sorted(c["experiment"] for c in README_CONFIGS) == sorted(
        name for name in CONFIG_SCHEMAS if name != "check"
    )


@pytest.mark.parametrize(
    "config", README_CONFIGS, ids=[c["experiment"] for c in README_CONFIGS]
)
def test_readme_config_runs_as_documented(tmp_path, config):
    if "kraus_file" in config:
        # the example names a file relative to the working directory
        zset = KrausSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=["up", "down"])
        with open(tmp_path / config["kraus_file"], "w") as fh:
            json.dump(zset.to_dict(), fh)
    cfg = write_config(tmp_path / "config.json", config)
    proc = run_cli(
        [config["experiment"], "--config", cfg, "--out", "out", "--quiet"], cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr


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
    if "kraus_file" in config:
        zset = KrausSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=["up", "down"])
        with open(tmp_path / config["kraus_file"], "w") as fh:
            json.dump(zset.to_dict(), fh)
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
    assert sorted(os.listdir(tmp_path / "quiet")) == files
    for name in files:
        assert (tmp_path / "quiet" / name).read_bytes() == (tmp_path / "loud" / name).read_bytes()


# ------------------------------------------------------------ seeds


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
    assert "float floor 1.78e-14" in proc.stdout  # eps * t_max 20 * N 4
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
