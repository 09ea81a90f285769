"""Reproducible experiment runner.

Subcommands
-----------
``spin-bath``       dephasing traces, 2^-N scaling, Gaussian-decay fits,
                    recurrence scans
``measure``         premeasurement, Born sampling, optional POVM statistics
``pointer``         rotated-basis correlation decay, predictability sieve,
                    apparatus dephasing model
``fock``            photon counting, coherent-POVM completeness, Ehrenfest check
``oracle-compare``  closed form vs brute-force propagation
``check``           fast re-verification of the package's invariants

Every run is driven by a JSON config (schemas in ``CONFIG_SCHEMAS``) plus a
seed resolved as: ``--seed`` flag > ``DECOLAB_SEED`` env var > config value >
package default.  Outputs are UTF-8 CSV ('.' decimal point, 17 significant
digits) and JSON; each file embeds a provenance block (artifact version,
config hash, seed) so identical config+seed reruns are byte-identical.

Exit codes: 0 success, 1 invariant or acceptance failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import jsonschema
import numpy as np

from . import __version__, fock, measurement, oracle, pointer, spin_bath, states

DEFAULT_SEED = spin_bath.DEFAULT_SEED
SEED_ENV_VAR = "DECOLAB_SEED"


class ConfigError(Exception):
    """Bad usage or malformed configuration (exit code 2)."""


# --------------------------------------------------------------------------
# config schemas (published: see README)

_COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
    "description": "[re, im] pair",
}

CONFIG_SCHEMAS: dict[str, dict] = {
    "spin-bath": {
        "type": "object",
        "required": ["experiment"],
        "anyOf": [
            {"required": ["trace"]},
            {"required": ["scaling"]},
            {"required": ["gaussian_fit"]},
            {"required": ["recurrence"]},
        ],
        "additionalProperties": False,
        "properties": {
            "experiment": {"const": "spin-bath"},
            "seed": {"type": "integer", "minimum": 0},
            "trace": {
                "type": "object",
                "required": ["n_spins", "t_max", "samples"],
                "additionalProperties": False,
                "properties": {
                    "n_spins": {"type": "integer", "minimum": 1},
                    "ensemble": {"enum": ["balanced", "random"]},
                    "t_max": {"type": "number", "exclusiveMinimum": 0},
                    "samples": {"type": "integer", "minimum": 2},
                },
            },
            "scaling": {
                "type": "object",
                "required": ["n_values"],
                "additionalProperties": False,
                "properties": {
                    "n_values": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 1},
                        "minItems": 1,
                    },
                    "span_periods": {"type": "number", "exclusiveMinimum": 0},
                    "samples": {"type": "integer", "minimum": 100},
                },
            },
            "gaussian_fit": {
                "type": "object",
                "required": ["n_spins", "n_seeds"],
                "additionalProperties": False,
                "properties": {
                    "n_spins": {"type": "integer", "minimum": 2},
                    "n_seeds": {"type": "integer", "minimum": 1},
                    "samples": {"type": "integer", "minimum": 50},
                },
            },
            "recurrence": {
                "type": "object",
                "required": ["horizon", "epsilon"],
                "additionalProperties": False,
                "properties": {
                    "couplings": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 1,
                    },
                    "n_spins": {"type": "integer", "minimum": 1},
                    "horizon": {"type": "number", "exclusiveMinimum": 0},
                    "epsilon": {
                        "type": "number",
                        "exclusiveMinimum": 0,
                        "exclusiveMaximum": 0.5,
                    },
                },
            },
        },
    },
    "measure": {
        "type": "object",
        "required": ["experiment", "system", "shots"],
        "additionalProperties": False,
        "properties": {
            "experiment": {"const": "measure"},
            "seed": {"type": "integer", "minimum": 0},
            "system": {
                "type": "object",
                "required": ["a", "b"],
                "additionalProperties": False,
                "properties": {"a": _COMPLEX, "b": _COMPLEX},
            },
            "shots": {"type": "integer", "minimum": 1},
            "kraus_file": {"type": "string"},
            "dump_states": {"type": "boolean"},
        },
    },
    "pointer": {
        "type": "object",
        "required": ["experiment", "branch_amplitudes", "environment"],
        "anyOf": [
            {"required": ["correlation"]},
            {"required": ["sieve"]},
            {"required": ["apparatus"]},
        ],
        "additionalProperties": False,
        "properties": {
            "experiment": {"const": "pointer"},
            "seed": {"type": "integer", "minimum": 0},
            "branch_amplitudes": {
                "type": "object",
                "required": ["a", "b"],
                "additionalProperties": False,
                "properties": {"a": _COMPLEX, "b": _COMPLEX},
            },
            "environment": {
                "type": "object",
                "required": ["n_spins"],
                "additionalProperties": False,
                "properties": {
                    "n_spins": {"type": "integer", "minimum": 1, "maximum": 13},
                    "ensemble": {"enum": ["balanced", "random"]},
                },
            },
            "correlation": {
                "type": "object",
                "required": ["thetas", "t_max", "samples"],
                "additionalProperties": False,
                "properties": {
                    "thetas": {
                        "type": "array",
                        "items": {"type": "number", "minimum": 0, "maximum": math.pi / 2},
                        "minItems": 1,
                    },
                    "t_max": {"type": "number", "exclusiveMinimum": 0},
                    "samples": {"type": "integer", "minimum": 2},
                },
            },
            "sieve": {
                "type": "object",
                "required": ["t_max", "samples"],
                "additionalProperties": False,
                "properties": {
                    "t_max": {"type": "number", "exclusiveMinimum": 0},
                    "samples": {"type": "integer", "minimum": 2},
                },
            },
            "apparatus": {
                "type": "object",
                "required": ["amplitudes", "decay_rates", "t_max", "samples"],
                "additionalProperties": False,
                "properties": {
                    "amplitudes": {"type": "array", "items": _COMPLEX, "minItems": 1},
                    "decay_rates": {
                        "type": "array",
                        "items": {"type": "number", "minimum": 0},
                        "minItems": 1,
                    },
                    "weights": {
                        "type": "array",
                        "items": {"type": "number", "minimum": 0},
                        "minItems": 1,
                    },
                    "t_max": {"type": "number", "exclusiveMinimum": 0},
                    "samples": {"type": "integer", "minimum": 2},
                },
            },
        },
    },
    "fock": {
        "type": "object",
        "required": ["experiment", "n_max"],
        "anyOf": [
            {"required": ["counting"]},
            {"required": ["completeness"]},
            {"required": ["ehrenfest"]},
        ],
        "additionalProperties": False,
        "properties": {
            "experiment": {"const": "fock"},
            "seed": {"type": "integer", "minimum": 0},
            "n_max": {"type": "integer", "minimum": 2},
            "counting": {
                "type": "object",
                "required": ["alpha"],
                "additionalProperties": False,
                "properties": {"alpha": _COMPLEX},
            },
            "completeness": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "radius": {"type": "number", "exclusiveMinimum": 0},
                    "densities": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 1},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                        "minItems": 1,
                    },
                },
            },
            "ehrenfest": {
                "type": "object",
                "required": ["alpha", "t_max", "dt"],
                "additionalProperties": False,
                "properties": {
                    "alpha": _COMPLEX,
                    "omega": {"type": "number", "exclusiveMinimum": 0},
                    "mass": {"type": "number", "exclusiveMinimum": 0},
                    "t_max": {"type": "number", "exclusiveMinimum": 0},
                    "dt": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
    },
    "oracle-compare": {
        "type": "object",
        "required": ["experiment", "n_values", "trials"],
        "additionalProperties": False,
        "properties": {
            "experiment": {"const": "oracle-compare"},
            "seed": {"type": "integer", "minimum": 0},
            "n_values": {
                "type": "array",
                "items": {"type": "integer", "minimum": 1, "maximum": 14},
                "minItems": 1,
            },
            "trials": {"type": "integer", "minimum": 1},
            "times_per_trial": {"type": "integer", "minimum": 1},
            "t_max": {"type": "number", "exclusiveMinimum": 0},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "check": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "experiment": {"const": "check"},
            "seed": {"type": "integer", "minimum": 0},
        },
    },
}


# --------------------------------------------------------------------------
# plumbing


def _fmt(x: float) -> str:
    """17 significant digits, '.' decimal point: round-trips float64 exactly."""
    return format(float(x), ".17g")


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _provenance(experiment: str, config: dict, seed: int) -> dict:
    return {
        "artifact_version": __version__,
        "experiment": experiment,
        "config_sha256": _config_hash(config),
        "seed": int(seed),
    }


def _write_csv(path, header, rows, prov, quiet: bool) -> None:
    """Provenance comments, the header, then one CSV line per row.

    A row of numbers is written through one ``%.17g`` line, byte for byte
    what ``csv.writer`` makes of the ``_fmt`` cells; a row holding text
    makes that line raise and goes through ``csv.writer``, which quotes.
    """
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in ("artifact_version", "experiment", "config_sha256", "seed"):
            fh.write(f"# {key} = {prov[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            try:
                fh.write(line % row)
            except TypeError:
                writer.writerow(
                    [cell if isinstance(cell, str) else _fmt(cell) for cell in row]
                )
    if not quiet:
        print(f"wrote {path}")


def _write_json(path, payload: dict, prov, quiet: bool) -> None:
    payload = dict(payload)
    payload["provenance"] = prov
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if not quiet:
        print(f"wrote {path}")


def _complex_pair(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _state_payload(state: states.StateVector) -> dict:
    return {
        "dims": list(state.dims),
        "amps": [[float(z.real), float(z.imag)] for z in state.amps],
    }


def _density_payload(rho: states.DensityMatrix) -> dict:
    return {
        "dims": list(rho.dims),
        "mat": [[float(z.real), float(z.imag)] for z in rho.mat.reshape(-1)],
    }


def _load_config(path: str, experiment: str) -> dict:
    if path is None:
        raise ConfigError(f"'{experiment}' needs --config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict) or not config:
        raise ConfigError("config must be a non-empty JSON object")
    try:
        jsonschema.validate(config, CONFIG_SCHEMAS[experiment])
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {exc.message}") from exc
    if config.get("experiment") != experiment:
        raise ConfigError(
            f"config is for experiment {config.get('experiment')!r}, "
            f"but the '{experiment}' subcommand was invoked"
        )
    return config


def _resolve_seed(flag_seed, config: dict) -> int:
    if flag_seed is not None:
        seed = flag_seed
    elif os.environ.get(SEED_ENV_VAR):
        raw = os.environ[SEED_ENV_VAR]
        try:
            seed = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from exc
    else:
        seed = config.get("seed", DEFAULT_SEED)
    if not 0 <= int(seed) < 2 ** 64:
        raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return int(seed)


def _ensure_out(out_dir: str) -> str:
    if out_dir is None:
        raise ConfigError("this subcommand needs --out")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _pmap(fn, payloads, workers: int) -> list:
    """Order-preserving map, optionally across a process pool."""
    payloads = list(payloads)
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(fn, payloads))


def _bath_from(n_spins: int, ensemble: str, child_seed) -> spin_bath.SpinBathConfig:
    rng = np.random.default_rng(child_seed)
    if ensemble == "random":
        return spin_bath.SpinBathConfig.random(n_spins, rng)
    return spin_bath.SpinBathConfig.balanced(rng.uniform(0.0, 1.0, n_spins))


# --------------------------------------------------------------------------
# spin-bath

#: Largest working set, in bytes, that one spin-bath section may need.
SPIN_BATH_BYTE_BUDGET = 2 * 1024 ** 3

_SCALING_SAMPLES = 200001
_FIT_SAMPLES = 1200

# Working-set sizes that grow with the config, measured with tracemalloc and
# rounded up: bytes per time point while r(t) is evaluated and reduced, per
# trace.csv row held as Python floats, per recurrence grid point, per bath
# spin, and per task a section hands to the pool (seed, payload, result row).
_POINT_BYTES = 64
_TRACE_ROW_BYTES = 128
_SCAN_POINT_BYTES = 32
_SPIN_BYTES = 128
_TASK_BYTES = 2048


def spin_bath_bytes(config: dict, workers: int) -> dict:
    """Estimated peak bytes of each section of a spin-bath config.

    Worked out from the config alone, before anything is allocated.  r(t) is
    streamed spin by spin, so a section grows linearly with its time samples
    (grid points for ``recurrence``); the bath adds only its couplings and
    amplitudes.  A pooled section holds one task per busy worker at a time.
    """

    def pooled(tasks: int, per_task: int) -> int:
        return min(max(workers, 1), tasks) * per_task + tasks * _TASK_BYTES

    need = {}
    if "trace" in config:
        sec = config["trace"]
        need["trace"] = (
            sec["n_spins"] * _SPIN_BYTES
            + sec["samples"] * (_POINT_BYTES + _TRACE_ROW_BYTES)
        )
    if "scaling" in config:
        sec = config["scaling"]
        per_task = (
            max(sec["n_values"]) * _SPIN_BYTES
            + sec.get("samples", _SCALING_SAMPLES) * _POINT_BYTES
        )
        need["scaling"] = pooled(len(sec["n_values"]), per_task)
    if "gaussian_fit" in config:
        sec = config["gaussian_fit"]
        per_task = (
            sec["n_spins"] * _SPIN_BYTES + sec.get("samples", _FIT_SAMPLES) * _POINT_BYTES
        )
        need["gaussian_fit"] = pooled(sec["n_seeds"], per_task)
    sec = config.get("recurrence", {})
    if "couplings" in sec or "n_spins" in sec:
        if "couplings" in sec:
            g = np.abs(np.asarray(sec["couplings"], dtype=float))
            with np.errstate(over="ignore"):  # _scan_step rejects an infinite sum
                g_sq = float(np.dot(g, g))
            n, g_max = g.size, float(g.max())
        else:
            # couplings drawn from U(0, 1): bound the finest step any draw
            # needs; a bath past the budget is over it anyway, so clamping n
            # keeps the float arithmetic finite
            n = min(sec["n_spins"], SPIN_BATH_BYTE_BUDGET)
            g_max, g_sq = 1.0, float(n)
        step = spin_bath._scan_step(g_max, g_sq, sec["epsilon"])
        points = sec["horizon"] / step + 2.0
        need["recurrence"] = n * _SPIN_BYTES + points * _SCAN_POINT_BYTES
    return need


def _scaling_task(payload):
    n, span, samples, child = payload
    g = np.random.default_rng(child).uniform(0.0, 1.0, n)
    cfg = spin_bath.SpinBathConfig.balanced(g)
    t_grid = np.linspace(0.0, span / float(g.min()), samples)
    mean = spin_bath.time_averaged_r2(cfg, t_grid)
    return n, mean


def _fit_task(payload):
    n, samples, child = payload
    g = np.random.default_rng(child).uniform(0.0, 1.0, n)
    cfg = spin_bath.SpinBathConfig.balanced(g)
    gamma0 = 2.0 * math.sqrt(float(np.dot(g, g)))
    t_grid = np.linspace(0.0, 5.0 / gamma0, samples)
    fit = spin_bath.fit_gaussian_decay(spin_bath.decoherence_trace(cfg, t_grid))
    return fit.gamma, fit.r_squared, fit.t_max


def run_spin_bath(config, out_dir, seed, workers, quiet) -> int:
    for section, need in spin_bath_bytes(config, workers).items():
        if need > SPIN_BATH_BYTE_BUDGET:
            raise ConfigError(
                f"spin-bath section {section!r} exceeds the "
                f"{SPIN_BATH_BYTE_BUDGET >> 30} GiB memory budget"
            )
    prov = _provenance("spin-bath", config, seed)
    root = np.random.SeedSequence(seed)
    kids = root.spawn(4)

    if "trace" in config:
        sec = config["trace"]
        cfg = _bath_from(sec["n_spins"], sec.get("ensemble", "balanced"), kids[0])
        t_grid = np.linspace(0.0, sec["t_max"], sec["samples"])
        r = spin_bath.decoherence_factor(cfg, t_grid)
        rows = zip(
            t_grid.tolist(), r.real.tolist(), r.imag.tolist(), (np.abs(r) ** 2).tolist()
        )
        _write_csv(
            os.path.join(out_dir, "trace.csv"),
            ["t", "re_r", "im_r", "abs_r_squared"],
            rows,
            prov,
            quiet,
        )

    if "scaling" in config:
        sec = config["scaling"]
        span = sec.get("span_periods", 400.0)
        samples = sec.get("samples", _SCALING_SAMPLES)
        children = kids[1].spawn(len(sec["n_values"]))
        payloads = [
            (n, span, samples, child)
            for n, child in zip(sec["n_values"], children)
        ]
        rows = []
        for n, mean in _pmap(_scaling_task, payloads, workers):
            rows.append((n, mean, math.log2(mean)))
        _write_csv(
            os.path.join(out_dir, "scaling.csv"),
            ["n_spins", "mean_abs_r_squared", "log2_mean"],
            rows,
            prov,
            quiet,
        )

    if "gaussian_fit" in config:
        sec = config["gaussian_fit"]
        samples = sec.get("samples", _FIT_SAMPLES)
        children = kids[2].spawn(sec["n_seeds"])
        payloads = [(sec["n_spins"], samples, child) for child in children]
        rows = [
            (idx, gamma, r_sq, t_max)
            for idx, (gamma, r_sq, t_max) in enumerate(
                _pmap(_fit_task, payloads, workers)
            )
        ]
        _write_csv(
            os.path.join(out_dir, "gaussian_fit.csv"),
            ["draw", "gamma", "r_squared", "t_max"],
            rows,
            prov,
            quiet,
        )

    if "recurrence" in config:
        sec = config["recurrence"]
        if "couplings" in sec:
            cfg = spin_bath.SpinBathConfig.balanced(np.asarray(sec["couplings"], float))
        elif "n_spins" in sec:
            cfg = _bath_from(sec["n_spins"], "balanced", kids[3])
        else:
            raise ConfigError("recurrence needs either 'couplings' or 'n_spins'")
        intervals = spin_bath.recurrence_scan(cfg, sec["horizon"], sec["epsilon"])
        _write_csv(
            os.path.join(out_dir, "recurrence.csv"),
            ["t_enter", "t_exit"],
            intervals,
            prov,
            quiet,
        )
    return 0


# --------------------------------------------------------------------------
# measure


def run_measure(config, out_dir, seed, workers, quiet) -> int:
    prov = _provenance("measure", config, seed)
    system = states.StateVector(
        (2,),
        [
            _complex_pair(config["system"]["a"]),
            _complex_pair(config["system"]["b"]),
        ],
    )
    ready = states.StateVector((2,), [1.0, 0.0])
    joint = measurement.premeasure_cnot(system, ready)
    basis = states.BasisSpec(0, np.eye(4))
    probs = measurement.outcome_distribution(joint, basis)
    counts = measurement.sample_outcomes(
        joint, basis, config["shots"], np.random.SeedSequence(seed)
    )
    names = ["up,up", "up,down", "down,up", "down,down"]
    shots = int(config["shots"])
    rows = [
        (names[i], int(counts[i]), counts[i] / shots, probs[i])
        for i in range(4)
    ]
    _write_csv(
        os.path.join(out_dir, "outcomes.csv"),
        ["outcome", "count", "frequency", "born_probability"],
        [(name, str(cnt), freq, p) for name, cnt, freq, p in rows],
        prov,
        quiet,
    )
    if config.get("dump_states", True):
        _write_json(
            os.path.join(out_dir, "premeasured_state.json"),
            {"state": _state_payload(joint)},
            prov,
            quiet,
        )
        _write_json(
            os.path.join(out_dir, "reduced_system.json"),
            {"density": _density_payload(states.reduced_density(joint, keep=0))},
            prov,
            quiet,
        )
    if "kraus_file" in config:
        try:
            with open(config["kraus_file"], "r", encoding="utf-8") as fh:
                kset = measurement.KrausSet.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ConfigError(f"cannot load Kraus set: {exc}") from exc
        if kset.dim_in == 2:
            target = states.reduced_density(joint, keep=0)
        elif kset.dim_in == 4:
            target = joint.density()
        else:
            raise ConfigError(
                f"Kraus input dimension {kset.dim_in} matches neither the "
                "system (2) nor the joint state (4)"
            )
        povm = measurement.povm_probabilities(target, kset)
        report = measurement.validate_kraus(kset)
        if not quiet:
            print(
                f"kraus completeness deviation {report.deviation:.3e} "
                f"(strict pass: {report.passed})"
            )
        _write_csv(
            os.path.join(out_dir, "povm.csv"),
            ["label", "probability"],
            [(str(lbl), p) for lbl, p in zip(kset.labels, povm)],
            prov,
            quiet,
        )
    return 0


# --------------------------------------------------------------------------
# pointer


def run_pointer(config, out_dir, seed, workers, quiet) -> int:
    prov = _provenance("pointer", config, seed)
    root = np.random.SeedSequence(seed)
    amps = config["branch_amplitudes"]
    env = config["environment"]
    bath = _bath_from(env["n_spins"], env.get("ensemble", "balanced"), root.spawn(1)[0])
    tri = pointer.TriConfig(_complex_pair(amps["a"]), _complex_pair(amps["b"]), bath)

    if "correlation" in config:
        sec = config["correlation"]
        t_grid = np.linspace(0.0, sec["t_max"], sec["samples"])
        columns = [
            pointer.basis_correlation_decay(tri, theta, t_grid)
            for theta in sec["thetas"]
        ]
        header = ["t"] + [f"corr_theta_{theta:g}" for theta in sec["thetas"]]
        rows = [
            tuple([t] + [col[i] for col in columns]) for i, t in enumerate(t_grid)
        ]
        _write_csv(os.path.join(out_dir, "correlation.csv"), header, rows, prov, quiet)

    if "sieve" in config:
        sec = config["sieve"]
        t_grid = np.linspace(0.0, sec["t_max"], sec["samples"])
        z = states.BasisSpec(0, np.eye(2))
        x = states.BasisSpec(0, np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
        ranked = pointer.predictability_sieve([z, x], tri, t_grid)
        name = {id(z): "monitored", id(x): "conjugate"}
        rows = [(name[id(b)], score) for b, score in ranked]
        _write_csv(
            os.path.join(out_dir, "sieve.csv"),
            ["basis", "time_averaged_purity"],
            rows,
            prov,
            quiet,
        )

    if "apparatus" in config:
        sec = config["apparatus"]
        c = [_complex_pair(p) for p in sec["amplitudes"]]
        rates = [float(r) for r in sec["decay_rates"]]
        weights = sec.get("weights")
        if weights is None and len(rates) > 1:
            weights = [1.0 / len(rates)] * len(rates)
        if weights is not None and len(weights) != len(rates):
            raise ConfigError("apparatus weights and decay_rates lengths differ")

        def kappa(i, j, t, mix):
            return 1.0 if i == j else math.exp(-rates[mix] * t)

        model = pointer.ApparatusModel(c, kappa, weights)
        t_grid = np.linspace(0.0, sec["t_max"], sec["samples"])
        full_basis = states.BasisSpec(0, np.eye(model.dim))
        rows = []
        for t in t_grid:
            rho = pointer.apparatus_reduced_state(model, t)
            rows.append((t, states.offdiag_norm(rho, full_basis), states.purity(rho)))
        _write_csv(
            os.path.join(out_dir, "apparatus.csv"),
            ["t", "offdiag_sum", "purity"],
            rows,
            prov,
            quiet,
        )
    return 0


# --------------------------------------------------------------------------
# fock


def run_fock(config, out_dir, seed, workers, quiet) -> int:
    prov = _provenance("fock", config, seed)
    space = fock.FockSpace(config["n_max"])

    if "counting" in config:
        alpha = _complex_pair(config["counting"]["alpha"])
        state = fock.coherent_state(space, alpha)
        probs = measurement.povm_probabilities(
            state.density(), fock.photon_counting_set(space)
        )
        rows = [(str(n), p) for n, p in enumerate(probs)]
        _write_csv(
            os.path.join(out_dir, "counting.csv"),
            ["n", "probability"],
            rows,
            prov,
            quiet,
        )

    if "completeness" in config:
        sec = config["completeness"]
        rows = [
            ("photon_counting", "exact",
             fock.photon_counting_set(space).completeness_deviation())
        ]
        radius = sec.get("radius", float(math.ceil(2.5 * math.sqrt(space.n_max))))
        for n_r, n_phi in sec.get("densities", [[8, 8], [16, 16], [32, 32]]):
            kset = fock.coherent_measurement_set(
                space, fock.polar_grid(radius, n_r, n_phi)
            )
            rows.append(
                ("coherent_grid", f"{n_r}x{n_phi}", kset.completeness_deviation())
            )
        default = fock.coherent_measurement_set(space)
        rows.append(("coherent_grid", "default", default.completeness_deviation()))
        _write_csv(
            os.path.join(out_dir, "completeness.csv"),
            ["family", "grid", "max_deviation"],
            rows,
            prov,
            quiet,
        )

    if "ehrenfest" in config:
        sec = config["ehrenfest"]
        alpha = _complex_pair(sec["alpha"])
        omega = sec.get("omega", 1.0)
        mass = sec.get("mass", 1.0)
        dt = float(sec["dt"])
        n_steps = int(round(sec["t_max"] / dt))
        t_grid = np.arange(n_steps + 1) * dt
        state = fock.coherent_state(space, alpha)
        report = fock.ehrenfest_check(space, state, omega, mass, t_grid)
        if not quiet:
            print(f"ehrenfest max residual {report.max_residual:.6e} at dt {dt:g}")
        rows = list(zip(report.t, report.residuals))
        _write_csv(
            os.path.join(out_dir, "ehrenfest.csv"),
            ["t", "residual"],
            rows,
            prov,
            quiet,
        )
    return 0


# --------------------------------------------------------------------------
# oracle-compare


def _oracle_task(payload):
    n, times_per_trial, t_max, child = payload
    rng = np.random.default_rng(child)
    while True:
        cfg = spin_bath.SpinBathConfig.random(n, rng)
        if abs(cfg.a) > 1e-3 and abs(cfg.b) > 1e-3:
            break
    worst = 0.0
    for t in rng.uniform(0.0, t_max, times_per_trial):
        dev = abs(
            spin_bath.decoherence_factor(cfg, float(t)) - oracle.oracle_r(cfg, float(t))
        )
        worst = max(worst, float(dev))
    return n, worst


def run_oracle_compare(config, out_dir, seed, workers, quiet) -> int:
    prov = _provenance("oracle-compare", config, seed)
    trials = int(config["trials"])
    times = int(config.get("times_per_trial", 20))
    t_max = float(config.get("t_max", 20.0))
    tolerance = float(config.get("tolerance", 1e-10))
    n_values = list(config["n_values"])
    children = np.random.SeedSequence(seed).spawn(trials * len(n_values))
    payloads = []
    k = 0
    for trial in range(trials):
        for n in n_values:
            payloads.append((n, times, t_max, children[k]))
            k += 1
    results = _pmap(_oracle_task, payloads, workers)
    rows = []
    worst = 0.0
    for idx, (n, dev) in enumerate(results):
        rows.append((idx // len(n_values), n, dev))
        worst = max(worst, dev)
    _write_csv(
        os.path.join(out_dir, "oracle_compare.csv"),
        ["trial", "n_spins", "max_abs_deviation"],
        rows,
        prov,
        quiet,
    )
    ok = worst <= tolerance
    if not quiet:
        print(
            f"worst |closed form - oracle| = {worst:.3e} over "
            f"{len(payloads)} configs ({'ok' if ok else 'FAIL'} at {tolerance:g})"
        )
    if not ok:
        print("oracle-compare: deviation exceeds tolerance", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# check


def _check_state_algebra() -> bool:
    bell = states.StateVector((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
    half = states.partial_trace(bell.density(), keep=0)
    ok = np.allclose(half.mat, np.eye(2) / 2, atol=1e-12)
    ok &= abs(states.purity(half) - 0.5) < 1e-12
    plus = states.StateVector((2,), np.array([1, 1]) / math.sqrt(2))
    ok &= abs(states.offdiag_norm(plus.density(), states.BasisSpec(0, np.eye(2))) - 1.0) < 1e-12
    return bool(ok)


def _check_oracle_agreement() -> bool:
    rng = np.random.default_rng(20)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        cfg = spin_bath.SpinBathConfig.random(n, rng)
        if abs(cfg.a) < 1e-3 or abs(cfg.b) < 1e-3:
            continue
        for t in rng.uniform(0.0, 20.0, 5):
            if abs(
                spin_bath.decoherence_factor(cfg, float(t))
                - oracle.oracle_r(cfg, float(t))
            ) > 1e-10:
                return False
    return True


def _check_eigenstate_flat() -> bool:
    n = 6
    cfg = spin_bath.SpinBathConfig(
        0.6, 0.8, np.linspace(0.2, 1.0, n), np.ones(n), np.zeros(n)
    )
    r = spin_bath.decoherence_factor(cfg, np.linspace(0.0, 40.0, 2000))
    return bool(np.max(np.abs(np.abs(r) - 1.0)) < 1e-12)


def _check_scaling_n8() -> bool:
    g = np.random.default_rng(8).uniform(0.0, 1.0, 8)
    cfg = spin_bath.SpinBathConfig.balanced(g)
    t_grid = np.linspace(0.0, 400.0 / g.min(), 120001)
    avg = spin_bath.time_averaged_r2(cfg, t_grid)
    return bool(abs(avg * 2 ** 8 - 1.0) < 0.1)


def _check_luders() -> bool:
    rng = np.random.default_rng(6)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_mat = raw @ raw.conj().T
    rho = states.DensityMatrix((4,), rho_mat / np.trace(rho_mat))
    proj = measurement.Projector.onto(np.eye(4)[:, :2])
    once = measurement.luders_update(rho, proj)
    twice = measurement.luders_update(once, proj)
    ok = np.max(np.abs(once.mat - twice.mat)) < 1e-12
    try:
        impossible = measurement.Projector.onto(np.eye(4)[:, 3:])
        zero = states.StateVector((4,), np.eye(4)[:, 0]).density()
        measurement.luders_update(zero, impossible)
        return False
    except measurement.ImpossibleOutcomeError:
        pass
    return bool(ok)


def _check_premeasure() -> bool:
    rng = np.random.default_rng(11)
    ready = states.StateVector((2,), [1.0, 0.0])
    amp = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    amp /= np.linalg.norm(amp, axis=1, keepdims=True)
    s1 = states.StateVector((2,), amp[0])
    s2 = states.StateVector((2,), amp[1])
    lhs = measurement.premeasure_cnot(s1, ready).overlap(
        measurement.premeasure_cnot(s2, ready)
    )
    return bool(abs(lhs - s1.overlap(s2)) < 1e-12)


def _check_photon_counting() -> bool:
    space = fock.FockSpace(12)
    kset = fock.photon_counting_set(space)
    if kset.completeness_deviation() > 1e-14:
        return False
    amps = np.zeros(space.dim)
    amps[5] = 1.0
    rec = measurement.kraus_update(
        states.StateVector((space.dim,), amps).density(), kset, 5
    )
    return bool(rec.post_state.mat[0, 0].real > 1.0 - 1e-12)


def _check_coherent_set() -> bool:
    kset = fock.coherent_measurement_set(fock.FockSpace(10))
    return bool(kset.completeness_deviation() < 0.02)


def _check_apparatus() -> bool:
    c = np.array([0.5, 0.5, math.sqrt(0.5)], dtype=complex)
    model = pointer.ApparatusModel(c, lambda i, j, t, m: 1.0 if i == j else math.exp(-0.7 * t))
    rho = pointer.apparatus_reduced_state(model, 1.3)
    k = math.exp(-0.7 * 1.3)
    worst = 0.0
    for i in range(3):
        for j in range(3):
            want = (abs(c[i]) ** 2) if i == j else c[i] * np.conj(c[j]) * k
            worst = max(worst, abs(rho.mat[i + 1, j + 1] - want))
    return bool(worst < 1e-12)


def _check_sieve_order() -> bool:
    bath = spin_bath.SpinBathConfig.balanced(
        np.random.default_rng(14).uniform(0.0, 1.0, 6)
    )
    tri = pointer.TriConfig(1 / math.sqrt(2), 1 / math.sqrt(2), bath)
    z = states.BasisSpec(0, np.eye(2))
    x = states.BasisSpec(0, np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
    ranked = pointer.predictability_sieve([x, z], tri, np.linspace(0.0, 6.0, 200))
    return bool(ranked[0][1] > ranked[1][1] and abs(ranked[0][1] - 1.0) < 1e-10)


def _check_ehrenfest() -> bool:
    space = fock.FockSpace(20)
    state = fock.coherent_state(space, 1.0)
    report = fock.ehrenfest_check(
        space, state, 1.0, 1.0, np.arange(0.0, 1.0 + 1e-3, 2e-3)
    )
    return bool(report.max_residual < 1e-4)


CHECKS = [
    ("state-algebra", _check_state_algebra),
    ("oracle-agreement", _check_oracle_agreement),
    ("eigenstate-flat", _check_eigenstate_flat),
    ("scaling-n8", _check_scaling_n8),
    ("luders-update", _check_luders),
    ("premeasure-unitary", _check_premeasure),
    ("photon-counting", _check_photon_counting),
    ("coherent-grid", _check_coherent_set),
    ("apparatus-model", _check_apparatus),
    ("sieve-order", _check_sieve_order),
    ("ehrenfest", _check_ehrenfest),
]


def run_check(config, out_dir, seed, workers, quiet) -> int:
    results = {}
    failed = 0
    for name, fn in CHECKS:
        try:
            passed = bool(fn())
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            passed = False
            if not quiet:
                print(f"FAIL {name}: {exc}")
        results[name] = passed
        if passed:
            if not quiet:
                print(f"ok   {name}")
        else:
            failed += 1
            print(f"FAIL {name}", file=sys.stderr)
    if out_dir is not None:
        prov = _provenance("check", config or {"experiment": "check"}, seed)
        _write_json(
            os.path.join(_ensure_out(out_dir), "check.json"),
            {"results": results, "failed": failed},
            prov,
            quiet,
        )
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------
# entry point

_RUNNERS = {
    "spin-bath": run_spin_bath,
    "measure": run_measure,
    "pointer": run_pointer,
    "fock": run_fock,
    "oracle-compare": run_oracle_compare,
    "check": run_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decolab",
        description="Reproducible dephasing and measurement experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--out", help="directory for output files")
        p.add_argument(
            "--seed",
            type=int,
            help=f"root PRNG seed (overrides ${SEED_ENV_VAR} and the config)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=os.cpu_count() or 1,
            help="worker processes for sweeps (default: hardware threads)",
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner = _RUNNERS[args.subcommand]
    try:
        max_workers = os.cpu_count() or 1
        if args.workers > max_workers:
            raise ConfigError(
                f"--workers {args.workers} exceeds the {max_workers} CPUs of this machine"
            )
        if args.subcommand == "check":
            config = (
                _load_config(args.config, "check") if args.config else {"experiment": "check"}
            )
            seed = _resolve_seed(args.seed, config)
            return runner(config, args.out, seed, args.workers, args.quiet)
        config = _load_config(args.config, args.subcommand)
        seed = _resolve_seed(args.seed, config)
        out_dir = _ensure_out(args.out)
        return runner(config, out_dir, seed, args.workers, args.quiet)
    except (ConfigError, ValueError, spin_bath.FitWindowError) as exc:
        # a value from the config that the library rejects (including
        # DimensionCapError and TruncationError) is a config error too
        print(f"decolab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
