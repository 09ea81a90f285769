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
package default.  ``_validate`` checks a config against its schema with
jsonschema's semantics for the keywords the schemas use, and hands the runner
an ``int`` wherever an integer field holds an integral float, so the runtime
needs numpy alone; the process pool is imported only when a pool starts.
Outputs are UTF-8 CSV ('.' decimal point, 17 significant digits) and JSON;
each file embeds a provenance block (artifact version, hash of the validated
config, seed) so identical config+seed reruns are byte-identical.

Each subcommand is one runner ``run_x(config, seed, workers, out)``.  ``main``
loads the config, resolves the seed, creates ``--out`` and hands the runner an
``_Output``, which alone decides where an artifact goes, what provenance is
stamped on it and whether progress lines are printed (``--quiet``).  A runner
writes each config section through ``out`` in a fixed order as soon as that
section is computed, rather than returning its tables.  A run that exits 2
has ``out`` remove the files it wrote and the ``--out`` it created
(``_Output.discard``), so a section that fails leaves ``--out`` as the run
found it; exits 0 and 1 keep every file.  ``spin-bath`` starts one
process pool per run (``_pmap``) and submits every ``scaling`` and
``gaussian_fit`` task up front; while the workers run, the parent evaluates
and writes ``trace.csv`` (10^5 rows in the benchmark) one slice of r(t)
at a time, as many rows as one ``states._BLOCK_BYTES`` block holds at
``_TRACE_ROW_BYTES`` a row, never holding the whole grid's r(t) or its rows
as Python floats.  Every section that holds a time grid (``trace``,
``scaling``, ``gaussian_fit``, and ``pointer``'s ``correlation`` and
``sieve``) has it walked by ``spin_bath._slices``, which alone picks the
evaluator and checks the whole grid before the first slice: ``trace``
directly, slice by slice, so a bad grid is rejected before ``trace.csv``
is opened; ``scaling`` through ``spin_bath.time_averaged_r2``, slice by
slice too; ``gaussian_fit`` through ``spin_bath._fit_on_grid``, which walks
only up to the fit window; the rest through
``spin_bath.decoherence_on_grid``, the walk's one-slice case.
``recurrence`` hands its horizon to ``spin_bath.recurrence_scan``, which
walks its grid a chunk at a time without building it.  All these grids
are uniform, so r(t) is evaluated there by angle addition on
64-sample blocks, and their r-derived columns reproduce across numpy and
libm builds only to its rounding floor, about N eps (1 + max |2 g t|);
reruns on one build are byte-identical.  ``oracle-compare`` evaluates r(t)
at random times (``spin_bath.decoherence_factor``).  Before it allocates
anything, a runner estimates each section's peak bytes from the config
alone and rejects, as a config error, any section over the one
``BYTE_BUDGET``, and sections that run at once when their sum is over it.
An estimate sums the private ``_*_bytes`` functions that sit beside the
library allocations they bound (``spin_bath._r_bytes`` for every section
that evaluates r(t) on a grid) and adds what the CLI itself holds: the tasks
handed to a pool, ``trace``'s slice of rows and each section's CSV writer.

Exit codes: 0 success, 1 invariant or acceptance failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__, fock, measurement, oracle, pointer, spin_bath, states

DEFAULT_SEED = spin_bath.DEFAULT_SEED
SEED_ENV_VAR = "DECOLAB_SEED"


#: Most Born draws one ``measure`` run may take: sampling runs at about
#: 4.5e7 shots/s, so the ceiling is about 22 s of work.
MAX_SHOTS = 1_000_000_000

#: Largest working set, in bytes, that one section of a spin-bath, pointer,
#: fock or oracle-compare run may need.
BYTE_BUDGET = 2 * 1024 ** 3


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
            "shots": {"type": "integer", "minimum": 1, "maximum": MAX_SHOTS},
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
                    "n_spins": {"type": "integer", "minimum": 1},
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
# config validation: the subset of JSON Schema that CONFIG_SCHEMAS uses

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    # as in jsonschema: 40.0 is an integer, true is not
    "integer": lambda v: (
        (isinstance(v, int) and not isinstance(v, bool))
        or (isinstance(v, float) and v.is_integer())
    ),
}

_BOUNDS = {
    "minimum": (lambda v, b: v < b, "is less than the minimum of"),
    "maximum": (lambda v, b: v > b, "is greater than the maximum of"),
    "exclusiveMinimum": (lambda v, b: v <= b, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (lambda v, b: v >= b, "is greater than or equal to the maximum of"),
}

#: The keywords ``_validate`` interprets (``description`` is ignored).
_KEYWORDS = frozenset(
    {"type", "required", "properties", "additionalProperties", "items", "minItems",
     "maxItems", "enum", "const", "anyOf", "description", *_BOUNDS}
)


def _same(a, b) -> bool:
    """JSON equality: true and 1 differ, 1 and 1.0 do not."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _validate(value, schema: dict, path: tuple = ()):
    """Check ``value`` against ``schema`` with jsonschema's semantics.

    Interprets the keywords in ``_KEYWORDS``, ``additionalProperties`` only
    as false, and raises ``TypeError`` on anything else, so a schema never
    asks for a check that is silently skipped.  A violation raises
    ``ConfigError`` naming its path with a jsonschema-style message; of
    several, the first met is named, a node's own keywords before its
    children's.  Returns ``value`` with every integral float in an
    integer-typed field (``40.0``) turned into an ``int``.
    """
    unknown = schema.keys() - _KEYWORDS
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise TypeError(f"config validation does not support schema keywords {sorted(unknown)}")

    def fail(message: str):
        where = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {message}")

    kind, props = schema.get("type"), schema.get("properties", {})
    if kind is not None and not _TYPES[kind](value):
        fail(f"{value!r} is not of type {kind!r}")
    if "const" in schema and not _same(value, schema["const"]):
        fail(f"{schema['const']!r} was expected")
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if _TYPES["number"](value):
        for key, (violates, text) in _BOUNDS.items():
            if key in schema and violates(value, schema[key]):
                fail(f"{value!r} {text} {schema[key]!r}")
        if kind == "integer":
            value = int(value)
    if isinstance(value, list):
        low, high = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if len(value) < low:
            fail(f"{value!r} {'should be non-empty' if low == 1 else 'is too short'}")
        if len(value) > high:
            fail(f"{value!r} {'is expected to be empty' if high == 0 else 'is too long'}")
        if "items" in schema:
            value = [_validate(v, schema["items"], path + (i,)) for i, v in enumerate(value)]
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        extras = sorted(value.keys() - props.keys()) if "additionalProperties" in schema else []
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            fail(f"Additional properties are not allowed "
                 f"({', '.join(map(repr, extras))} {verb} unexpected)")
    if "anyOf" in schema:
        for branch in schema["anyOf"]:
            try:
                value = _validate(value, branch, path)
                break
            except ConfigError:
                pass
        else:
            fail(f"{value!r} is not valid under any of the given schemas")
    if isinstance(value, dict):
        value = {
            k: _validate(v, props[k], path + (k,)) if k in props else v
            for k, v in value.items()
        }
    return value


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


def _pairs(values) -> list:
    """Complex numbers as JSON-ready ``[re, im]`` pairs."""
    return [[float(z.real), float(z.imag)] for z in values]


def _finite(text: str, source: str = "config", parse=float):
    """JSON number hook, ``parse`` float or int: NaN, +-Infinity and literals
    in ``source`` that overflow a double are config errors."""
    if not math.isfinite(float(text)):
        raise ConfigError(f"{source} holds the non-finite number {text}")
    return parse(text)


_integer = functools.partial(_finite, parse=int)  # ints stay exact: seeds reach 2^64


def _load_config(path: str, experiment: str) -> dict:
    if path is None:
        raise ConfigError(f"'{experiment}' needs --config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_float=_finite, parse_int=_integer, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the parser goes
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict) or not config:
        raise ConfigError("config must be a non-empty JSON object")
    # before the schema, whose const on "experiment" would hide which one it is
    if config.get("experiment", experiment) != experiment:
        raise ConfigError(
            f"config is for experiment {config['experiment']!r}, "
            f"but the '{experiment}' subcommand was invoked"
        )
    return _validate(config, CONFIG_SCHEMAS[experiment])


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


class _Output:
    """Where a run's artifacts go, what is stamped on them, and what is printed.

    Creates ``out_dir``; every file is named relative to it and carries the
    run's provenance block.  ``out_dir`` None (``check`` without ``--out``)
    writes nothing.  ``made`` lists what the run created, ``out_dir`` first
    if it was missing, then each file that was not there before, so that
    ``discard`` can remove them.  The writers are looked up as module globals
    on each call, so the benchmark's tracer can count what they write.
    """

    def __init__(self, out_dir, experiment: str, config: dict, seed: int, quiet: bool):
        self.made = [] if out_dir is None or os.path.lexists(out_dir) else [out_dir]
        if out_dir is not None:
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create --out {out_dir}: {exc}") from exc
        self.out_dir = out_dir
        self.prov = _provenance(experiment, config, seed)
        self.quiet = quiet

    def csv(self, name: str, header, rows) -> None:
        self._write(_write_csv, name, header, rows)

    def json(self, name: str, payload: dict) -> None:
        self._write(_write_json, name, payload)

    def _write(self, writer, name: str, *content) -> None:
        """``writer`` to ``name`` with the provenance block; an artifact
        that cannot be written is a ConfigError, as an --out that cannot be
        created is."""
        if self.out_dir is not None:
            path = os.path.join(self.out_dir, name)
            if not os.path.lexists(path):
                self.made.append(path)
            try:
                writer(path, *content, self.prov, self.quiet)
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc}") from exc

    def discard(self) -> None:
        """Remove what ``made`` lists, the files before ``out_dir``; what
        was there before the run stays."""
        for path in reversed(self.made):
            with contextlib.suppress(OSError):
                (os.rmdir if os.path.isdir(path) else os.remove)(path)

    def say(self, line: str) -> None:
        """Print a progress or summary line unless ``--quiet``."""
        if not self.quiet:
            print(line)


@contextlib.contextmanager
def _pmap(fn, payloads, workers: int):
    """Order-preserving map as a context manager: ``with _pmap(...) as results``.

    On entry every payload is submitted to one pool of ``min(workers,
    tasks)`` processes, and the block receives an iterator over the results
    in payload order, each drawn when it is ready (a task's exception is
    raised where its result is drawn).  The caller works while the pool
    runs.  On every exit path the pool is shut down and the tasks that have
    not started are cancelled.  With ``workers <= 1`` or a single payload
    the block receives a lazy in-process ``map`` and no pool starts.
    """
    payloads = list(payloads)
    if workers <= 1 or len(payloads) <= 1:
        yield map(fn, payloads)
        return
    # imported here: every run that never pools skips its import cost
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(workers, len(payloads)))
    try:
        futures = [pool.submit(fn, p) for p in payloads]
        yield (future.result() for future in futures)
    finally:
        pool.shutdown(cancel_futures=True)


def _bath_from(n_spins: int, ensemble: str, child_seed) -> spin_bath.SpinBathConfig:
    rng = np.random.default_rng(child_seed)
    if ensemble == "random":
        return spin_bath.SpinBathConfig.random(n_spins, rng)
    return spin_bath.SpinBathConfig.balanced(rng.uniform(0.0, 1.0, n_spins))


# --------------------------------------------------------------------------
# spin-bath

_SCALING_SAMPLES = 200001
_FIT_SAMPLES = 1200

# Working-set sizes the CLI itself owns, measured with tracemalloc and
# rounded up: per trace.csv row of the slice held as Python floats (157
# measured, with the row's share of the arrays; a slice is as many rows as
# one states._BLOCK_BYTES block holds), per task a section hands to
# the pool (seed, payload, result row; an oracle-compare task also its pool
# future, 2.4 KiB measured with a pool of 2 workers), and one section's CSV
# file, charged to every section and once to sections that run at once:
# csv.writer allocates a 128 KiB record buffer on its first row (CPython
# 3.11), 137 KB measured with the file's buffers.
_TRACE_ROW_BYTES = 160
_TASK_BYTES = 2048
_ORACLE_TASK_BYTES = 3072
_WRITER_BYTES = 160 * 1024


def _pooled_bytes(workers: int, tasks: int, per_task: int, task_bytes: int) -> int:
    """One task's working set per busy worker plus ``task_bytes`` for every task."""
    return min(max(workers, 1), tasks) * per_task + tasks * task_bytes


def spin_bath_bytes(config: dict, workers: int) -> dict:
    """Estimated peak bytes of each section of a spin-bath config.

    Worked out from the config alone, before anything is allocated: each
    section grows linearly with its time samples (grid points for
    ``recurrence``; ``spin_bath._r_bytes`` and ``_scan_bytes``), ``trace``
    adds one slice of Python rows and every section its CSV writer.  A
    pooled section holds one task per busy worker at a time.  ``trace``,
    ``scaling`` and ``gaussian_fit`` run at once, so ``run_spin_bath`` also
    bounds their sum.
    """
    need = {}
    if "trace" in config:
        sec = config["trace"]
        rows = min(sec["samples"], spin_bath._slice_size(_TRACE_ROW_BYTES))
        need["trace"] = spin_bath._r_bytes(sec["n_spins"], sec["samples"]) + rows * _TRACE_ROW_BYTES
    if "scaling" in config:
        sec = config["scaling"]
        per_task = spin_bath._r_bytes(max(sec["n_values"]), sec.get("samples", _SCALING_SAMPLES))
        need["scaling"] = _pooled_bytes(workers, len(sec["n_values"]), per_task, _TASK_BYTES)
    if "gaussian_fit" in config:
        sec = config["gaussian_fit"]
        per_task = spin_bath._r_bytes(sec["n_spins"], sec.get("samples", _FIT_SAMPLES))
        need["gaussian_fit"] = _pooled_bytes(workers, sec["n_seeds"], per_task, _TASK_BYTES)
    if "recurrence" in config:
        sec = config["recurrence"]
        if "couplings" in sec:
            g = np.abs(np.asarray(sec["couplings"], dtype=float))
            with np.errstate(over="ignore"):  # _scan_bytes rejects an infinite sum
                g_sq = float(np.dot(g, g))
            n, g_max = g.size, float(g.max())
        elif "n_spins" in sec:
            # couplings drawn from U(0, 1): bound the finest step any draw
            # needs; a bath past the budget is over it anyway, so clamping n
            # keeps the float arithmetic finite
            n = min(sec["n_spins"], BYTE_BUDGET)
            g_max, g_sq = 1.0, float(n)
        else:
            raise ConfigError("recurrence needs either 'couplings' or 'n_spins'")
        need["recurrence"] = spin_bath._scan_bytes(n, g_max, g_sq, sec["horizon"], sec["epsilon"])
    return {section: size + _WRITER_BYTES for section, size in need.items()}


def _enforce_budget(subcommand: str, need: dict, together=()) -> None:
    """Reject, before anything is allocated, a config estimated over ``BYTE_BUDGET``.

    Each section must fit alone, and the sections named in ``together``,
    which run at once, must fit by their sum, one CSV writer charged: they
    write their files one after another.
    """
    for section, size in need.items():
        if size > BYTE_BUDGET:
            raise ConfigError(
                f"{subcommand} section {section!r} exceeds the "
                f"{BYTE_BUDGET >> 30} GiB memory budget"
            )
    running = [section for section in together if section in need]
    writers = max(len(running) - 1, 0) * _WRITER_BYTES
    if sum(need[section] for section in running) - writers > BYTE_BUDGET:
        raise ConfigError(
            f"{subcommand} sections {', '.join(map(repr, running))} run at once "
            f"and together exceed the {BYTE_BUDGET >> 30} GiB memory budget"
        )


def _scaling_task(payload):
    n, span, samples, child = payload
    cfg = _bath_from(n, "balanced", child)
    g_min = float(cfg.g.min())
    t_end = span / g_min
    if not math.isfinite(t_end):
        raise ValueError(f"span_periods {span:g} over the weakest coupling {g_min:g} "
                         "overflows the time grid")
    t_grid = np.linspace(0.0, t_end, samples)
    mean = spin_bath.time_averaged_r2(cfg, t_grid)
    return n, mean


def _fit_task(payload):
    """Gaussian-decay fit of one balanced bath on ``samples`` points up to
    5/Gamma0, Gamma0^2 = 4 sum g^2; ``spin_bath._fit_on_grid`` evaluates r(t)
    only up to the fit window."""
    n, samples, child = payload
    cfg = _bath_from(n, "balanced", child)
    gamma0 = 2.0 * math.sqrt(float(np.dot(cfg.g, cfg.g)))
    fit = spin_bath._fit_on_grid(cfg, np.linspace(0.0, 5.0 / gamma0, samples))
    return fit.gamma, fit.r_squared, fit.t_max


def _spin_bath_task(payload):
    """One pooled spin-bath task: ``("scaling", args)`` or ``("gaussian_fit", args)``."""
    section, args = payload
    return _scaling_task(args) if section == "scaling" else _fit_task(args)


def _trace_rows(t_grid, slices):
    """trace.csv's rows, made from each (start, r) slice of ``t_grid`` as it comes."""
    for lo, part in slices:
        yield from zip(
            t_grid[lo : lo + part.size].tolist(),
            part.real.tolist(),
            part.imag.tolist(),
            (np.abs(part) ** 2).tolist(),
        )


def _write_trace(sec: dict, child, out) -> None:
    cfg = _bath_from(sec["n_spins"], sec.get("ensemble", "balanced"), child)
    t_grid = np.linspace(0.0, sec["t_max"], sec["samples"])
    # checks the whole grid before trace.csv is opened
    slices = spin_bath._slices(cfg, t_grid, spin_bath._slice_size(_TRACE_ROW_BYTES), "t_grid")
    out.csv("trace.csv", ["t", "re_r", "im_r", "abs_r_squared"], _trace_rows(t_grid, slices))


def run_spin_bath(config, seed, workers, out) -> int:
    # the parent writes trace.csv while the pool runs scaling and gaussian_fit
    together = ("trace", "scaling", "gaussian_fit")
    _enforce_budget("spin-bath", spin_bath_bytes(config, workers), together)
    root = np.random.SeedSequence(seed)
    kids = root.spawn(4)

    payloads = []
    if "scaling" in config:
        sec = config["scaling"]
        span = sec.get("span_periods", 400.0)
        samples = sec.get("samples", _SCALING_SAMPLES)
        children = kids[1].spawn(len(sec["n_values"]))
        payloads += [("scaling", (n, span, samples, child))
                     for n, child in zip(sec["n_values"], children)]
    n_scaling = len(payloads)
    if "gaussian_fit" in config:
        sec = config["gaussian_fit"]
        samples = sec.get("samples", _FIT_SAMPLES)
        children = kids[2].spawn(sec["n_seeds"])
        payloads += [("gaussian_fit", (sec["n_spins"], samples, child)) for child in children]

    # files are written in the same order as without a pool
    with _pmap(_spin_bath_task, payloads, workers) as results:
        if "trace" in config:
            _write_trace(config["trace"], kids[0], out)
        if "scaling" in config:
            means = itertools.islice(results, n_scaling)
            rows = [(n, mean, math.log2(mean)) for n, mean in means]
            out.csv("scaling.csv", ["n_spins", "mean_abs_r_squared", "log2_mean"], rows)
        if "gaussian_fit" in config:
            rows = [(idx, *fit) for idx, fit in enumerate(results)]
            out.csv("gaussian_fit.csv", ["draw", "gamma", "r_squared", "t_max"], rows)

    if "recurrence" in config:
        sec = config["recurrence"]
        if "couplings" in sec:
            cfg = spin_bath.SpinBathConfig.balanced(np.asarray(sec["couplings"], float))
        else:  # spin_bath_bytes has rejected a section with neither key
            cfg = _bath_from(sec["n_spins"], "balanced", kids[3])
        rows = spin_bath.recurrence_scan(cfg, sec["horizon"], sec["epsilon"])
        out.csv("recurrence.csv", ["t_enter", "t_exit"], rows)
    return 0


# --------------------------------------------------------------------------
# measure


def _load_kraus(path) -> measurement.KrausSet:
    """The Kraus set in ``path``; its input must be the system (2) or the joint state (4)."""
    finite, integer = (functools.partial(hook, source="Kraus file") for hook in (_finite, _integer))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            kset = measurement.KrausSet.from_dict(
                json.load(fh, parse_float=finite, parse_int=integer, parse_constant=finite))
    except (OSError, json.JSONDecodeError, RecursionError, ValueError) as exc:
        raise ConfigError(f"cannot load Kraus set: {exc}") from exc
    if kset.dim_in not in (2, 4):
        raise ConfigError(
            f"Kraus input dimension {kset.dim_in} matches neither the "
            "system (2) nor the joint state (4)"
        )
    return kset


def run_measure(config, seed, workers, out) -> int:
    # a bad Kraus file is reported before any shot is sampled or file written
    kset = _load_kraus(config["kraus_file"]) if "kraus_file" in config else None
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
    rows = [(names[i], str(int(counts[i])), counts[i] / shots, probs[i]) for i in range(4)]
    out.csv("outcomes.csv", ["outcome", "count", "frequency", "born_probability"], rows)
    if config.get("dump_states", True):
        state = {"dims": list(joint.dims), "amps": _pairs(joint.amps)}
        out.json("premeasured_state.json", {"state": state})
        rho = states.reduced_density(joint, keep=0)
        density = {"dims": list(rho.dims), "mat": _pairs(rho.mat.reshape(-1))}
        out.json("reduced_system.json", {"density": density})
    if kset is not None:
        target = states.reduced_density(joint, keep=0) if kset.dim_in == 2 else joint.density()
        povm = measurement.povm_probabilities(target, kset)
        report = measurement.validate_kraus(kset)
        out.say(
            f"kraus completeness deviation {report.deviation:.3e} "
            f"(strict pass: {report.passed})"
        )
        rows = [(str(lbl), p) for lbl, p in zip(kset.labels, povm)]
        out.csv("povm.csv", ["label", "probability"], rows)
    return 0


# --------------------------------------------------------------------------
# pointer


def pointer_bytes(config: dict) -> dict:
    """Estimated peak bytes of each section of a pointer config.

    Worked out from the config alone, before anything is allocated.  The
    bath is built first and held to the end, so it is its own entry,
    ``environment``, and part of every other one.  ``correlation`` and
    ``sieve`` grow linearly with their time samples, ``correlation`` also
    with its angles; ``apparatus`` is a closed form, linear in its samples
    times mixture components.  Every entry adds a CSV writer: the bath is
    held while each section's file is written.
    """
    n_spins = config["environment"]["n_spins"]
    bath = spin_bath._bath_bytes(n_spins)
    need = {"environment": bath}
    if "correlation" in config:
        sec = config["correlation"]
        need["correlation"] = pointer._correlation_bytes(
            n_spins, sec["samples"], len(sec["thetas"]))
    if "sieve" in config:
        need["sieve"] = spin_bath._r_bytes(n_spins, config["sieve"]["samples"])
    if "apparatus" in config:
        sec = config["apparatus"]
        need["apparatus"] = bath + pointer._apparatus_bytes(
            len(sec["amplitudes"]), len(sec["decay_rates"]), sec["samples"])
    return {section: size + _WRITER_BYTES for section, size in need.items()}


def _sieve_bases() -> dict:
    """The sieve's candidates by name: the monitored basis and its conjugate.

    Built on call, not at import: the unitarity check's matmul would start
    BLAS in every CLI run.
    """
    return {
        "monitored": states.BasisSpec(0, np.eye(2)),
        "conjugate": states.BasisSpec(0, np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)),
    }


def run_pointer(config, seed, workers, out) -> int:
    _enforce_budget("pointer", pointer_bytes(config))
    root = np.random.SeedSequence(seed)
    amps = config["branch_amplitudes"]
    env = config["environment"]
    bath = _bath_from(env["n_spins"], env.get("ensemble", "balanced"), root.spawn(1)[0])
    tri = pointer.TriConfig(_complex_pair(amps["a"]), _complex_pair(amps["b"]), bath)

    if "correlation" in config:
        sec = config["correlation"]
        t_grid = np.linspace(0.0, sec["t_max"], sec["samples"])
        r = spin_bath.decoherence_on_grid(bath, t_grid)
        columns = [pointer._rotated_correlation(tri, th, r) for th in sec["thetas"]]
        header = ["t"] + [f"corr_theta_{theta:g}" for theta in sec["thetas"]]
        out.csv("correlation.csv", header, zip(t_grid, *columns))

    if "sieve" in config:
        sec = config["sieve"]
        t_grid = np.linspace(0.0, sec["t_max"], sec["samples"])
        bases = _sieve_bases()
        ranked = pointer.predictability_sieve(bases.values(), tri, t_grid)
        name = {id(b): label for label, b in bases.items()}
        rows = [(name[id(b)], score) for b, score in ranked]
        out.csv("sieve.csv", ["basis", "time_averaged_purity"], rows)

    if "apparatus" in config:
        sec = config["apparatus"]
        t_grid = np.linspace(0.0, sec["t_max"], sec["samples"])
        offdiag, purity = pointer.apparatus_dephasing(
            [_complex_pair(p) for p in sec["amplitudes"]],
            sec["decay_rates"],
            sec.get("weights"),
            t_grid,
        )
        out.csv("apparatus.csv", ["t", "offdiag_sum", "purity"], zip(t_grid, offdiag, purity))
    return 0


# --------------------------------------------------------------------------
# fock


_FOCK_DENSITIES = [[8, 8], [16, 16], [32, 32]]


def fock_bytes(config: dict) -> dict:
    """Estimated peak bytes of each section of a fock config.

    Worked out from the config alone, before anything is allocated.  Every
    section holds the FockSpace operators.  Photon counting reads |psi_n|^2
    off the d amplitudes of the coherent state, and its completeness row is
    exact, so both add only O(d); the coherent-grid audit holds the K x d
    amplitude table of the largest grid (the 64 x 64 default included);
    ``ehrenfest`` one eigendecomposition and its states (``fock._*_bytes``).
    Every section adds its CSV writer.  ``FockSpace`` itself refuses d above
    ``states.DENSITY_CAP``, which stops a ``counting`` section past n_max
    4095 before this estimate would.
    """
    n_max = config["n_max"]
    need = {}
    if "counting" in config:
        need["counting"] = fock._space_bytes(n_max)
    if "completeness" in config:
        densities = config["completeness"].get("densities", _FOCK_DENSITIES)
        nodes = max([n_r * n_phi for n_r, n_phi in densities] + [fock.DEFAULT_DENSITY ** 2])
        need["completeness"] = fock._audit_bytes(n_max, nodes)
    if "ehrenfest" in config:
        sec = config["ehrenfest"]
        need["ehrenfest"] = fock._ehrenfest_bytes(n_max, sec["t_max"] / sec["dt"] + 1.0)
    return {section: size + _WRITER_BYTES for section, size in need.items()}


def run_fock(config, seed, workers, out) -> int:
    _enforce_budget("fock", fock_bytes(config))
    space = fock.FockSpace(config["n_max"])

    if "counting" in config:
        alpha = _complex_pair(config["counting"]["alpha"])
        amps = fock.coherent_state(space, alpha).amps
        # M_n = |0><n| makes Tr[M_n^dag M_n |psi><psi|] = |psi_n|^2
        probs = (amps * amps.conj()).real
        rows = [(str(n), p) for n, p in enumerate(probs)]
        out.csv("counting.csv", ["n", "probability"], rows)

    if "completeness" in config:
        sec = config["completeness"]
        # sum_n M_n^dag M_n = sum_n |n><n| is the identity, so the deviation is 0
        rows = [("photon_counting", "exact", 0.0)]
        default = fock.default_coherent_grid(space)
        radius = sec.get("radius", default.radius)
        for n_r, n_phi in sec.get("densities", _FOCK_DENSITIES):
            dev = fock.coherent_completeness_deviation(
                space, fock.polar_grid(radius, n_r, n_phi)
            )
            rows.append(("coherent_grid", f"{n_r}x{n_phi}", dev))
        rows.append(
            ("coherent_grid", "default", fock.coherent_completeness_deviation(space, default))
        )
        out.csv("completeness.csv", ["family", "grid", "max_deviation"], rows)

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
        out.say(f"ehrenfest max residual {report.max_residual:.6e} at dt {dt:g}")
        out.csv("ehrenfest.csv", ["t", "residual"], zip(report.t, report.residuals))
    return 0


# --------------------------------------------------------------------------
# oracle-compare

_TIMES_PER_TRIAL = 20
_ORACLE_T_MAX = 20.0


def oracle_compare_bytes(config: dict, workers: int) -> dict:
    """Estimated peak bytes of an oracle-compare run, keyed ``"run"``.

    Worked out from the config alone, before anything is allocated.  Each
    busy worker takes one bath of the largest N at a time over
    ``times_per_trial`` times: the closed form's bath and tile buffers
    (``spin_bath._r_bytes`` at no points, since the oracle's per-time charge
    covers the closed form's times too) and the oracle's 2^(N+1)
    amplitudes; the parent holds every task's seed, payload and row, and
    the CSV writer.
    """
    tasks = config["trials"] * len(config["n_values"])
    spins, times = max(config["n_values"]), config.get("times_per_trial", _TIMES_PER_TRIAL)
    per_task = spin_bath._r_bytes(spins, 0) + oracle._oracle_r_bytes(2 ** (spins + 1), times)
    run = _pooled_bytes(workers, tasks, per_task, _ORACLE_TASK_BYTES)
    return {"run": run + _WRITER_BYTES}


def oracle_float_floor(config: dict) -> float:
    """Rounding floor of |closed form - oracle|: eps * t_max * max N.

    Both sides round phases of size t * sum|g|, and random-ensemble
    couplings are drawn from U(0, 1), so sum|g| < N.
    """
    t_max = config.get("t_max", _ORACLE_T_MAX)
    return float(np.finfo(float).eps) * t_max * max(config["n_values"])


def _oracle_task(payload):
    n, times_per_trial, t_max, child = payload
    rng = np.random.default_rng(child)
    while True:
        cfg = spin_bath.SpinBathConfig.random(n, rng)
        if abs(cfg.a) > 1e-3 and abs(cfg.b) > 1e-3:
            break
    # random times, not a grid: the arbitrary-time path
    t = rng.uniform(0.0, t_max, times_per_trial)
    dev = np.abs(spin_bath.decoherence_factor(cfg, t) - oracle.oracle_r(cfg, t))
    return n, float(dev.max())


def run_oracle_compare(config, seed, workers, out) -> int:
    _enforce_budget("oracle-compare", oracle_compare_bytes(config, workers))
    tolerance = float(config.get("tolerance", 1e-10))
    floor = oracle_float_floor(config)
    if tolerance < floor:
        raise ConfigError(
            f"tolerance {tolerance:g} is below the float floor {floor:.3g} "
            "(eps * t_max * max n_values)"
        )
    times = int(config.get("times_per_trial", _TIMES_PER_TRIAL))
    t_max = float(config.get("t_max", _ORACLE_T_MAX))
    n_values = list(config["n_values"]) * int(config["trials"])
    children = np.random.SeedSequence(seed).spawn(len(n_values))
    payloads = [(n, times, t_max, child) for n, child in zip(n_values, children)]
    with _pmap(_oracle_task, payloads, workers) as results:
        results = list(results)
    rows = [(idx // len(config["n_values"]), n, dev) for idx, (n, dev) in enumerate(results)]
    out.csv("oracle_compare.csv", ["trial", "n_spins", "max_abs_deviation"], rows)
    worst = max(dev for _, dev in results)
    ok = worst <= tolerance
    out.say(
        f"worst |closed form - oracle| = {worst:.3e} over "
        f"{len(payloads)} configs ({'ok' if ok else 'FAIL'} at {tolerance:g}; "
        f"float floor {floor:.3g})"
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
    children = np.random.SeedSequence(20).spawn(10)
    payloads = [(2 + k % 7, 5, 20.0, child) for k, child in enumerate(children)]
    return all(dev <= 1e-10 for _, dev in map(_oracle_task, payloads))


def _check_eigenstate_flat() -> bool:
    n = 6
    cfg = spin_bath.SpinBathConfig(
        0.6, 0.8, np.linspace(0.2, 1.0, n), np.ones(n), np.zeros(n)
    )
    r = spin_bath.decoherence_on_grid(cfg, np.linspace(0.0, 40.0, 2000))
    return bool(np.max(np.abs(np.abs(r) - 1.0)) < 1e-12)


def _check_scaling_n8() -> bool:
    _, avg = _scaling_task((8, 400.0, 120001, 8))
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
    if not kset.completeness_deviation() <= 1e-14:
        return False
    amps = np.zeros(space.dim)
    amps[5] = 1.0
    rec = measurement.kraus_update(
        states.StateVector((space.dim,), amps).density(), kset, 5
    )
    return bool(rec.post_state.mat[0, 0].real > 1.0 - 1e-12)


def _check_coherent_set() -> bool:
    return bool(fock.coherent_completeness_deviation(fock.FockSpace(10)) < 0.02)


def _check_apparatus() -> bool:
    c = np.array([0.5, 0.5, math.sqrt(0.5)], dtype=complex)
    model = pointer.ApparatusModel(c, lambda i, j, t, m: 1.0 if i == j else math.exp(-0.7 * t))
    rho = pointer.apparatus_reduced_state(model, 1.3)
    want = np.outer(c, c.conj()) * math.exp(-0.7 * 1.3)
    np.fill_diagonal(want, np.abs(c) ** 2)
    worst = float(np.max(np.abs(rho.mat[1:, 1:] - want)))
    # the closed form the CLI runs agrees with the dense matrix
    offdiag, pure = pointer.apparatus_dephasing(c, [0.7], None, [1.3])
    worst = max(
        worst,
        abs(offdiag[0] - states.offdiag_norm(rho, states.BasisSpec(0, np.eye(4)))),
        abs(pure[0] - states.purity(rho)),
    )
    return bool(worst < 1e-12)


def _check_sieve_order() -> bool:
    bath = _bath_from(6, "balanced", 14)
    tri = pointer.TriConfig(1 / math.sqrt(2), 1 / math.sqrt(2), bath)
    z, x = _sieve_bases().values()
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


def run_check(config, seed, workers, out) -> int:
    results = {}
    failed = 0
    for name, fn in CHECKS:
        reason = ""
        try:
            passed = bool(fn())
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            passed = False
            reason = f": {type(exc).__name__}: {exc}"
        results[name] = passed
        if passed:
            out.say(f"ok   {name}")
        else:
            failed += 1
            print(f"FAIL {name}{reason}", file=sys.stderr)
    out.json("check.json", {"results": results, "failed": failed})
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
    check = args.subcommand == "check"
    out = None
    try:
        max_workers = os.cpu_count() or 1
        if args.workers < 1:
            raise ConfigError(f"--workers {args.workers} is below 1")
        if args.workers > max_workers:
            raise ConfigError(
                f"--workers {args.workers} exceeds the {max_workers} CPUs of this machine"
            )
        if check and not args.config:
            config = {"experiment": "check"}
        else:
            config = _load_config(args.config, args.subcommand)
        seed = _resolve_seed(args.seed, config)
        if args.out is None and not check:
            raise ConfigError("this subcommand needs --out")
        out = _Output(args.out, args.subcommand, config, seed, args.quiet)
        return runner(config, seed, args.workers, out)
    except (ConfigError, ValueError, spin_bath.FitWindowError) as exc:
        # a value from the config that the library rejects (including
        # DimensionCapError and TruncationError) is a config error too
        print(f"decolab: {exc}", file=sys.stderr)
        if out is not None:  # exit 2 leaves --out as the run found it
            out.discard()
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
