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
seed resolved as: ``--seed`` flag > ``DECOLAB_SEED`` env var > the config's
``seed``, whose schema ``default`` is ``spin_bath.DEFAULT_SEED``.
``_validate`` checks a config against its schema with jsonschema's semantics
for the keywords the schemas use, and hands the runner an ``int`` wherever
an integer field holds an integral float, so the runtime needs numpy alone;
the process pool is imported only when a pool starts.
Outputs are UTF-8 CSV (numbers as printf's ``%.17g``) and JSON;
each file embeds a provenance block (artifact version, hash of the validated
config, seed) so identical config+seed reruns are byte-identical.  A table
of numbers alone reaches the CSV writer as 2-D float arrays, a table of
columns as many arrays of one writer piece each (``_table``), which its
``_Numbers`` formats a block at a time; the four tables that hold text
(``outcomes``, ``povm``, ``sieve``, ``completeness``) reach it as rows,
which ``csv.writer`` writes.

Each subcommand is one runner ``run_x(config, seed, workers, out)``.  ``main``
loads the config, fills in every omitted field that has a schema ``default``
(``_with_defaults``), resolves the seed from the filled config, creates
``--out`` and hands the runner an ``_Output``, which alone decides where an
artifact goes, what provenance is stamped on it and whether progress lines
are printed (``--quiet``), and the filled config; the provenance hashes the
config as written.  A runner and its byte estimate read each such field
once, from the filled config.  A runner writes each config section through
``out`` in a fixed order as soon as that section is computed, rather than
returning its tables.  A run that
exits 2 has ``out`` remove the files it wrote and the directories it created
for ``--out`` (``_Output.discard``), so a section that fails leaves
``--out`` as the run found it; exits 0 and 1 keep every file.
``spin-bath`` starts one process pool per run (``_pmap``) and submits
its ``scaling`` and ``gaussian_fit`` tasks up front as a few contiguous
ranges of task indices a worker (``_chunks``), each run by ``_task_rows``,
which rebuilds every task's seed from its spawn key, so the parent holds
no per-task seed, payload or future; while the workers run, the parent
evaluates
and writes ``trace.csv`` (10^5 rows in the benchmark) one slice of r(t)
at a time, as many rows as one ``states._BLOCK_BYTES`` block holds at
four ``_CELL_BYTES`` a row: each slice is one (n, 4) array, which the CSV
writer's ``_Numbers`` turns into text in one piece, so the whole grid's
r(t) or text is never held.  Every section's time grid (``trace``,
``scaling``, ``gaussian_fit``, and ``pointer``'s ``correlation`` and
``sieve``) is walked by ``spin_bath._slices``, which alone picks the
evaluator and checks the whole grid before the first slice: ``trace``
directly, slice by slice, so a bad grid is rejected before ``trace.csv``
is opened; ``scaling`` through ``spin_bath.time_averaged_r2``, slice by
slice too; ``gaussian_fit`` through ``spin_bath._fit_on_grid``, which walks
only up to the fit window; the rest through
``spin_bath.decoherence_on_grid``, the walk's one-slice case.  ``trace``
and ``gaussian_fit`` never build their grids: they hand the walk
``np.linspace(0, t_max, samples)`` as (samples, step) and form only the
times they write or fit (``spin_bath._grid_times``).  ``recurrence`` hands
its horizon to ``spin_bath.recurrence_scan``, which walks its grid a chunk
at a time without building it either.  All these grids
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
that evaluates r(t) on a grid) and the pooled tasks, one ``_TASK_BYTES``
each, a charge well over the result row the parent holds a task, which
also bounds how many tasks a run may start.  ``_enforce_budget`` alone
adds the CSV writer, whose piece of formatted numbers covers ``trace``'s
slice of rows: once to each section, and once to the sum of the sections
that run at once, since they write their files one after another.

Exit codes: 0 success, 1 invariant or acceptance failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, fock, measurement, oracle, pointer, spin_bath, states

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
# config schemas (published: see README), built from the fragments below.
# Every object is closed, and ``_validate`` supports ``additionalProperties``
# only as false, so ``_closed`` is the one place that writes that rule.


def _closed(properties: dict, required=(), **rules) -> dict:
    """An object that admits ``properties`` alone and needs ``required``."""
    schema = {"type": "object", "additionalProperties": False, "properties": properties, **rules}
    if required:
        schema["required"] = list(required)
    return schema


def _any_of(keys) -> list:
    """``anyOf`` branches that an object meets by holding one of ``keys``."""
    return [{"required": [key]} for key in keys]


def _nonempty(items: dict, **rules) -> dict:
    """An array of at least one ``items``."""
    return {"type": "array", "items": items, "minItems": 1, **rules}


_COMPLEX = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2,
            "description": "[re, im] pair"}
_SEED = {"type": "integer", "minimum": 0, "default": spin_bath.DEFAULT_SEED}
_QUBIT = _closed({"a": _COMPLEX, "b": _COMPLEX}, ["a", "b"])
_ENSEMBLE = {"enum": ["balanced", "random"], "default": "balanced"}
_GRID = {  # a uniform time grid from 0 to t_max
    "t_max": {"type": "number", "exclusiveMinimum": 0},
    "samples": {"type": "integer", "minimum": 2},
}


def _timed(properties: dict, required=()) -> dict:
    """A section over a ``_GRID``: ``properties``, then ``t_max`` and ``samples``."""
    return _closed({**properties, **_GRID}, [*required, *_GRID])


def _root(experiment: str, properties: dict, required=(), sections=None) -> dict:
    """A subcommand's schema: the ``experiment`` const and ``seed``, then
    ``properties`` and ``sections``.  A config needs ``experiment``,
    ``required`` and one of ``sections``; ``check`` runs without a config,
    so a check config needs nothing."""
    sections = sections or {}
    rules = {"anyOf": _any_of(sections)} if sections else {}
    needs = [] if experiment == "check" else ["experiment", *required]
    properties = {"experiment": {"const": experiment}, "seed": _SEED, **properties, **sections}
    return _closed(properties, needs, **rules)


CONFIG_SCHEMAS: dict[str, dict] = {
    "spin-bath": _root("spin-bath", {}, sections={
        "trace": _timed({
            "n_spins": {"type": "integer", "minimum": 1},
            "ensemble": _ENSEMBLE,
        }, ["n_spins"]),
        "scaling": _closed({
            "n_values": _nonempty({"type": "integer", "minimum": 1}),
            "span_periods": {"type": "number", "exclusiveMinimum": 0, "default": 400.0},
            "samples": {"type": "integer", "minimum": 100, "default": 200001},
        }, ["n_values"]),
        "gaussian_fit": _closed({
            "n_spins": {"type": "integer", "minimum": 2},
            "n_seeds": {"type": "integer", "minimum": 1},
            "samples": {"type": "integer", "minimum": 50, "default": 1200},
        }, ["n_spins", "n_seeds"]),
        "recurrence": _closed({
            "couplings": _nonempty({"type": "number"}),
            "n_spins": {"type": "integer", "minimum": 1},
            "horizon": {"type": "number", "exclusiveMinimum": 0},
            "epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
        }, ["horizon", "epsilon"], anyOf=_any_of(["couplings", "n_spins"])),
    }),
    "measure": _root("measure", {
        "system": _QUBIT,
        "shots": {"type": "integer", "minimum": 1, "maximum": MAX_SHOTS},
        "kraus_file": {"type": "string"},
        "dump_states": {"type": "boolean", "default": True},
    }, ["system", "shots"]),
    "pointer": _root("pointer", {
        "branch_amplitudes": _QUBIT,
        "environment": _closed({
            "n_spins": {"type": "integer", "minimum": 1},
            "ensemble": _ENSEMBLE,
        }, ["n_spins"]),
    }, ["branch_amplitudes", "environment"], sections={
        "correlation": _timed({
            "thetas": _nonempty({"type": "number", "minimum": 0, "maximum": math.pi / 2}),
        }, ["thetas"]),
        "sieve": _timed({}),
        "apparatus": _timed({
            "amplitudes": _nonempty(_COMPLEX),
            "decay_rates": _nonempty({"type": "number", "minimum": 0}),
            "weights": _nonempty({"type": "number", "minimum": 0}),
        }, ["amplitudes", "decay_rates"]),
    }),
    "fock": _root("fock", {"n_max": {"type": "integer", "minimum": 2}}, ["n_max"], sections={
        "counting": _closed({"alpha": _COMPLEX}, ["alpha"]),
        "completeness": _closed({
            "radius": {"type": "number", "exclusiveMinimum": 0},
            "densities": _nonempty({"type": "array", "items": {"type": "integer", "minimum": 1},
                                    "minItems": 2, "maxItems": 2},
                                   default=[[8, 8], [16, 16], [32, 32]]),
        }),
        "ehrenfest": _closed({
            "alpha": _COMPLEX,
            "omega": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
            "mass": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
            "t_max": {"type": "number", "exclusiveMinimum": 0},
            "dt": {"type": "number", "exclusiveMinimum": 0},
        }, ["alpha", "t_max", "dt"]),
    }),
    "oracle-compare": _root("oracle-compare", {
        "n_values": _nonempty({"type": "integer", "minimum": 1, "maximum": 14}),
        "trials": {"type": "integer", "minimum": 1},
        "times_per_trial": {"type": "integer", "minimum": 1, "default": 20},
        "t_max": {"type": "number", "exclusiveMinimum": 0, "default": 20.0},
        "tolerance": {"type": "number", "exclusiveMinimum": 0, "default": 1e-10},
    }, ["n_values", "trials"]),
    "check": _root("check", {}),
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

#: The keywords ``_validate`` interprets (``description`` and ``default``
#: are annotations it ignores, as jsonschema does).
_KEYWORDS = frozenset(
    {"type", "required", "properties", "additionalProperties", "items", "minItems",
     "maxItems", "enum", "const", "anyOf", "description", "default", *_BOUNDS}
)


def _same(a, b) -> bool:
    """JSON equality: true and 1 differ, 1 and 1.0 do not."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _validate(value, schema: dict, path: tuple = ()):
    """Check ``value`` against ``schema`` with jsonschema's semantics.

    Interprets the keywords in ``_KEYWORDS``, ``additionalProperties`` only
    as false, and raises ``TypeError`` on anything else, so a schema never
    asks for a check that is silently skipped.  A violation raises
    ``ConfigError`` naming its path with a jsonschema-style message (an
    ``anyOf`` whose every branch asks for one key names those keys); of
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
            keys = [branch["required"][0] for branch in schema["anyOf"]
                    if branch.keys() == {"required"} and len(branch["required"]) == 1]
            if len(keys) == len(schema["anyOf"]):  # each branch asks for one key
                fail(f"needs one of {', '.join(map(repr, keys))}")
            fail(f"{value!r} is not valid under any of the given schemas")
    if isinstance(value, dict):
        value = {
            k: _validate(v, props[k], path + (k,)) if k in props else v
            for k, v in value.items()
        }
    return value


def _with_defaults(config: dict, schema: dict) -> dict:
    """A copy of ``config`` in which every omitted property that has a
    ``default`` in ``schema`` takes it, at every depth of nested objects."""
    props = schema.get("properties", {})
    filled = {key: copy.deepcopy(sub["default"]) for key, sub in props.items() if "default" in sub}
    for key, item in config.items():
        filled[key] = _with_defaults(item, props.get(key, {})) if isinstance(item, dict) else item
    return filled


# --------------------------------------------------------------------------
# plumbing


def _config_hash(config: dict) -> str:
    import hashlib  # on first use: importing decolab.cli alone maps no libcrypto (3.5 MiB)

    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _provenance(experiment: str, config: dict, seed: int) -> dict:
    return {
        "artifact_version": __version__,
        "experiment": experiment,
        "config_sha256": _config_hash(config),
        "seed": int(seed),
    }


#: Bytes a number of a piece costs while ``_Numbers.lines`` formats it,
#: measured with tracemalloc and rounded up (182 measured): its float64
#: value, its share of the record, blend and mask buffers (3 x 32), and the
#: larger of the exact product's float temporaries and the kept characters
#: with their layout.
_CELL_BYTES = 200

# A number's text is laid out in 32 slots, then kept by a mask: slot 0 the
# sign, 2-5 the zeros of "0.000", 6-22 the 17 digits and 23 the slot the
# decimal point shifts them into, 24-28 "e+XXX", 29 the separator (',', or
# '\r' after a row's last number) and 30 the '\n' that ends a row.
_SLOTS = 32
_RECORD = b"- 0000" + b"0" * 18 + b"e+000,\n "
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into 26-bit halves
_TIE_BAND = 2.0 ** -44


def _power_of_ten(k: int) -> tuple:
    """10^k as (H, Hh, Hl, L, s) with 10^k = (H + L + d) 2^(s + 53), |d| <= 2^-54:
    H an integer in [2^52, 2^53) and Hh + Hl its Veltkamp split, 0 <= L < 1,
    all worked out from exact integers."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    shift = num.bit_length() - 53 if k >= 0 else -52 - den.bit_length()
    if shift < 0:
        num <<= -shift
    else:
        den <<= shift
    whole, rest = divmod(num, den)
    hi = float(whole)  # 53 bits: exact
    split = hi * _SPLITTER
    hi_hi = split - (split - hi)
    return hi, hi_hi, hi - hi_hi, rest / den, shift - 53


@functools.cache
def _number_tables() -> dict:
    """``_Numbers``'s lookup tables by attribute name, built on a process's
    first array of numbers (about 100 KB), and its cache of powers of ten."""
    neg, first, end, form, last = np.indices((2, 5, 18, 3, 2)).reshape(5, -1)
    slot = np.arange(_SLOTS)
    # which slots a number keeps, by (sign, first kept slot 2-6, last
    # kept slot 6-23, exponent none / 2 / 3 digits, last of its row)
    mask = (slot >= first[:, None] + 2) & (slot <= end[:, None] + 6)
    mask[:, 0] = neg == 1
    mask[:, 24:29] = (form > 0)[:, None]
    mask[:, 26] &= form == 2
    mask[:, 29] = True
    mask[:, 30] = last == 1
    # where the point goes: after slot 2-22, or nowhere (the last row)
    point = np.append(np.arange(2, 23), _SLOTS)[:, None]
    kept = ((slot <= point) | (slot >= 24)).astype(np.uint8)
    # the characters of each group of two and of four digits
    pairs = np.arange(100, dtype=np.uint8)
    pairs = np.stack([pairs // 10, pairs % 10], axis=1) + np.uint8(ord("0"))
    quads = np.empty((100, 100, 4), np.uint8)
    quads[:, :, :2], quads[:, :, 2:] = pairs[:, None], pairs
    # trailing zeros of each group of four digits, 4 for 0000
    zeros = np.zeros(10 ** 4, np.uint8)
    for power in range(1, 5):
        zeros[::10 ** power] += 1
    # by decimal exponent, -400 to 400: 'e', its sign and its hundreds
    # and tens digits; its units digit; and its form: fixed notation, or
    # an exponent of two or three digits
    exp = np.arange(-400, 401, dtype=np.int16)
    size = np.abs(exp)
    chars = np.empty((exp.size, 4), np.uint8)
    chars[:, 0] = ord("e")
    chars[:, 1] = ord("+") + 2 * (exp < 0)
    chars[:, 2] = size // 100 + ord("0")
    chars[:, 3] = size // 10 % 10 + ord("0")
    fixed = (exp >= -4) & (exp < 17)
    return dict(_powers={}, _mask=mask, _kept=kept, _shifted=1 - kept, _zeros=zeros,
                _pairs=pairs.view("<u2").reshape(-1), _quads=quads.view("<u4").reshape(-1),
                _exponents=chars.view("<u4").reshape(-1),
                _exponents_units=(size % 10 + ord("0")).astype(np.uint8),
                _exponent_form=np.where(fixed, 0, 1 + (size >= 100)).astype(np.intp))


class _Numbers:
    """Rows of float64 numbers as CSV text, byte for byte printf's ``%.17g``.

    ``lines`` turns a 2-D block into ASCII lines: numbers joined by ',',
    each row ended by '\\r\\n'.  A finite nonzero x prints the 17-digit
    integer N = round(|x| 10^(16 - X)), rounded half to even, X the decimal
    exponent of |x| after that rounding: in fixed notation when
    -4 <= X < 17, else as d.ddd e+-XX, trailing zeros dropped, with a '-'
    for x < 0 and -0.  0, inf and nan print as "0", "inf" and "nan".

    N comes from doubles alone, and exactly.  X is first taken as
    floor(log10 |x|), and 10^(16 - X) = (H + L) 2^s from ``_power_of_ten``,
    made for the exponents a block holds as it first needs them.  |x| is
    m 2^e, m a 53-bit integer; Dekker's product (no FMA) gives m H exactly
    as p + err, so y = |x| 10^(16 - X) = y_hi + y_lo with y_hi = p 2^(e+s),
    an integer once y > 2^53, and y_lo = fl(err + fl(m L)) 2^(e+s).

    Counting each rounding as at most u = 2^-53 of its result (Higham 2002,
    ch. 3), before the scaling by 2^(e+s): fl(m L) is within u m L < 1 of
    m L; the sum within u (|err| + |m L|) <= u (2^52 + 2^53) = 3/4 of
    err + fl(m L); and dropping the table's remainder d costs m |d| < 1/2.
    In all y_lo is within 9/4 units of 2^(e+s) of y - y_hi, and since
    m H >= 2^104 and y < 10^17, 2^(e+s) < 10^17 / 2^104 < 2^-47: y_lo is
    within 2^-45 of the truth.  So N = y_hi + rint(y_lo) is round(y)
    unless y_lo lies within 2^-45 of a half-integer, and the band
    ``_TIE_BAND`` = 2^-44 leaves a factor 2.  X is right when
    10^16 <= y < 10^17: N in (10^16, 10^17) proves it, and N = 10^16 does
    when (y_hi - 10^16) + y_lo, an exact difference and one more rounding
    of at most 2^-45, is at least the band.

    An element that misses either test (a near-tie, about 2^-43 of random
    inputs; a value within an ulp or so of a power of ten, whose log10
    rounds across it; a 17-digit round-up to 10^17; a power of ten that is
    a double) takes its N and X from Python's own ``"%.16e" % x``.  The
    text is then laid out in ``_SLOTS`` slots per number by table lookups,
    the slots after the decimal point shift one right to make room for it,
    and the slots a mask keeps are the lines.

    The tables are built once a process (``_number_tables``), and the
    record, blend and mask buffers once a formatter, grown as a piece needs:
    ``_write_csv`` makes one formatter a file, on its first array.
    """

    def __init__(self):
        vars(self).update(_number_tables())
        self._size = 0

    def lines(self, block) -> np.ndarray:
        """The CSV lines of ``block``, a 2-D array of numbers, as ASCII bytes."""
        x = np.ascontiguousarray(block, dtype=float).reshape(-1)
        n, width = x.size, block.shape[1]
        record, blend, keep = self._buffers(n)
        exp10, count, plain = self._fill(record, x, width)
        form = self._exponent_form.take(exp10 + 400)
        point = exp10 * (form == 0)  # the point follows digit `point`, in slot 6 + point
        kept = np.maximum(count, point + 1)
        dotted = kept > point + 1
        # the point: each slot after slot 6 + point takes its left
        # neighbour's character, the first of them a '.'
        shift = np.where(dotted, point + 4, 21)
        flat, blend = record.reshape(-1), blend.reshape(-1)
        self._shifted.take(shift, axis=0, out=blend.reshape(n, _SLOTS), mode="clip")
        blend[1:] *= flat[:-1]
        self._kept.take(shift, axis=0, out=keep.view(np.uint8), mode="clip")
        flat *= keep.view(np.uint8).reshape(-1)
        flat += blend
        flat[np.flatnonzero(dotted) * _SLOTS + 7 + point[dotted]] = ord(".")
        # the mask's row, keyed as in __init__, in the spent shift array
        layout = np.minimum(point, 0, out=shift)
        layout += 4 + 5 * (np.signbit(x) & ~np.isnan(x))
        layout *= 18
        layout += kept
        layout += dotted - 1
        layout *= 3
        layout += form
        layout *= 2
        layout.reshape(-1, width)[:, -1] += 1  # the last number of a row
        self._mask.take(layout, axis=0, out=keep, mode="clip")
        return flat[keep.reshape(-1)]

    def _decimal(self, x):
        """N, X and the finite nonzero mask of ``x``: N = 0 and X = 0 for
        zeros, X = 2 for inf and nan (their three letters)."""
        a = np.abs(x)
        plain = (a > 0.0) & (a < math.inf)
        np.copyto(a, 1.0, where=~plain)
        exp10 = np.floor(np.log10(a)).astype(np.intp)
        low, high = 16 - int(exp10.max()), 16 - int(exp10.min())
        for k in range(low, high + 1):
            if k not in self._powers:
                self._powers[k] = _power_of_ten(k)
        hi, hi_hi, hi_lo, lo, shift = np.array([self._powers[k] for k in range(low, high + 1)]).T
        index = (16 - low) - exp10
        m, e = np.frexp(a, out=(a, None))
        m *= 2.0 ** 53
        e += shift.astype(e.dtype).take(index)
        p = hi.take(index)
        p *= m
        m_hi = m * _SPLITTER
        m_lo = m_hi - m
        m_hi -= m_lo
        np.subtract(m, m_hi, out=m_lo)
        err = hi_hi.take(index)  # Dekker: p + err is m H exactly
        err *= m_hi
        err -= p
        term = np.empty_like(m)
        for table, factor in ((hi_lo, m_hi), (hi_hi, m_lo), (hi_lo, m_lo), (lo, m)):
            table.take(index, out=term, mode="clip")
            term *= factor
            err += term
        y_hi, y_lo = np.ldexp(p, e, out=p), np.ldexp(err, e, out=err)
        near = np.rint(y_lo, out=term)
        digits = y_hi.astype(np.int64)
        digits += near.astype(np.int64)
        gap = np.subtract(y_lo, near, out=m_hi)
        np.abs(gap, out=gap)
        gap -= 0.5
        exact = np.abs(gap, out=gap) > _TIE_BAND
        y_hi -= 1e16
        y_hi += y_lo
        exact &= (digits > 10 ** 16) | (y_hi >= _TIE_BAND)
        exact &= digits < 10 ** 17
        exact &= plain
        for i in np.flatnonzero(plain & ~exact).tolist():
            text = "%.16e" % abs(x[i])
            digits[i], exp10[i] = int(text[0] + text[2:18]), int(text[19:])
        if not exact.all():
            rare = ~plain
            digits[rare] = 0
            exp10[rare] = 2 * ~np.isfinite(x[rare])
        return digits, exp10, plain

    def _buffers(self, n: int):
        """Record, blend and mask buffers for ``n`` numbers, grown as needed."""
        if self._size < n:
            self._size = n
            self._space = np.empty((3, n, _SLOTS), np.uint8)
        record, blend, keep = self._space[:, :n]
        return record, blend, keep.view(bool)

    def _fill(self, record, x, width: int):
        """Each number's slots, before the point: the row's separators, the
        17 digits of N (or inf or nan), the exponent.  Returns X, the
        count of significant digits and the finite nonzero mask."""
        digits, exp10, plain = self._decimal(x)
        row = np.frombuffer(_RECORD * width, np.uint8).reshape(width, _SLOTS).copy()
        row[-1, 29] = ord("\r")
        record.reshape(-1, width * _SLOTS)[:] = row.reshape(-1)
        # two digits, then four groups of four, the last ending in a pad
        # '0'; the trailing zeros of the digits and the pad are counted by
        # group, each group's count added when every group after it is zero
        group = digits // 10 ** 15
        record.view("<u2")[:, 3] = self._pairs.take(group)
        zeros = self._zeros.take(group)
        digits -= group * 10 ** 15
        digits *= 10
        fours = record.view("<u4")
        for col, unit in ((2, 10 ** 12), (3, 10 ** 8), (4, 10 ** 4), (5, 1)):
            np.floor_divide(digits, unit, out=group)
            fours[:, col] = self._quads.take(group)
            zeros *= group == 0
            zeros += self._zeros.take(group)
            digits -= group * unit
        count = 18 - zeros
        # "e+XX" in slots 24-27 and the last digit in slot 28
        index = exp10 + 400
        fours[:, 6] = self._exponents.take(index)
        record[:, 28] = self._exponents_units.take(index)
        rare = np.flatnonzero(~plain)
        if rare.size:  # zeros print one digit; inf and nan three letters
            letters = rare[exp10[rare] == 2]
            nan = np.isnan(x[letters])[:, None]
            record[letters, 6:9] = np.where(nan, list(b"nan"), list(b"inf"))
            count[rare] = 1 + exp10[rare]
        return exp10, count, plain


def _write_csv(path, header, rows, prov, quiet: bool) -> None:
    """Provenance comments, the header, then one CSV line per row.

    ``rows`` yields 2-D arrays of numbers and rows (sequences of cells), in
    any mix; each must be as wide as ``header``, or ValueError names the
    file and both widths.  A table of numbers alone comes as arrays, which
    ``_Numbers`` writes in pieces of one ``states._BLOCK_BYTES`` block at
    ``_CELL_BYTES`` a number.  A row, the form of a table that holds text,
    goes through ``csv.writer``, which quotes, with each cell that is not a
    string written as ``format(float(cell), ".17g")``: the same bytes.
    """
    width = len(header)
    numbers = None  # a formatter, made on the file's first array
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.reconfigure(write_through=True)  # text and fh.buffer's bytes stay in order
        writer = csv.writer(fh)
        for key in ("artifact_version", "experiment", "config_sha256", "seed"):
            fh.write(f"# {key} = {prov[key]}\n")
        writer.writerow(header)
        piece = states._block_items(width * _CELL_BYTES)
        for item in rows:
            block = isinstance(item, np.ndarray) and item.ndim == 2
            got = item.shape[1] if block else len(item)
            if got != width:
                raise ValueError(f"{path}: a row of {got} cells under a header of {width}")
            if block:
                numbers = numbers or _Numbers()
                for lo in range(0, len(item), piece):
                    fh.buffer.write(numbers.lines(item[lo : lo + piece]))
            else:
                writer.writerow([cell if isinstance(cell, str) else format(float(cell), ".17g")
                                 for cell in item])
    if not quiet:
        print(f"wrote {path}")


def _table(*columns):
    """Equal-length columns as (n, k) arrays of one ``_write_csv`` piece of
    rows each: the table is never stacked whole beside its columns."""
    n = states._block_items(len(columns) * _CELL_BYTES)
    return (np.column_stack([c[i : i + n] for c in columns]) for i in range(0, len(columns[0]), n))


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
    """The run's seed: ``--seed``, else ``DECOLAB_SEED``, else the filled
    config's ``seed`` (the schema's default when the config omits it)."""
    if flag_seed is not None:
        seed = flag_seed
    elif os.environ.get(SEED_ENV_VAR):
        raw = os.environ[SEED_ENV_VAR]
        try:
            seed = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from exc
    else:
        seed = config["seed"]
    if not 0 <= int(seed) < 2 ** 64:
        raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return int(seed)


class _Output:
    """Where a run's artifacts go, what is stamped on them, and what is printed.

    Creates ``out_dir``; every file is named relative to it and carries the
    run's provenance block.  ``out_dir`` None (``check`` without ``--out``)
    writes nothing.  ``made`` lists what the run created: each directory
    ``os.makedirs`` creates for ``out_dir``, outermost first, then each file
    that was not there before, so that ``discard`` can remove them.  The
    writers are looked up as module globals on each call, so the benchmark's
    tracer can count what they write.
    """

    def __init__(self, out_dir, experiment: str, config: dict, seed: int, quiet: bool):
        self.made, path = [], out_dir
        while path and not os.path.lexists(path):
            self.made.insert(0, path)
            path = os.path.dirname(path.rstrip(os.sep))
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
    payloads)`` processes, and the block receives an iterator over the
    results in payload order, each drawn when it is ready (a payload's
    exception is raised where its result is drawn).  The caller works while
    the pool runs.  On every exit path the pool is shut down and the
    payloads that have not started are cancelled.  With ``workers <= 1`` or
    a single payload the block receives a lazy in-process ``map`` and no
    pool starts.  The runners hand it ``_task_rows`` and ``_chunks``'
    ranges, never one payload a task.
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


# Contiguous ranges of task indices a pooled section hands each worker: a
# few, so that the pool balances tasks of uneven cost, and a constant, so
# that the parent's share does not grow with the tasks.
_CHUNKS_PER_WORKER = 4


def _chunks(name, n_values, args, seed, prefix, tasks, workers) -> list:
    """``_task_rows`` payloads for ``tasks`` tasks of the function ``name``:
    at most ``_CHUNKS_PER_WORKER`` contiguous ranges of indices a worker."""
    k = min(tasks, _CHUNKS_PER_WORKER * max(workers, 1))
    return [(name, n_values, args, seed, prefix, range(tasks * j // k, tasks * (j + 1) // k))
            for j in range(k)]


def _task_rows(payload) -> np.ndarray:
    """The rows of one range of a section's tasks, one float row a task.

    Task i runs ``name`` on ``(n_values[i % len(n_values)], *args, child)``
    and rebuilds its seed ``child`` as ``SeedSequence(seed,
    spawn_key=(*prefix, i))`` (NEP 19), so no seed crosses to a worker: with
    ``prefix`` ``(k,)`` that is ``SeedSequence(seed).spawn(4)[k].spawn(n)[i]``
    for any n > i, and with ``()`` it is ``SeedSequence(seed).spawn(n)[i]``.
    ``name`` is looked up here, so a forked worker runs the module's task as
    the parent left it.
    """
    name, n_values, args, seed, prefix, indices = payload
    task = globals()[name]
    return np.array([task((n_values[i % len(n_values)], *args, np.random.SeedSequence(
        seed, spawn_key=(*prefix, i)))) for i in indices], float)


def _bath_from(n_spins: int, ensemble: str, child_seed) -> spin_bath.SpinBathConfig:
    rng = np.random.default_rng(child_seed)
    if ensemble == "random":
        return spin_bath.SpinBathConfig.random(n_spins, rng)
    return spin_bath.SpinBathConfig.balanced(rng.uniform(0.0, 1.0, n_spins))


# --------------------------------------------------------------------------
# spin-bath

# Working-set sizes the CLI itself owns, measured with tracemalloc and
# rounded up.  Per pooled task (``scaling``, ``gaussian_fit``,
# ``oracle-compare``) the parent now holds its result row and a share of
# its chunk: measured cold, in a fresh parent of a 2-worker pool between
# 2 000 and 20 000 tasks, 56 B a ``gaussian_fit`` task (2 spins, 50
# samples: 3.03 MB at 2 000 tasks, 4.04 MB at 20 000, most of it the
# pool's first start) and 25 B an ``oracle-compare`` one; 49 B and 24 B
# run in process.  The charge is kept far above that, so that no exit code
# moves: it stands in as the bound on the number of tasks, and so on their
# run time, until the sections have a work bound of their own.
# One section's CSV file, which ``_enforce_budget`` adds: csv.writer
# allocates a 128 KiB record buffer on its first row (CPython 3.11),
# ``_Numbers`` builds its tables once a process (300 KB measured for the
# whole writer at 100 rows) and formats one piece of at most one
# states._BLOCK_BYTES block (1.23 MB measured for 10^5 rows of three
# numbers handed over by ``_table``; rows that hold text, written one at a
# time, 0.25 MB).
_TASK_BYTES = 3072
_WRITER_BYTES = 256 * 1024 + states._BLOCK_BYTES


def _pooled_bytes(workers: int, tasks: int, per_task: int) -> int:
    """One task's working set per busy worker plus ``_TASK_BYTES`` for every task."""
    return min(max(workers, 1), tasks) * per_task + tasks * _TASK_BYTES


def spin_bath_bytes(config: dict, workers: int) -> dict:
    """Estimated peak bytes of each section of a spin-bath config.

    Worked out from the config alone, before anything is allocated: each
    section grows linearly with its time samples (grid points for
    ``recurrence``; ``spin_bath._r_bytes`` and ``_scan_bytes``).  A pooled
    section holds one task per busy worker at a time and is charged
    ``_TASK_BYTES`` for each of its tasks.  ``trace``, ``scaling`` and
    ``gaussian_fit`` run at once, so ``run_spin_bath`` also bounds their
    sum; ``_enforce_budget`` adds the CSV writer.
    """
    need = {}
    if "trace" in config:
        sec = config["trace"]
        need["trace"] = spin_bath._r_bytes(sec["n_spins"], sec["samples"])
    if "scaling" in config:
        sec = config["scaling"]
        per_task = spin_bath._r_bytes(max(sec["n_values"]), sec["samples"])
        need["scaling"] = _pooled_bytes(workers, len(sec["n_values"]), per_task)
    if "gaussian_fit" in config:
        sec = config["gaussian_fit"]
        per_task = spin_bath._r_bytes(sec["n_spins"], sec["samples"])
        need["gaussian_fit"] = _pooled_bytes(workers, sec["n_seeds"], per_task)
    if "recurrence" in config:
        sec = config["recurrence"]
        if "couplings" in sec:
            g = np.abs(np.asarray(sec["couplings"], dtype=float))
            with np.errstate(over="ignore"):  # _scan_bytes rejects an infinite sum
                g_sq = float(np.dot(g, g))
            n, g_max = g.size, float(g.max())
        else:
            # couplings drawn from U(0, 1): bound the finest step any draw
            # needs; a bath past the budget is over it anyway, so clamping n
            # keeps the float arithmetic finite
            n = min(sec["n_spins"], BYTE_BUDGET)
            g_max, g_sq = 1.0, float(n)
        need["recurrence"] = spin_bath._scan_bytes(n, g_max, g_sq, sec["horizon"], sec["epsilon"])
    return need


def _enforce_budget(subcommand: str, need: dict, together=()) -> None:
    """Reject, before anything is allocated, a config estimated over ``BYTE_BUDGET``.

    ``need`` holds each section's bytes without its CSV writer, which is
    charged here: each section must fit alone with its writer, and the
    sections named in ``together``, which run at once, must fit by their
    sum with one writer, as they write their files one after another.
    """
    for section, size in need.items():
        if size + _WRITER_BYTES > BYTE_BUDGET:
            raise ConfigError(
                f"{subcommand} section {section!r} exceeds the "
                f"{BYTE_BUDGET >> 30} GiB memory budget"
            )
    running = [section for section in together if section in need]
    if sum(need[section] for section in running) + _WRITER_BYTES > BYTE_BUDGET:
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
    return n, mean, math.log2(mean)


def _fit_task(payload):
    """Gaussian-decay fit of one balanced bath on ``samples`` points up to
    5/Gamma0, Gamma0^2 = 4 sum g^2; ``spin_bath._fit_on_grid`` evaluates r(t)
    only up to the fit window."""
    n, samples, child = payload
    cfg = _bath_from(n, "balanced", child)
    fit = spin_bath._fit_on_grid(cfg, samples, 5.0 / (2.0 * math.sqrt(float(np.dot(cfg.g, cfg.g)))))
    return fit.gamma, fit.r_squared, fit.t_max


def _write_trace(sec: dict, child, out) -> None:
    """trace.csv, one (n, 4) block of rows per slice of r(t), each slice
    one piece of the CSV writer.  The grid ``np.linspace(0, t_max, samples)``
    is walked as (samples, step) and never built: each slice's t column is
    formed with it."""
    cfg = _bath_from(sec["n_spins"], sec["ensemble"], child)
    samples, t_max = sec["samples"], float(sec["t_max"])
    step = t_max / (samples - 1)
    # checks the whole grid before trace.csv is opened
    slices = spin_bath._slices(cfg, samples, spin_bath._slice_size(4 * _CELL_BYTES), "t_grid", step)
    blocks = (np.column_stack((spin_bath._grid_times(step, range(lo, lo + r.size), samples, t_max),
                               r.real, r.imag, np.abs(r) ** 2)) for lo, r in slices)
    out.csv("trace.csv", ["t", "re_r", "im_r", "abs_r_squared"], blocks)


def run_spin_bath(config, seed, workers, out) -> int:
    # the parent writes trace.csv while the pool runs scaling and gaussian_fit
    together = ("trace", "scaling", "gaussian_fit")
    _enforce_budget("spin-bath", spin_bath_bytes(config, workers), together)
    # section k of trace, scaling, gaussian_fit and recurrence seeds from
    # SeedSequence(seed).spawn(4)[k], rebuilt as spawn key (k,), and its task
    # i from that seed's i-th child, spawn key (k, i)
    scaling = fits = []
    if "scaling" in config:
        sec = config["scaling"]
        scaling = _chunks("_scaling_task", sec["n_values"], (sec["span_periods"], sec["samples"]),
                          seed, (1,), len(sec["n_values"]), workers)
    if "gaussian_fit" in config:
        sec = config["gaussian_fit"]
        fits = _chunks("_fit_task", [sec["n_spins"]], (sec["samples"],), seed, (2,),
                       sec["n_seeds"], workers)

    # files are written in the same order as without a pool
    with _pmap(_task_rows, scaling + fits, workers) as chunks:
        if "trace" in config:
            _write_trace(config["trace"], np.random.SeedSequence(seed, spawn_key=(0,)), out)
        if scaling:
            rows = np.concatenate([next(chunks) for _ in scaling])
            out.csv("scaling.csv", ["n_spins", "mean_abs_r_squared", "log2_mean"], [rows])
        if fits:
            rows = np.concatenate(list(chunks))
            rows = np.column_stack((np.arange(len(rows)), rows))
            out.csv("gaussian_fit.csv", ["draw", "gamma", "r_squared", "t_max"], [rows])

    if "recurrence" in config:
        sec = config["recurrence"]
        if "couplings" in sec:
            cfg = spin_bath.SpinBathConfig.balanced(np.asarray(sec["couplings"], float))
        else:
            child = np.random.SeedSequence(seed, spawn_key=(3,))
            cfg = _bath_from(sec["n_spins"], "balanced", child)
        rows = np.array(spin_bath.recurrence_scan(cfg, sec["horizon"], sec["epsilon"]), float)
        out.csv("recurrence.csv", ["t_enter", "t_exit"], [rows.reshape(-1, 2)])
    return 0


# --------------------------------------------------------------------------
# measure


def _load_kraus(path) -> measurement.KrausSet:
    """The Kraus set in ``path``; its input must be the system (2) or the
    joint state (4), which a well-formed file is checked for before any
    operator is built."""
    finite, integer = (functools.partial(hook, source="Kraus file") for hook in (_finite, _integer))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=finite, parse_int=integer, parse_constant=finite)
        (_, dim_in), *_ = measurement._kraus_fields(data)
        if dim_in not in (2, 4):
            raise ConfigError(f"Kraus input dimension {dim_in} matches neither the "
                              "system (2) nor the joint state (4)")
        return measurement.KrausSet.from_dict(data)
    except (OSError, json.JSONDecodeError, RecursionError, ValueError) as exc:
        raise ConfigError(f"cannot load Kraus set: {exc}") from exc


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
    rows = [(name, c, c / config["shots"], p) for name, c, p in zip(names, counts, probs)]
    out.csv("outcomes.csv", ["outcome", "count", "frequency", "born_probability"], rows)
    rho = states.reduced_density(joint, keep=0)
    if config["dump_states"]:
        state = {"dims": list(joint.dims), "amps": _pairs(joint.amps)}
        out.json("premeasured_state.json", {"state": state})
        density = {"dims": list(rho.dims), "mat": _pairs(rho.mat.reshape(-1))}
        out.json("reduced_system.json", {"density": density})
    if kset is not None:
        target = rho if kset.dim_in == 2 else joint.density()
        povm = measurement.povm_probabilities(target, kset)
        report = measurement.validate_kraus(kset)
        out.say(
            f"kraus completeness deviation {report.deviation:.3e} "
            f"(strict pass: {report.passed})"
        )
        out.csv("povm.csv", ["label", "probability"], zip(map(str, kset.labels), povm))
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
    times mixture components.  ``_enforce_budget`` adds a CSV writer to
    every entry: the bath is held while each section's file is written.
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
    return need


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
    amps = config["branch_amplitudes"]
    env = config["environment"]
    child = np.random.SeedSequence(seed, spawn_key=(0,))  # SeedSequence(seed).spawn(1)[0]
    bath = _bath_from(env["n_spins"], env["ensemble"], child)
    tri = pointer.TriConfig(_complex_pair(amps["a"]), _complex_pair(amps["b"]), bath)

    if "correlation" in config:
        sec = config["correlation"]
        t_grid = np.linspace(0.0, sec["t_max"], sec["samples"])
        r = spin_bath.decoherence_on_grid(bath, t_grid)
        columns = [pointer._rotated_correlation(tri, th, r) for th in sec["thetas"]]
        header = ["t"] + [f"corr_theta_{theta:g}" for theta in sec["thetas"]]
        out.csv("correlation.csv", header, _table(t_grid, *columns))

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
        out.csv("apparatus.csv", ["t", "offdiag_sum", "purity"], _table(t_grid, offdiag, purity))
    return 0


# --------------------------------------------------------------------------
# fock


def fock_bytes(config: dict) -> dict:
    """Estimated peak bytes of each section of a fock config.

    Worked out from the config alone, before anything is allocated.  Every
    section holds the FockSpace operators.  Photon counting reads |psi_n|^2
    off the d amplitudes of the coherent state, and its completeness row is
    exact, so both add only O(d); the coherent-grid audit holds the K x d
    amplitude table of the largest grid (the 64 x 64 default included);
    ``ehrenfest`` one eigendecomposition and its states (``fock._*_bytes``).
    ``_enforce_budget`` adds each section's CSV writer.  ``FockSpace``
    itself refuses d above ``states.DENSITY_CAP``, which stops a
    ``counting`` section past n_max 4095 before this estimate would.
    """
    n_max = config["n_max"]
    need = {}
    if "counting" in config:
        need["counting"] = fock._space_bytes(n_max)
    if "completeness" in config:
        densities = config["completeness"]["densities"]
        nodes = max([n_r * n_phi for n_r, n_phi in densities] + [fock.DEFAULT_DENSITY ** 2])
        need["completeness"] = fock._audit_bytes(n_max, nodes)
    if "ehrenfest" in config:
        sec = config["ehrenfest"]
        need["ehrenfest"] = fock._ehrenfest_bytes(n_max, sec["t_max"] / sec["dt"] + 1.0)
    return need


def run_fock(config, seed, workers, out) -> int:
    _enforce_budget("fock", fock_bytes(config))
    space = fock.FockSpace(config["n_max"])

    if "counting" in config:
        alpha = _complex_pair(config["counting"]["alpha"])
        amps = fock.coherent_state(space, alpha).amps
        # M_n = |0><n| makes Tr[M_n^dag M_n |psi><psi|] = |psi_n|^2
        probs = (amps * amps.conj()).real
        out.csv("counting.csv", ["n", "probability"], _table(np.arange(probs.size), probs))

    if "completeness" in config:
        sec = config["completeness"]
        # sum_n M_n^dag M_n = sum_n |n><n| is the identity, so the deviation is 0
        rows = [("photon_counting", "exact", 0.0)]
        default = fock.default_coherent_grid(space)
        radius = sec.get("radius", default.radius)
        for n_r, n_phi in sec["densities"]:
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
        dt = float(sec["dt"])
        n_steps = int(round(sec["t_max"] / dt))
        t_grid = np.arange(n_steps + 1) * dt
        state = fock.coherent_state(space, alpha)
        report = fock.ehrenfest_check(space, state, sec["omega"], sec["mass"], t_grid)
        out.say(f"ehrenfest max residual {report.max_residual:.6e} at dt {dt:g}")
        out.csv("ehrenfest.csv", ["t", "residual"], _table(report.t, report.residuals))
    return 0


# --------------------------------------------------------------------------
# oracle-compare


def oracle_compare_bytes(config: dict, workers: int) -> dict:
    """Estimated peak bytes of an oracle-compare run, keyed ``"run"``.

    Worked out from the config alone, before anything is allocated.  Each
    busy worker takes one bath of the largest N at a time over
    ``times_per_trial`` times: the closed form's bath and tile buffers
    (``spin_bath._r_bytes`` at no points, since the oracle's per-time charge
    covers the closed form's times too) and the oracle's 2^(N+1)
    amplitudes; every task is charged ``_TASK_BYTES`` for the parent, and
    ``_enforce_budget`` adds the CSV writer.
    """
    tasks = config["trials"] * len(config["n_values"])
    spins, times = max(config["n_values"]), config["times_per_trial"]
    per_task = spin_bath._r_bytes(spins, 0) + oracle._oracle_r_bytes(2 ** (spins + 1), times)
    return {"run": _pooled_bytes(workers, tasks, per_task)}


def oracle_float_floor(config: dict) -> float:
    """Rounding floor of |closed form - oracle|: eps * (N (t_max + 7.5) + 6)
    for the largest N of ``n_values``.

    Both sides round phases of size t * sum|g|, and random-ensemble
    couplings are drawn from U(0, 1), so sum|g| < N: eps * t_max * N.  The
    rest does not depend on t.  At t = 0 the closed form is exactly 1, while
    the oracle returns the bath's norm as its own roundings leave it.
    Counting to first order, each rounding at most u = eps / 2 (Higham
    2002, ch. 3):

    - each spin, normalised by the square root of a sum of two squared
      moduli, has |alpha|^2 + |beta|^2 within 8 u of 1 (3 u for each
      squared modulus, one for the sum, half of that 4 u and one for the
      square root, doubled in the square, and one a component for the
      division, doubled too): 8 N u over the bath;
    - a joint amplitude is N complex products (N - 1 in the bath's
      Kronecker product, one for the qubit), each within 2 sqrt(2) u < 3 u
      (Lemma 3.5), and each of the 2^N terms of the reduced off-diagonal
      entry one more, an up amplitude times a down one: 3 (2 N + 1) u;
    - those terms share one phase at t = 0, so their sum adds N u, the
      depth of a pairwise or blocked sum of 2^N terms (a strictly
      sequential one could reach 2^N u, which roundings of random sign do
      not approach; section 4.2);
    - a * conj(b) is one more product, 3 u, and the quotient by it rounds
      6 times in its real part (Smith's algorithm), 6 u.

    That is (15 N + 12) u = (7.5 N + 6) eps.  Measured over 200 random baths
    a size up to N = 11 and 40 beyond, at t <= 1e-300, the deviation is at
    most 3.0 eps at N = 1, 11.0 eps at any N and 6.0 eps at N = 14.
    """
    n = max(config["n_values"])
    return float(np.finfo(float).eps) * (n * (config["t_max"] + 7.5) + 6.0)


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
    tolerance = float(config["tolerance"])
    floor = oracle_float_floor(config)
    if tolerance < floor:
        raise ConfigError(
            f"tolerance {tolerance:g} is below the float floor {floor:.3g} "
            "(eps * (N (t_max + 7.5) + 6), N the largest of n_values)"
        )
    # task i is trial i // len(n_values) of N = n_values[i % len(n_values)]
    tasks = config["trials"] * len(config["n_values"])
    chunks = _chunks("_oracle_task", config["n_values"],
                     (config["times_per_trial"], config["t_max"]), seed, (), tasks, workers)
    with _pmap(_task_rows, chunks, workers) as results:
        rows = np.concatenate(list(results))
    rows = np.column_stack((np.arange(tasks) // len(config["n_values"]), rows))
    out.csv("oracle_compare.csv", ["trial", "n_spins", "max_abs_deviation"], [rows])
    worst = float(rows[:, 2].max())
    ok = worst <= tolerance
    out.say(
        f"worst |closed form - oracle| = {worst:.3e} over "
        f"{tasks} configs ({'ok' if ok else 'FAIL'} at {tolerance:g}; "
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
    rows = _task_rows(("_oracle_task", range(2, 9), (5, 20.0), 20, (), range(10)))
    return bool((rows[:, 1] <= 1e-10).all())


def _check_eigenstate_flat() -> bool:
    n = 6
    cfg = spin_bath.SpinBathConfig(
        0.6, 0.8, np.linspace(0.2, 1.0, n), np.ones(n), np.zeros(n)
    )
    r = spin_bath.decoherence_on_grid(cfg, np.linspace(0.0, 40.0, 2000))
    return bool(np.max(np.abs(np.abs(r) - 1.0)) < 1e-12)


def _check_scaling_n8() -> bool:
    _, avg, _ = _scaling_task((8, 400.0, 120001, 8))
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
        filled = _with_defaults(config, CONFIG_SCHEMAS[args.subcommand])
        seed = _resolve_seed(args.seed, filled)
        if args.out is None and not check:
            raise ConfigError("this subcommand needs --out")
        # the provenance hashes the config as written, the runner reads it filled
        out = _Output(args.out, args.subcommand, config, seed, args.quiet)
        return runner(filled, seed, args.workers, out)
    except (ConfigError, ValueError, spin_bath.FitWindowError) as exc:
        # a value from the config that the library rejects (including
        # DimensionCapError and TruncationError) is a config error too
        print(f"decolab: {exc}", file=sys.stderr)
        if out is not None:  # exit 2 leaves --out as the run found it
            out.discard()
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
