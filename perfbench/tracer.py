"""Spans around the public functions of a package, recorded from outside it.

The tracer wraps callables at layer boundaries without touching the
program's files: every public function and class of each package module, and
every other binding of the same object (``from .x import y`` copies it into
the importing module's namespace, so patching only the defining module would
miss those calls).  Spans stay in memory; :func:`self_times` and
:func:`aggregate` turn them into per-name call counts and self time.

Run as a script, it replays workload passes in process through
``decolab.cli.main`` and writes the spans and counters as JSON::

    python3 perfbench/tracer.py PLAN.json RESULT.json

``PLAN.json`` holds ``{"src": ..., "cwd": ..., "passes": [{"id": ...,
"traced": bool, "argvs": [[...], ...]}, ...]}``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str | None


class Tracer:
    """Records nested spans and additive counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.distinct: dict[str, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self.layer_of: dict[str, str] = {}
        self.pass_id: str | None = None
        self._stack: list[int] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self.pass_id][key] += amount

    def note_distinct(self, key: str, value) -> None:
        self.distinct[self.pass_id][key].add(value)

    def call(self, name: str, fn, args, kwargs, counter=None):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent, self.pass_id))
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index] = self.spans[index]._replace(end=self.clock())
        if counter is not None:
            counter(self, args, kwargs, result)
        return result

    def wrap(self, name: str, fn, layer: str, counter=None):
        self.layer_of[name] = layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        pieces = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[i]
        )
        covered, reach = 0.0, span.start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def aggregate(spans: list[Span], pass_id: str | None = None) -> dict[str, dict[str, float]]:
    """``{name: {"calls": n, "self_s": s, "total_s": t}}`` over one pass."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        if pass_id is not None and span.pass_id != pass_id:
            continue
        row = out[span.name]
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span.end - span.start
    return dict(out)


# --------------------------------------------------------------------------
# patching


def _package_modules(package: str) -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def _rebind(modules, originals: dict[int, object], restore: list) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                restore.append((mod, attr, value))
                setattr(mod, attr, wrapper)


def _patch_class(tracer: Tracer, cls, layer: str, counters: dict, restore: list) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr != "__init__" and attr.startswith("_"):
            continue
        name = cls.__name__ if attr == "__init__" else f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, layer, counters.get(name)))
        elif inspect.isfunction(raw):
            wrapped = tracer.wrap(name, raw, layer, counters.get(name))
        else:
            continue
        restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)


def patch_package(tracer: Tracer, package: str, counters: dict | None = None,
                  skip: tuple[str, ...] = ()) -> list:
    """Wrap every public function and class defined in ``package``'s modules.

    A function is rebound in every module of the package that holds it, so
    calls through ``from .x import y`` copies are traced too.  Classes are
    patched in place at ``__init__`` (span named after the class) and at
    their public methods.  Modules named in ``skip`` define nothing that is
    wrapped but still have their bindings replaced.  Returns the undo list
    for :func:`unpatch`.
    """
    counters = counters or {}
    modules = _package_modules(package)
    restore: list = []
    originals: dict[int, object] = {}
    for mod in modules:
        if mod.__name__ in skip:
            continue
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj) and not issubclass(obj, BaseException):
                _patch_class(tracer, obj, layer, counters, restore)
            elif inspect.isfunction(obj):
                originals[id(obj)] = tracer.wrap(name, obj, layer, counters.get(name))
    _rebind(modules, originals, restore)
    return restore


def unpatch(restore: list) -> None:
    for owner, attr, value in reversed(restore):
        setattr(owner, attr, value)


# --------------------------------------------------------------------------
# decolab specifics: computed work counters and the cli layer


def _prod(dims) -> int:
    return math.prod(int(d) for d in dims)


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count_points(tr, args, kwargs, _):
    cfg, t = _arg(args, kwargs, 0, "cfg"), _arg(args, kwargs, 1, "t")
    tr.count("decoherence_factor.points", _size(t) * cfg.n_spins)


def _size(t) -> int:
    shape = getattr(t, "shape", None)
    if shape is not None:
        return _prod(shape)
    return len(t) if isinstance(t, (list, tuple)) else 1


def _count_hamiltonian(tr, args, kwargs, _):
    couplings = _arg(args, kwargs, 0, "couplings")
    tr.note_distinct("oracle.hamiltonian_sets", tuple(float(g) for g in couplings))


def _count_dense_amps(tr, args, kwargs, _):
    tr.count("pointer.dense_amps", 4 * 2 ** _arg(args, kwargs, 0, "cfg").n_spins)


def _count_state_amps(tr, args, kwargs, _):
    tr.count("StateVector.amps", _prod(_arg(args, kwargs, 1, "dims")))


def _count_eig_work(tr, args, kwargs, _):
    tr.count("DensityMatrix.eig_work", _prod(_arg(args, kwargs, 1, "dims")) ** 3)


def _count_kraus_ops(tr, args, kwargs, _):
    tr.count("KrausSet.ops", len(args[0].operators))


def _count_coherent_bytes(tr, args, kwargs, _):
    space = _arg(args, kwargs, 0, "space")
    grid = _arg(args, kwargs, 1, "grid")
    ops = 64 * 64 if grid is None else len(grid)
    tr.count("fock.coherent_bytes", ops * space.dim ** 2 * 16)


DECOLAB_COUNTERS = {
    "decoherence_factor": _count_points,
    "dephasing_hamiltonian": _count_hamiltonian,
    "tridecompose_state": _count_dense_amps,
    "StateVector": _count_state_amps,
    "DensityMatrix": _count_eig_work,
    "KrausSet": _count_kraus_ops,
    "coherent_measurement_set": _count_coherent_bytes,
}


def patch_cli(tracer: Tracer, cli, jsonschema) -> list:
    """Spans and counters for the cli layer.

    ``cli.main`` and every ``run_*`` runner get spans; ``jsonschema.validate``
    is the ``cli.validate`` span; ``_pmap`` is one ``cli.pool`` span when it
    starts a process pool (workers cannot report spans back).  The CSV and
    JSON writers stay inside the runner's self time and count rows and bytes.
    """
    restore = [(cli, "main", cli.main), (jsonschema, "validate", jsonschema.validate),
               (cli, "_pmap", cli._pmap), (cli, "_write_csv", cli._write_csv),
               (cli, "_write_json", cli._write_json), (cli, "_RUNNERS", cli._RUNNERS)]
    cli._RUNNERS = {sub: tracer.wrap("cli.run", fn, "cli") for sub, fn in cli._RUNNERS.items()}
    cli.main = tracer.wrap("cli.main", cli.main, "cli")
    jsonschema.validate = tracer.wrap("cli.validate", jsonschema.validate, "cli")

    pmap, write_csv, write_json = cli._pmap, cli._write_csv, cli._write_json

    def traced_pmap(fn, payloads, workers):
        payloads = list(payloads)
        if workers <= 1 or len(payloads) <= 1:
            return pmap(fn, payloads, workers)
        tracer.count("cli.pool.starts")
        return tracer.call("cli.pool", pmap, (fn, payloads, workers), {})

    def counted_csv(path, header, rows, prov, quiet):
        rows = list(rows)
        write_csv(path, header, rows, prov, quiet)
        tracer.count("cli.out_rows", len(rows))
        tracer.count("cli.out_bytes", os.path.getsize(path))

    def counted_json(path, payload, prov, quiet):
        write_json(path, payload, prov, quiet)
        tracer.count("cli.out_bytes", os.path.getsize(path))

    tracer.layer_of["cli.pool"] = "cli"
    cli._pmap, cli._write_csv, cli._write_json = traced_pmap, counted_csv, counted_json
    return restore


def _replay(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    start = time.perf_counter()
    import decolab.cli as cli
    import_s = time.perf_counter() - start
    import jsonschema

    os.chdir(plan["cwd"])
    tracer = Tracer()
    result = {"import_s": import_s, "passes": {}}
    for spec in plan["passes"]:
        restore = []
        if spec["traced"]:
            restore = patch_cli(tracer, cli, jsonschema)
            restore += patch_package(tracer, "decolab", DECOLAB_COUNTERS, skip=("decolab.cli",))
        tracer.pass_id = spec["id"]
        codes = []
        start = time.perf_counter()
        try:
            for argv in spec["argvs"]:
                codes.append(cli.main(argv))
        finally:
            unpatch(restore)
        result["passes"][spec["id"]] = {
            "wall_s": time.perf_counter() - start,
            "exit_codes": codes,
            "counts": dict(tracer.counts[spec["id"]]),
            "distinct": {k: len(v) for k, v in tracer.distinct[spec["id"]].items()},
        }
    result["spans"] = [list(span) for span in tracer.spans]
    result["layer_of"] = tracer.layer_of
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan_in = json.load(fh)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(_replay(plan_in), fh)
