"""Output checks: expected artifacts, byte-identical reruns, reference values.

A digest summarises an output file by its numbers: per CSV column the row
count, min, max and mean (text columns verbatim); for a JSON file the same
summary over every number outside the provenance block, plus its text and
boolean leaves.  Digests at the default workload seed are compared with
``reference.json``, captured at the commit that defined the benchmark, within
``REL_TOL``/``ABS_TOL``; counts and text must match exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REL_TOL = 1e-7
ABS_TOL = 1e-9


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest(path: str) -> dict:
    if path.endswith(".csv"):
        return _digest_csv(path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("provenance", None)
    numbers, text = [], {}
    _leaves(payload, "", numbers, text)
    return {"numbers": _summary(numbers), "text": text}


def _digest_csv(path: str) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    columns = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in body]
        try:
            columns[name] = _summary([float(c) for c in cells])
        except ValueError:
            columns[name] = {"text": cells}
    return {"rows": len(body), "columns": columns}


def _leaves(node, path: str, numbers: list, text: dict) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            _leaves(node[key], f"{path}/{key}", numbers, text)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _leaves(item, f"{path}/{i}", numbers, text)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        numbers.append(float(node))
    else:
        text[path] = node


def _summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    return {"n": len(values), "min": min(values), "max": max(values),
            "mean": math.fsum(values) / len(values)}


def compare(got, want, where: str = "") -> list[str]:
    """Differences between two digests, as readable lines (empty if none)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [line for key in want for line in compare(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if abs(got - want) <= ABS_TOL + REL_TOL * abs(want):
            return []
        return [f"{where}: {got!r} differs from reference {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]


def missing(directory: str, artifacts: list[str]) -> list[str]:
    return [name for name in artifacts if not os.path.isfile(os.path.join(directory, name))]
