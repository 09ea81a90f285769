"""Config fuzzer: extreme but schema-valid numbers must never crash the CLI.

Each example starts from a README config, or from one section of it, and
replaces one or two numeric leaves (never ``seed``) with an extreme value
that the leaf's schema bounds admit: a tiny, unit, huge or near-overflow
float (negated where the schema allows), or an integer from 1 to 10^6.  The
examples are drawn once from a fixed seed, so the set is the same on every
run.  ``cli.main`` runs in process with ``--workers 1 --quiet``, warnings as
errors and an 8 MiB byte budget, which keeps every accepted run small.  It
must return 0, 1 or 2 without raising; exit 2 must print exactly one line,
starting ``decolab: ``; exit 0 must print nothing to stderr and write only
finite numbers to its CSV and JSON artifacts.
"""

import copy
import csv
import json
import math
import random
import warnings
from pathlib import Path

import pytest

from conftest import README_CONFIGS
from decolab import cli

# the Kraus file the README's measure config names: a projective readout
KRAUS = {"shape": [2, 2], "labels": ["up", "down"], "completeness_tol": 1e-10,
         "operators": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                       [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}

FLOATS = [5e-324, 1e-300, 1e-12, 1.0, 1e17, 1e200, 1e300, 1.7e308]
INTEGERS = [1, 2, 3, 63, 64, 65, 1000, 10 ** 4, 10 ** 5, 10 ** 6]
FUZZ_BUDGET = 8 * 1024 ** 2
FUZZ_SEED = 20190
EXAMPLES = 180


def _sections(config: dict) -> list[dict]:
    """``config`` itself, then each of its sections alone when it has several."""
    schema = cli.CONFIG_SCHEMAS[config["experiment"]]
    optional = [key for key in config if key not in schema.get("required", ())
                and isinstance(config[key], dict)]
    if len(optional) < 2:
        return [config]
    rest = {key: value for key, value in config.items() if key not in optional}
    return [config] + [dict(rest, **{key: config[key]}) for key in optional]


def _numeric_leaves(node, schema: dict, path: tuple = ()):
    """(path, schema) of every number in ``node`` other than a seed."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "seed":
                yield from _numeric_leaves(value, schema["properties"][key], path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_leaves(value, schema["items"], path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, schema


def _extremes(schema: dict) -> list:
    """The extreme values that ``schema``'s type and bounds admit."""
    if schema["type"] == "integer":
        values = INTEGERS
    else:
        values = FLOATS + [-x for x in FLOATS]
    return [x for x in values if not any(
        fails(x, schema[keyword]) for keyword, (fails, _) in cli._BOUNDS.items()
        if keyword in schema)]


def _examples() -> list:
    gen = random.Random(FUZZ_SEED)
    bases = [section for config in README_CONFIGS for section in _sections(config)]
    examples = []
    for _ in range(EXAMPLES):
        config = copy.deepcopy(gen.choice(bases))
        schema = cli.CONFIG_SCHEMAS[config["experiment"]]
        leaves = list(_numeric_leaves(config, schema))
        changes = []
        for path, leaf in gen.sample(leaves, min(len(leaves), gen.choice([1, 2]))):
            value = gen.choice(_extremes(leaf))
            node = config
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            changes.append(f"{'.'.join(map(str, path))}={value!r}")
        examples.append(pytest.param(config, id=f"{config['experiment']}:{','.join(changes)}"))
    return examples


def _numbers(path: Path):
    """Every number in a CSV or JSON artifact (CSV text cells are skipped)."""
    if path.suffix == ".json":
        def walk(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                for item in node:
                    yield from walk(item)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                yield float(node)
        yield from walk(json.loads(path.read_text(encoding="utf-8")))
        return
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    for row in rows[1:]:
        for cell in row:
            try:
                yield float(cell)
            except ValueError:
                pass


@pytest.mark.parametrize("config", _examples())
def test_extreme_config_exits_cleanly(tmp_path, monkeypatch, capsys, config):
    monkeypatch.setattr(cli, "BYTE_BUDGET", FUZZ_BUDGET)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "readout.json").write_text(json.dumps(KRAUS), encoding="utf-8")
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    argv = [config["experiment"], "--config", "c.json", "--out", "o", "--workers", "1", "--quiet"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    if code == 2:
        assert err.startswith("decolab: ") and err.count("\n") == 1, err
    elif code == 0:
        assert err == ""
        for artifact in sorted((tmp_path / "o").iterdir()):
            bad = [x for x in _numbers(artifact) if not math.isfinite(x)]
            assert not bad, f"{artifact.name} holds {bad[:3]}"
