"""The CLI's config validator against jsonschema, its test-time oracle.

``cli._validate`` interprets the JSON Schema subset that ``CONFIG_SCHEMAS``
uses so that the runtime needs numpy alone.  These tests hold it to
jsonschema's accept/reject decision and error path on mutated README and
benchmark configs, check the integral-float rule end to end, and check that
a CLI run imports neither jsonschema nor the process pool.
"""

import copy
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import cli_env
from decolab import cli
from decolab.cli import CONFIG_SCHEMAS, main
from decolab.measurement import KrausSet
from test_cli import README_CONFIGS, POINTER_CFG, _benchmark_configs, write_config


def _shipped_configs():
    configs = list(README_CONFIGS)
    with tempfile.TemporaryDirectory() as directory:
        for sub in CONFIG_SCHEMAS:
            configs += _benchmark_configs(Path(directory), sub)
    return configs


SHIPPED = _shipped_configs()


def _sites(value, schema, path=()):
    """Every (path, value, schema) of a config that its schema describes."""
    yield path, value, schema
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key, item in value.items():
            if key in props:
                yield from _sites(item, props[key], path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from _sites(item, schema["items"], path + (i,))


def _replace(config, path, new):
    """A deep copy of ``config`` with the value at ``path`` set to ``new``."""
    if not path:
        return new
    out = copy.deepcopy(config)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return out


def _where(error):
    return "/".join(str(p) for p in error.absolute_path) or "<root>"


def _oracle_path(config, schema):
    """jsonschema's verdict: None to accept, else the path it names."""
    try:
        jsonschema.validate(config, schema)
    except jsonschema.ValidationError as exc:
        return _where(exc)
    return None


def _our_path(config, schema):
    before = json.dumps(config)
    try:
        result = cli._validate(config, schema)
    except cli.ConfigError as exc:
        assert json.dumps(config) == before
        prefix = "config invalid at "
        assert str(exc).startswith(prefix)
        return str(exc)[len(prefix):].split(": ", 1)[0]
    assert json.dumps(config) == before, "the validator changed its input"
    assert result == config
    for _, value, sub in _sites(result, schema):
        if sub.get("type") == "integer":
            assert type(value) is int
    return None


OTHER_VALUES = ["text", True, False, None, [], {}, [1.0, 0.0], {"a": 1}, 7, -3, 0, 2.5, 1e300]


def _bound_values(schema):
    values = []
    for key in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
        if key in schema:
            b = schema[key]
            values += [b, b - 1, b + 1, math.nextafter(b, -math.inf),
                       math.nextafter(b, math.inf), float(b) - 0.5, float(b) + 0.5]
    return values


def _mutations(config, schema):
    """Every single-point mutation of ``config`` that the tests apply."""
    for path, value, sub in _sites(config, schema):
        for other in OTHER_VALUES:
            yield _replace(config, path, other)  # a wrong (or right) type
        if sub.get("type") == "integer":
            yield _replace(config, path, True)
            yield _replace(config, path, float(value))
        for bound in _bound_values(sub):
            yield _replace(config, path, bound)
        if isinstance(value, dict):
            for key in value:
                yield _replace(config, path, {k: v for k, v in value.items() if k != key})
            yield _replace(config, path, dict(value, zz_extra=1))
        if isinstance(value, list):
            low, high = sub.get("minItems", 0), sub.get("maxItems", len(value))
            for size in {0, low - 1, high + 1, len(value) + 1} - {-1}:
                yield _replace(config, path, value[:1] * size)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_validator_agrees_with_jsonschema_on_mutated_configs(data):
    config = data.draw(st.sampled_from(SHIPPED))
    schema = CONFIG_SCHEMAS[config["experiment"]]
    mutated = data.draw(st.sampled_from(list(_mutations(config, schema))))
    ours, named = _our_path(mutated, schema), _oracle_path(mutated, schema)
    assert (ours is None) == (named is None)
    every = {_where(e) for e in jsonschema.Draft202012Validator(schema).iter_errors(mutated)}
    if len(every) == 1:
        assert ours == named
    else:
        # jsonschema ranks several violations by a heuristic of its own;
        # the validator names the first it meets, which must be one of them
        assert ours is None or ours in every


@pytest.mark.parametrize("config", SHIPPED, ids=[c["experiment"] for c in SHIPPED])
def test_shipped_configs_pass_both_validators(config):
    schema = CONFIG_SCHEMAS[config["experiment"]]
    assert _oracle_path(config, schema) is None
    assert _our_path(config, schema) is None


def test_shipped_configs_cover_every_schema():
    assert {c["experiment"] for c in SHIPPED} == set(CONFIG_SCHEMAS)


def test_validator_messages_read_like_jsonschema():
    schema = CONFIG_SCHEMAS["measure"]
    config = {"experiment": "measure", "system": {"a": [0.6, 0.0], "b": [0.0, 0.8]},
              "shots": 10}
    for bad, message in [
        ({"shots": 0}, "config invalid at shots: 0 is less than the minimum of 1"),
        ({"shots": True}, "config invalid at shots: True is not of type 'integer'"),
        ({"shots": 2.5}, "config invalid at shots: 2.5 is not of type 'integer'"),
        ({"typo": 1}, "config invalid at <root>: "
                      "Additional properties are not allowed ('typo' was unexpected)"),
        ({"system": {"a": [0.6]}}, "config invalid at system: 'b' is a required property"),
        ({"system": {"a": [0.6], "b": [0.8, 0.0]}}, "config invalid at system/a: [0.6] is too short"),
        ({"experiment": "fock"}, "config invalid at experiment: 'measure' was expected"),
    ]:
        with pytest.raises(cli.ConfigError) as info:
            cli._validate(dict(config, **bad), schema)
        assert str(info.value) == message


def _keywords(schema):
    """Every keyword used anywhere in ``schema``, with the schema holding it."""
    for key, value in schema.items():
        yield key, schema
        if key == "properties":
            for sub in value.values():
                yield from _keywords(sub)
        elif key == "items":
            yield from _keywords(value)
        elif key == "anyOf":
            for sub in value:
                yield from _keywords(sub)


@pytest.mark.parametrize("experiment", sorted(CONFIG_SCHEMAS))
def test_every_schema_keyword_is_one_the_validator_supports(experiment):
    for key, holder in _keywords(CONFIG_SCHEMAS[experiment]):
        assert key in cli._KEYWORDS
        if key == "type":
            assert holder["type"] in cli._TYPES
        if key == "additionalProperties":
            assert holder[key] is False
        if key in ("const", "enum"):
            values = holder[key] if key == "enum" else [holder[key]]
            assert all(isinstance(v, str) for v in values)


@pytest.mark.parametrize(
    "schema, value",
    [
        ({"type": "integer", "multipleOf": 2}, 4),
        ({"pattern": "x"}, "x"),
        ({"type": "object", "properties": {"x": {"minLength": 1}}}, {"x": "text"}),
        ({"additionalProperties": True}, {}),
    ],
)
def test_an_unsupported_keyword_fails_loudly(schema, value):
    with pytest.raises(TypeError, match="does not support"):
        cli._validate(value, schema)


# ------------------------------------------------------------ integral floats

INTEGRAL_CONFIGS = {
    "spin-bath": {"experiment": "spin-bath", "seed": 11,
                  "trace": {"n_spins": 4, "t_max": 3.0, "samples": 31},
                  "gaussian_fit": {"n_spins": 6, "n_seeds": 2, "samples": 60}},
    "measure": {"experiment": "measure", "seed": 4,
                "system": {"a": [0.6, 0.0], "b": [0.0, 0.8]}, "shots": 100},
    "pointer": POINTER_CFG,
    "fock": {"experiment": "fock", "seed": 1, "n_max": 12,
             "counting": {"alpha": [1.0, 0.0]},
             "completeness": {"densities": [[8, 8]]}},
    "oracle-compare": {"experiment": "oracle-compare", "seed": 2, "n_values": [2, 4],
                       "trials": 1, "times_per_trial": 3},
    "check": {"experiment": "check", "seed": 5},
}


def _integer_paths(config):
    schema = CONFIG_SCHEMAS[config["experiment"]]
    return [path for path, _, sub in _sites(config, schema) if sub.get("type") == "integer"]


def _run(tmp_path, label, config):
    cfg = write_config(tmp_path / f"{label}.json", config)
    out = tmp_path / label
    argv = [config["experiment"], "--config", cfg, "--out", str(out), "--workers", "1", "--quiet"]
    return main(argv), out


@pytest.mark.parametrize("experiment", sorted(INTEGRAL_CONFIGS))
def test_integral_floats_in_integer_fields_run_like_integers(tmp_path, experiment):
    config = INTEGRAL_CONFIGS[experiment]
    paths = _integer_paths(config)
    assert paths
    floated = config
    for path in paths:
        value = floated
        for key in path:
            value = value[key]
        floated = _replace(floated, path, float(value))
    code, want = _run(tmp_path, "ints", config)
    assert code == 0
    code, got = _run(tmp_path, "floats", floated)
    assert code == 0
    names = sorted(p.name for p in want.iterdir())
    assert names and names == sorted(p.name for p in got.iterdir())
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes()


@pytest.mark.parametrize("experiment", sorted(INTEGRAL_CONFIGS))
def test_true_in_an_integer_field_is_a_usage_error(tmp_path, capsys, experiment):
    config = INTEGRAL_CONFIGS[experiment]
    path = _integer_paths(config)[-1]
    code, out = _run(tmp_path, "bool", _replace(config, path, True))
    err = capsys.readouterr().err
    where = "/".join(str(p) for p in path)
    assert code == 2
    assert err == f"decolab: config invalid at {where}: True is not of type 'integer'\n"
    assert not out.exists()


# ------------------------------------------------------------ start-up guard

GUARD = """
import json, sys
sys.modules["jsonschema"] = None  # any import of jsonschema now fails
from decolab import cli
code = cli.main(sys.argv[1:])
loaded = sorted(
    name for name, module in sys.modules.items()
    if module is not None
    and (name.split(".")[0] == "jsonschema" or name == "concurrent.futures.process")
)
print(json.dumps({"code": code, "loaded": loaded}))
"""


def test_measure_runs_without_jsonschema_or_the_pool(tmp_path):
    (config,) = [c for c in README_CONFIGS if c["experiment"] == "measure"]
    zset = KrausSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=["up", "down"])
    with open(tmp_path / config["kraus_file"], "w") as fh:
        json.dump(zset.to_dict(), fh)
    cfg = write_config(tmp_path / "config.json", config)
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, "measure", "--config", cfg, "--out", "out", "--quiet"],
        capture_output=True, text=True, env=cli_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}
    assert (tmp_path / "out" / "povm.csv").is_file()
