"""The CLI's config validator against jsonschema, its test-time oracle.

``cli._validate`` interprets the JSON Schema subset that ``CONFIG_SCHEMAS``
uses so that the runtime needs numpy alone.  These tests hold it to
jsonschema's accept/reject decision and error path on the README and
benchmark configs (``test_config_validation_hypothesis`` on mutations of
them), and check the schema defaults and the integral-float rule end to
end.  Each test that calls jsonschema skips where it is not installed.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest

from decolab import cli
from decolab.cli import CONFIG_SCHEMAS, main
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
    jsonschema = pytest.importorskip("jsonschema")
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


@pytest.mark.parametrize("config", SHIPPED, ids=[c["experiment"] for c in SHIPPED])
def test_shipped_configs_pass_both_validators(config):
    schema = CONFIG_SCHEMAS[config["experiment"]]
    assert _our_path(config, schema) is None
    assert _oracle_path(config, schema) is None


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
        if key == "type" and holder[key] == "object":  # every object is closed
            assert holder.get("additionalProperties") is False
        if key == "additionalProperties":
            assert holder[key] is False
        if key in ("const", "enum"):
            values = holder[key] if key == "enum" else [holder[key]]
            assert all(isinstance(v, str) for v in values)
    props = CONFIG_SCHEMAS[experiment]["properties"]
    assert props["experiment"] == {"const": experiment}
    assert props["seed"] == {"type": "integer", "minimum": 0, "default": 42}


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


# ------------------------------------------------------------ defaults


def _defaulted(schema, path=()):
    """(path, property schema) of every property of ``schema`` with a default."""
    for key, sub in schema.get("properties", {}).items():
        if "default" in sub:
            yield path + (key,), sub
        yield from _defaulted(sub, path + (key,))


DEFAULTED = [(experiment, path, sub) for experiment, schema in sorted(CONFIG_SCHEMAS.items())
             for path, sub in _defaulted(schema)]


@pytest.mark.parametrize("experiment, path, sub", DEFAULTED,
                         ids=[f"{e}:{'/'.join(p)}" for e, p, _ in DEFAULTED])
def test_every_default_validates_against_its_own_schema(experiment, path, sub):
    assert cli._validate(sub["default"], sub) == sub["default"]
    assert _oracle_path(sub["default"], sub) is None


# each subcommand's config with every defaulted field written out at its default
EXPLICIT = {
    "spin-bath": {"experiment": "spin-bath", "seed": 42,
                  "trace": {"n_spins": 4, "ensemble": "balanced", "t_max": 3.0, "samples": 31},
                  "scaling": {"n_values": [2, 3], "span_periods": 400.0, "samples": 200001},
                  "gaussian_fit": {"n_spins": 6, "n_seeds": 2, "samples": 1200}},
    "measure": {"experiment": "measure", "seed": 42,
                "system": {"a": [0.6, 0.0], "b": [0.0, 0.8]}, "shots": 100,
                "dump_states": True},
    "pointer": {"experiment": "pointer", "seed": 42,
                "branch_amplitudes": {"a": [0.6, 0.0], "b": [0.8, 0.0]},
                "environment": {"n_spins": 3, "ensemble": "balanced"},
                "sieve": {"t_max": 2.0, "samples": 21}},
    "fock": {"experiment": "fock", "seed": 42, "n_max": 12,
             "completeness": {"densities": [[8, 8], [16, 16], [32, 32]]},
             "ehrenfest": {"alpha": [0.5, 0.0], "omega": 1.0, "mass": 1.0,
                           "t_max": 0.1, "dt": 0.01}},
    "oracle-compare": {"experiment": "oracle-compare", "seed": 42, "n_values": [2, 3],
                       "trials": 1, "times_per_trial": 20, "t_max": 20.0, "tolerance": 1e-10},
    "check": {"experiment": "check", "seed": 42},
}


def _without(config, paths):
    """A deep copy of ``config`` without the values at ``paths``."""
    out = copy.deepcopy(config)
    for path in paths:
        node = out
        for key in path[:-1]:
            node = node[key]
        node.pop(path[-1])
    return out


def _bodies(out):
    """Each artifact in ``out`` by name: CSV lines but the provenance
    comments, JSON without its provenance block."""
    bodies = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload.pop("provenance")
            bodies[path.name] = payload
        else:
            lines = path.read_text(encoding="utf-8").splitlines()
            bodies[path.name] = [line for line in lines if not line.startswith("#")]
    return bodies


def test_the_explicit_configs_write_out_every_default():
    written = {(e, path) for e, config in EXPLICIT.items()
               for path, _, _ in _sites(config, CONFIG_SCHEMAS[e])}
    assert {(e, path) for e, path, _ in DEFAULTED} <= written


@pytest.mark.parametrize("experiment", sorted(EXPLICIT))
def test_omitted_defaults_run_as_if_written_out(tmp_path, experiment):
    explicit = EXPLICIT[experiment]
    omitted = _without(explicit, [path for e, path, _ in DEFAULTED if e == experiment])
    code, want = _run(tmp_path, "explicit", explicit)
    assert code == 0
    assert _run(tmp_path, "omitted", omitted)[0] == code
    assert _bodies(want) and _bodies(tmp_path / "omitted") == _bodies(want)


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
