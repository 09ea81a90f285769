"""The validator against jsonschema on mutated configs: the hypothesis test
of ``test_config_validation``, in a module of its own so that
``test_config_validation`` collects where hypothesis is not installed."""

import math

import pytest

jsonschema = pytest.importorskip("jsonschema")
pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from decolab.cli import CONFIG_SCHEMAS
from test_config_validation import SHIPPED, _oracle_path, _our_path, _replace, _sites, _where

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
