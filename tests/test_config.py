"""Property tests of the config table: every leaf rejects a value of the
wrong type, out of its range or not finite with a ConfigError keyed by
its path, and every experiment's default config round-trips."""

import math
import operator
from dataclasses import fields

import pytest

from eelab.config import EXPERIMENTS, ExperimentConfig, validate_config
from eelab.errors import ConfigError

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def leaves(cls=ExperimentConfig, path=""):
    """(key path, Rule) for every leaf of the config table."""
    for f in fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        if "section" in f.metadata:
            yield from leaves(f.metadata["section"], where)
        elif "spec" in f.metadata:
            for key, rule in f.metadata["spec"].items():
                yield f"{where}.{key}", rule
        else:
            yield where, f.metadata["rule"]


LEAVES = dict(leaves())

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
VALID = {"int": st.integers(), "num": FINITE, "str": st.text()}
WRONG = {  # values that are never of the named scalar type
    "int": st.one_of(st.booleans(), st.floats(), st.text(),
                     st.lists(st.integers(), max_size=2)),
    "num": st.one_of(st.booleans(), st.text(), st.lists(FINITE, max_size=2)),
    "str": st.one_of(st.booleans(), st.integers(), st.floats(),
                     st.lists(st.text(), max_size=2)),
}
BOUNDS = {"ge": operator.ge, "gt": operator.gt, "le": operator.le,
          "lt": operator.lt}


def out_of_range(rule, item):
    """Values of the item type that break one of the rule's bounds or
    choices."""
    if item == "str":
        return [st.text().filter(lambda s: s not in rule.choices)] if rule.choices else []
    return [VALID[item].filter(lambda v, b=getattr(rule, name), holds=holds:
                               not holds(v, b))
            for name, holds in BOUNDS.items() if getattr(rule, name) is not None]


def bad_values(rule):
    """Values the rule rejects: of the wrong type, null where it is not
    allowed, out of range or not finite; for a list, a non-list, a list
    ending in such an entry, or one shorter than min_len."""
    listed = rule.type in ("ints", "nums")
    item = rule.type[:-1] if listed else rule.type
    null = [] if rule.nullable else [st.none()]
    bad_items = [WRONG[item], *out_of_range(rule, item)]
    if item == "num":
        bad_items.append(NON_FINITE)
    if not listed:
        return st.one_of(*bad_items, *null)
    ending = [st.tuples(st.lists(VALID[item], max_size=2), bad).map(
        lambda t: t[0] + [t[1]]) for bad in bad_items]
    short = ([st.lists(VALID[item], max_size=rule.min_len - 1)]
             if rule.min_len else [])
    return st.one_of(st.integers(), st.text(), FINITE, *null, *ending, *short)


def config_with(path, value):
    """A run config that sets the leaf at path to value."""
    keys = path.split(".")
    raw = {"experiment": "run"}
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value
    return raw


def test_table_covers_every_echoed_leaf():
    def paths(d, prefix=""):
        for k, v in d.items():
            if isinstance(v, dict):
                yield from paths(v, f"{prefix}{k}.")
            else:
                yield prefix + k

    echo = validate_config({"experiment": "run"}).to_dict()
    assert set(paths(echo)) <= set(LEAVES)
    assert len(LEAVES) >= 60


@pytest.mark.parametrize("path", sorted(LEAVES))
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_bad_leaf_value_is_a_keyed_config_error(path, data):
    value = data.draw(bad_values(LEAVES[path]))
    with pytest.raises(ConfigError) as err:
        validate_config(config_with(path, value))
    msg = str(err.value)
    assert msg.startswith(path) and msg[len(path)] in ":[", msg


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_defaults_round_trip(experiment):
    cfg = validate_config({"experiment": experiment})
    assert validate_config(cfg.to_dict()) == cfg
