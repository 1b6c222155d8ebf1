"""``canonical_config``: the identity text of an engine config."""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.exec.spec import canonical_config


@dataclasses.dataclass(frozen=True)
class _Inner:
    watts: float
    names: tuple = ("a", "b")


@dataclasses.dataclass(frozen=True)
class _Outer:
    seed: int
    inner: _Inner
    parts: tuple = ()
    derived: object = dataclasses.field(default=None, compare=False)


def test_nested_dataclasses_serialize_like_asdict():
    config = _Outer(3, _Inner(1.5), parts=(_Inner(2.0, ("c",)),))
    fields = dataclasses.asdict(config)
    del fields["derived"]
    expected = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    assert canonical_config(config) == expected


def test_compare_false_fields_are_not_identity():
    plain = _Outer(3, _Inner(1.5))
    carrying = _Outer(3, _Inner(1.5), derived=object())
    assert plain == carrying
    assert canonical_config(carrying) == canonical_config(plain)
    assert "derived" not in canonical_config(carrying)


def test_none_and_non_dataclass():
    assert canonical_config(None) == "{}"
    with pytest.raises(ConfigError):
        canonical_config({"seed": 3})
