"""The package's public name table: ``handwave.__all__``."""

import types

import handwave


def test_every_listed_name_resolves():
    assert [name for name in handwave.__all__ if not hasattr(handwave, name)] == []


def test_no_name_is_listed_twice():
    assert len(set(handwave.__all__)) == len(handwave.__all__)


def test_every_public_attribute_is_listed():
    public = {name for name, value in vars(handwave).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(handwave.__all__)) == []
