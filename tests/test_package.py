"""The package surface: every public name resolves on first use, and
importing the package loads no submodule."""

import importlib

import pytest

import polymon
from helpers import run_python


def test_import_loads_no_submodule():
    out = run_python("import sys, polymon; print(sorted(m for m in sys.modules if m.startswith('polymon.')))")
    assert out == "[]\n"


def test_every_public_name_is_its_home_modules_object():
    for name in polymon.__all__:
        obj = getattr(polymon, name)
        assert obj.__module__.startswith("polymon."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from polymon import *", namespace)
    assert set(polymon.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(polymon, name) for name in polymon.__all__)
    assert set(polymon.__all__) <= set(dir(polymon))
    assert len(set(polymon.__all__)) == len(polymon.__all__)


def test_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError) as info:
        polymon.nope  # noqa: B018
    assert str(info.value) == "module 'polymon' has no attribute 'nope'"
    assert not hasattr(polymon, "nope")
