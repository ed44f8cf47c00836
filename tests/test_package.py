import importlib

import pytest

import ebs


def _home(name):
    """The object called `name` in the ebs module that defines it."""
    obj = getattr(ebs, name)
    assert obj.__module__.startswith("ebs."), name
    return getattr(importlib.import_module(obj.__module__), name)


class TestLazyExports:
    @pytest.mark.parametrize("name", ebs.__all__)
    def test_name_resolves_to_its_home_object(self, name):
        assert getattr(ebs, name) is _home(name)

    def test_star_import_binds_every_name(self):
        scope = {}
        exec("from ebs import *", scope)
        for name in ebs.__all__:
            assert scope[name] is _home(name), name

    def test_dir_lists_every_name(self):
        assert set(ebs.__all__) <= set(dir(ebs))
        assert "__version__" in dir(ebs)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ebs.no_such_name
        assert getattr(ebs, "main", None) is None
        with pytest.raises(ImportError):
            exec("from ebs import no_such_name", {})
