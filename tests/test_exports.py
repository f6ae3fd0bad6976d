"""The package's export list is derived from its namespace, so it cannot
drift from the imports; these checks keep stray names out of it."""

import inspect
import types

import spherecurv


def test_all_is_the_sorted_public_names_then_the_version():
    names = spherecurv.__all__
    assert names[-1] == "__version__"
    assert names[:-1] == sorted(set(names[:-1]))
    for name in names:
        value = getattr(spherecurv, name)
        assert not isinstance(value, types.ModuleType), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__.startswith("spherecurv."), name
