"""The package's export list is read from the table that maps each export to
the submodule defining it, and each export loads on first access; these
checks keep stray names out of the list, hold every entry to its home
module's object, and pin the values a caller can set."""

import argparse
import importlib
import inspect
import types

import pytest

import spherecurv
from spherecurv import cli


def test_all_is_the_sorted_public_names_then_the_version():
    names = spherecurv.__all__
    assert names[-1] == "__version__"
    assert names[:-1] == sorted(set(names[:-1]))
    for name in names:
        value = getattr(spherecurv, name)
        assert not isinstance(value, types.ModuleType), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__.startswith("spherecurv."), name


def test_each_export_is_its_home_modules_object():
    for module, names in spherecurv._EXPORTS.items():
        home = importlib.import_module(f"spherecurv.{module}")
        for name in names:
            assert getattr(spherecurv, name) is getattr(home, name), name
    assert sorted(spherecurv._HOME) == spherecurv.__all__[:-1]
    assert set(spherecurv.__all__) <= set(dir(spherecurv))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from spherecurv import *", namespace)
    for name in spherecurv.__all__:
        assert namespace[name] is getattr(spherecurv, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'spherecurv' has no attribute 'no_such_name'$"):
        spherecurv.no_such_name
    assert not hasattr(spherecurv, "no_such_name")


def test_cli_identity_choices_are_the_identity_names():
    from spherecurv.identities import IDENTITY_NAMES

    assert set(cli.IDENTITIES) == set(IDENTITY_NAMES)
    assert len(cli.IDENTITIES) == len(IDENTITY_NAMES)


def _defaulted(fn, prefix):
    return [f"{prefix}.{p.name}" for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def _cli_options(parser):
    """The option strings of a parser and its subparsers, help left out."""
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _cli_options(sub)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            out.add(action.option_strings[0])
    return out


def test_settable_values_are_pinned():
    """The defaulted parameters of the exported functions and of the public
    methods of the exported classes, and the CLI's options: every value a
    caller can set. A new knob has to be added here."""
    params = []
    for name in spherecurv.__all__:
        value = getattr(spherecurv, name)
        if inspect.isfunction(value):
            params += _defaulted(value, name)
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    params += _defaulted(member, f"{name}.{attr}")
    assert sorted(params) == [
        "run_identity_sweep.height",
        "run_identity_sweep.workers",
        "sweep_analyze.f1_tol",
        "sweep_analyze.workers",
    ]
    options = _cli_options(cli.build_parser())
    assert options == {
        "--seed", "--format", "--output", "--workers",
        "--surface", "--t", "--samples", "--tol",
        "--identity", "--trials", "--height",
    }
    assert len(params) + len(options) == 15
