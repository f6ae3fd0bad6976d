"""The package's export list is derived from its namespace, so it cannot
drift from the imports; these checks keep stray names out of it, and pin
the values a caller can set."""

import argparse
import inspect
import types

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
