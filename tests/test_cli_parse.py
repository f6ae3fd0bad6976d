"""main() reads a command's arguments with that command's own parser. Every
argv must still give what the top-level parser gives: the same exit code,
stdout and stderr, and where it parses, the same Namespace."""

import pytest

import spherecurv.cli as cli

_VERIFY = ["verify", "--identity", "g2"]
_ANALYZE = ["analyze", "--surface", "equator"]

# (argv, what the top-level parser does with it: an exit code, or some of
# the values of the Namespace it returns)
_TABLE = [
    ([], 2),
    (["--help"], 0),
    (["analyze", "-h"], 0),
    (["verify", "-h"], 0),
    (["catalog", "-h"], 0),
    (["catalog", "--help"], 0),
    (["verfy", "--identity", "g2"], 2),
    (["--seed", "3", "catalog"], 2),
    (["verify"], 2),
    (["verify", "--identity", "made-up"], 2),
    (_ANALYZE + ["--bogus"], 2),
    (_VERIFY + ["--bogus"], 2),
    (["catalog", "--bogus"], 2),
    (_ANALYZE + ["extra"], 2),
    (_VERIFY + ["extra"], 2),
    (["catalog", "extra"], 2),
    (_VERIFY + ["--bogus", "extra", "--trials", "5"], 2),
    (_VERIFY + ["--trials", "0"], 2),
    # --h abbreviates both --help and --height
    (_VERIFY + ["--h", "3"], 2),
    (_ANALYZE + ["--sam", "5"], {"samples": 5}),
    (["catalog", "--seed=3"], {"seed": 3}),
    (_VERIFY + ["--trials", "5", "--trials", "7"], {"trials": 7}),
    (_VERIFY + ["--seed", "-1"], {"seed": -1}),
    (["catalog", "--", "extra"], 2),
    (_VERIFY + ["--", "--trials", "5"], 2),
    (["analyze", "--t", "pi/8", "--surface", "cartan", "--workers", "2"],
     {"command": "analyze", "t": "pi/8", "surface": "cartan", "workers": 2, "samples": 200}),
    (_VERIFY + ["--height", "10", "--format", "csv"],
     {"command": "verify", "identity": "g2", "height": 10, "format": "csv", "trials": 1000}),
]


def _outcome(capsys, call):
    """(Namespace or ("exit", code), stdout, stderr) of call()."""
    try:
        result = call()
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.fixture
def parse_only(monkeypatch):
    """main() with each command's runner replaced by one that hands back
    the parsed Namespace, so main returns it; help text at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    for runner in ("_run_analyze", "_run_verify", "_run_catalog"):
        monkeypatch.setattr(cli, runner, lambda args: args)


@pytest.mark.parametrize("argv, expected", _TABLE, ids=[" ".join(argv) or "(none)" for argv, _ in _TABLE])
def test_main_parses_as_the_top_level_parser(capsys, parse_only, argv, expected):
    top = _outcome(capsys, lambda: cli.build_parser().parse_args(list(argv)))
    assert _outcome(capsys, lambda: cli.main(list(argv))) == top
    result, out, err = top
    if isinstance(expected, int):
        assert result == ("exit", expected)
        assert (out if expected == 0 else err).startswith("usage: spherecurv")
    else:
        assert vars(result).items() >= expected.items() and out == err == ""


def test_a_command_is_parsed_by_its_own_parser_alone(capsys, parse_only, monkeypatch):
    """The top-level parser reads no token of a well-formed command line."""
    parser = cli.build_parser()

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser was asked to parse")

    monkeypatch.setattr(parser, "parse_known_args", refuse)
    args = cli.main(_VERIFY + ["--trials", "14", "--height", "1000", "--seed", "11", "--workers", "1"])
    assert (args.command, args.trials, args.seed) == ("verify", 14, 11)
