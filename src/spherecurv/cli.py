"""Command-line interface: surface analysis, identity sweeps, catalog checks.

Exit codes: 0 on success, 2 on configuration errors, 3 when a numerical or
algebraic verification fails (identity counterexample, failing catalog check,
or too many projection failures during analysis).

The report goes to stdout (or --output) in JSON or CSV; a short human summary
goes to stderr. Color is used on the stderr summary only when it is a TTY and
NO_COLOR is unset.

Each command's parser parses that command's own arguments, so every token is
read once; the top-level parser handles help, an unknown or missing command
and unrecognized arguments, with argparse's messages and exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

from .catalog import all_models, cartan_level, checks_passed, model_check
from .fields import cartan_field, coordinate_field
from .report import (
    REPORT_SCHEMA,
    build_report,
    catalog_payload,
    stats_payload,
    to_csv,
    to_json,
    verdicts_payload,
)
from .sphere import LevelSpec

SURFACES = ("equator", "cartan")
# sorted(identities.IDENTITY_NAMES), written out so that the parser does not
# load the exact engine; tests/test_exports.py checks that the two agree.
IDENTITIES = ("dpsi", "g2", "g3", "i-closed", "i-sign", "recover", "vandermonde")


def sweep_analyze(*args, **kwargs):
    """shape.sweep_analyze, imported on the first call, so that only analyze
    loads shape and eigen. _run_analyze calls it through this module
    attribute because the benchmark's tracer and the tests substitute it."""
    from .shape import sweep_analyze

    return sweep_analyze(*args, **kwargs)


def run_identity_sweep(*args, **kwargs):
    """identities.run_identity_sweep, imported on the first call, so that only
    verify loads identities and exact. _run_verify calls it through this
    module attribute because the benchmark's tracer and the tests substitute it."""
    from .identities import run_identity_sweep

    return run_identity_sweep(*args, **kwargs)


class ConfigError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


def parse_angle(text: str) -> float:
    """Parse an angle given as decimal radians or as the literal pi/N."""
    s = text.strip().lower()
    if s.startswith("pi/"):
        try:
            denom = int(s[3:])
        except ValueError:
            raise ConfigError(f"bad angle literal {text!r}; expected pi/N or radians") from None
        if denom <= 0:
            raise ConfigError(f"bad angle literal {text!r}; denominator must be positive")
        return math.pi / denom
    try:
        value = float(s)
    except ValueError:
        raise ConfigError(f"bad angle {text!r}; expected pi/N or decimal radians") from None
    if not math.isfinite(value):
        raise ConfigError(f"angle must be finite, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _color(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR"):
        return text
    if not sys.stderr.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _ok(flag: bool) -> str:
    return _color("ok", "32") if flag else _color("FAIL", "31")


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with one subparser per command."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """(top-level parser, {command: its own parser}), built once."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root RNG seed (default 0)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default json)")
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")
    common.add_argument("--workers", type=_positive_int, default=1,
                        help="parallel sweep workers (default 1, deterministic)")

    parser = argparse.ArgumentParser(
        prog="spherecurv",
        description="Curvature analysis of level surfaces in the unit 5-sphere "
                    "and exact verification of the related algebraic identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", parents=[common],
                          help="sample a level surface and report curvature invariants")
    p_an.add_argument("--surface", choices=SURFACES, required=True,
                      help="which surface family to sample")
    p_an.add_argument("--t", metavar="ANGLE", default=None,
                      help="cartan family parameter in (0, pi/4); radians or pi/N")
    p_an.add_argument("--samples", type=_positive_int, default=200,
                      help="number of surface points (default 200)")
    p_an.add_argument("--tol", type=_positive_float, default=1e-8,
                      help="mean-curvature threshold for the verdict (default 1e-8)")

    p_ve = sub.add_parser("verify", parents=[common],
                          help="run one exact identity sweep over random inputs")
    p_ve.add_argument("--identity", choices=IDENTITIES, required=True,
                      help="which identity to sweep")
    p_ve.add_argument("--trials", type=_positive_int, default=1000,
                      help="number of random trials (default 1000)")
    p_ve.add_argument("--height", type=_positive_int, default=1000,
                      help="max |numerator|, |denominator| of random rationals (default 1000)")

    p_ca = sub.add_parser("catalog", parents=[common],
                          help="list the closed-form models and run their consistency checks")
    return parser, {"analyze": p_an, "verify": p_ve, "catalog": p_ca}


def _config_echo(args: argparse.Namespace, **extra) -> dict:
    echo = dict.fromkeys(REPORT_SCHEMA["properties"]["config"]["properties"])
    echo.update(seed=args.seed, output=args.output, format=args.format, workers=args.workers, **extra)
    return echo


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        text = to_json(report)
    else:
        text = to_csv(report["command"], report["results"])
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --output {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _run_analyze(args: argparse.Namespace) -> int:
    t = None
    if args.surface == "equator":
        if args.t is not None:
            raise ConfigError("--t applies only to --surface cartan")
        spec = LevelSpec(coordinate_field(5), 0.0)
        level = 0.0
    else:
        if args.t is None:
            raise ConfigError("--t is required for --surface cartan")
        t = parse_angle(args.t)
        try:
            level = cartan_level(t)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        spec = LevelSpec(cartan_field(), level)

    start = time.perf_counter()
    try:
        stats = sweep_analyze(spec, args.samples, args.seed, args.tol, args.workers)
    except RuntimeError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 3
    timing = time.perf_counter() - start

    config = _config_echo(args, surface=args.surface, t=t, level=level,
                          samples=args.samples, tol=args.tol)
    report = build_report("analyze", config, stats_payload(stats), timing)
    _emit(report, args)
    verdict_ok = stats.verdict != "inconclusive"
    print(
        f"analyze {args.surface}: {stats.n_points} points, "
        f"{stats.n_failures} projection failures, "
        f"max|f1|={stats.max_abs_f1:.3e}, verdict {stats.verdict} [{_ok(verdict_ok)}]",
        file=sys.stderr,
    )
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    try:
        verdict = run_identity_sweep(args.identity, args.trials, args.seed,
                                     height=args.height, workers=args.workers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    timing = time.perf_counter() - start

    config = _config_echo(args, identity=args.identity, trials=args.trials,
                          height=args.height)
    report = build_report("verify", config, verdicts_payload([verdict]), timing)
    _emit(report, args)
    passed = verdict.failures == 0
    mode = "exact" if verdict.exact else "float"
    print(
        f"verify {args.identity}: {verdict.trials} trials ({mode}), "
        f"{verdict.failures} failures [{_ok(passed)}]",
        file=sys.stderr,
    )
    return 0 if passed else 3


def _run_catalog(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    entries = [(model, model_check(model)) for model in all_models()]
    timing = time.perf_counter() - start

    report = build_report("catalog", _config_echo(args), catalog_payload(entries), timing)
    _emit(report, args)
    all_ok = True
    for model, checks in entries:
        ok = checks_passed(checks)
        all_ok = all_ok and ok
        print(
            f"catalog {model.name}: g={model.g} S={model.S_expected} "
            f"R={model.R_expected} checks {len(checks)} [{_ok(ok)}]",
            file=sys.stderr,
        )
    return 0 if all_ok else 3


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as build_parser().parse_args(argv) would, with the same
    exits and messages, but each token parsed once: when argv[0] names a
    command, that command's parser reads the rest, and extra tokens are
    reported by the top-level parser, as argparse does. Anything else (no
    arguments, help, an unknown command) goes to the top-level parser."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    runners = {"analyze": _run_analyze, "verify": _run_verify, "catalog": _run_catalog}
    try:
        if args.output == "":
            raise ConfigError("--output needs a path, got ''")
        if args.output and (os.path.isdir(args.output)
                            or not os.path.isdir(os.path.dirname(os.path.abspath(args.output)))):
            raise ConfigError(f"--output is a directory or in a missing one: {args.output!r}")
        return runners[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
