"""Command-line front end: verification suites, constructors, numeric demos.

Subcommands:

* ``verify`` runs the symbolic suites (or the numeric demo suite) and emits a
  machine-readable report; exit status 0 means every requested verdict is a
  pass (predicted failures of printed-source variants count as passes).
* ``derive`` prints the derivative equation of a Heun family at exact
  parameter values read from a key = value file.
* ``singularities`` lists the singular points of a Heun or deformation
  equation with their classification.
* ``integrate`` runs one numeric integration and emits the trajectory as CSV
  or JSON.

Parameter files are UTF-8 ``key = value`` lines with exact rational values
(``3``, ``-1/2``); numeric commands additionally accept decimal literals.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import sys
from fractions import Fraction

from .algebra import AlgebraError, const
from .claims import FLAGS, SYMBOLIC_SUITES, run_claims
from .heun import (
    FAMILY_PARAMS,
    HeunError,
    HeunFamily,
    HeunSpec,
    build_heun,
    build_heun_derivative,
    fuchsian_epsilon,
)
from .matching import UnknownCase, matching_case
from .numeric import (
    ComplexPath,
    IntegrationConfig,
    NumericError,
    integrate_hamiltonian,
    integrate_linear,
    integrate_riccati,
)
from .ode import OdeError, singular_points
from .painleve import (
    KIND_PARAMS,
    InvalidSpec,
    PainleveKind,
    build_painleve_linear,
)
from .report import Report

#: Errors that mean the input cannot be verified or integrated as given:
#: exit status 2 with a one-line message, never a traceback.
INPUT_ERRORS = (ValueError, OSError, AlgebraError, HeunError, OdeError,
                NumericError, InvalidSpec, UnknownCase)

FAMILY_NAMES = {
    "general": HeunFamily.GENERAL,
    "confluent": HeunFamily.CONFLUENT,
    "doubleconfluent": HeunFamily.DOUBLE_CONFLUENT,
    "double-confluent": HeunFamily.DOUBLE_CONFLUENT,
    "biconfluent": HeunFamily.BI_CONFLUENT,
    "bi-confluent": HeunFamily.BI_CONFLUENT,
    "triconfluent": HeunFamily.TRI_CONFLUENT,
    "tri-confluent": HeunFamily.TRI_CONFLUENT,
}

KIND_NAMES = {
    "p2": PainleveKind.P2,
    "p3": PainleveKind.P3P,
    "p3prime": PainleveKind.P3P,
    "p4": PainleveKind.P4,
    "p5": PainleveKind.P5,
    "p6": PainleveKind.P6,
}

SUITES = ("all", *SYMBOLIC_SUITES, "numeric")

#: Options each ``integrate`` system cannot run without.
SYSTEM_OPTIONS = {
    "heun": ("family", "path"),
    "heun-derivative": ("family", "path"),
    "riccati": ("kind", "t_range"),
    "hamiltonian": ("kind", "t_range"),
}


def parse_params_text(text: str, *, allow_decimal: bool = False) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not allow_decimal and any(ch in value for ch in ".eE"):
            raise ValueError(
                f"line {lineno}: decimal literals are only accepted by numeric "
                "commands; use an exact rational like 51/100")
        try:
            out[key] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad value {value!r}: {exc}") from exc
    return out


def _load_params(path: str, *, allow_decimal: bool = False) -> dict[str, Fraction]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_params_text(fh.read(), allow_decimal=allow_decimal)


def _heun_spec(family: HeunFamily, values: dict[str, Fraction]) -> HeunSpec:
    wanted = {}
    for key in FAMILY_PARAMS[family]:
        if key not in values:
            if key == "epsilon" and family is HeunFamily.GENERAL and {
                    "alpha", "beta", "gamma", "delta"} <= set(values):
                wanted[key] = fuchsian_epsilon(
                    values["alpha"], values["beta"], values["gamma"], values["delta"])
                continue
            raise ValueError(f"parameter file is missing {key}")
        wanted[key] = const(values[key])
    return HeunSpec.of(family, **wanted)


def _parse_complex(text: str, option: str) -> complex:
    """The finite complex number ``text`` (``0.25-0.5i``) given to ``option``."""
    try:
        value = complex(text.replace(" ", "").replace("i", "j"))
        if cmath.isfinite(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"{option} needs a finite number, got {text.strip()!r}")


def _parse_pathspec(text: str) -> ComplexPath:
    return ComplexPath.of(*(_parse_complex(p, "--path") for p in text.split("->")))


def _parse_pair(text: str, sep: str, option: str) -> tuple[complex, complex]:
    """The two numbers of an option value such as ``0:1`` or ``1,0``."""
    parts = text.split(sep)
    if len(parts) == 2:
        try:
            return _parse_complex(parts[0], option), _parse_complex(parts[1], option)
        except ValueError:
            pass
    raise ValueError(
        f"{option} needs two finite numbers separated by '{sep}', got {text!r}")


def _kind_params(kind: PainleveKind, values: dict[str, Fraction],
                 state: tuple[str, ...] = ()) -> dict[str, Fraction]:
    """The kind's parameters and the named state keys from a parameter file,
    and no other key."""
    keys = KIND_PARAMS[kind] + state
    missing = [k for k in keys if k not in values]
    if missing:
        raise ValueError(f"parameter file is missing {missing[0]}")
    return {k: values[k] for k in keys}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    branches = {"+": (1,), "-": (-1,), "both": (1, -1)}[args.branch]
    flags = frozenset(f for f in FLAGS if getattr(args, f))
    report = Report(suite=args.suite, records=run_claims(
        args.suite, case=args.case, branches=branches, flags=flags))
    text = (report.to_json(timings=args.timings) if args.format == "json"
            else report.to_text(timings=args.timings))
    _emit(text, args.out)
    return report.exit_status()


def cmd_derive(args) -> int:
    family = FAMILY_NAMES[args.family]
    values = _load_params(args.params)
    spec = _heun_spec(family, values)
    ode = build_heun(spec) if args.base else build_heun_derivative(spec)
    if args.format == "json":
        import json
        _emit(json.dumps({"family": family.value,
                          "equation": "base" if args.base else "derivative",
                          "p1": str(ode.p1), "p2": str(ode.p2)}, indent=1),
              args.out)
    else:
        which = "base equation" if args.base else "derivative equation"
        _emit(f"{family.value} {which}\np1 = {ode.p1}\np2 = {ode.p2}", args.out)
    return 0


def cmd_singularities(args) -> int:
    if args.family:
        family = FAMILY_NAMES[args.family]
        values = _load_params(args.params)
        spec = _heun_spec(family, values)
        ode = build_heun_derivative(spec) if args.derivative else build_heun(spec)
    else:
        kind = KIND_NAMES[args.kind]
        values = _kind_params(kind, _load_params(args.params), ("lambda", "mu", "t"))
        ode = build_painleve_linear(kind, values, lam=values["lambda"],
                                    mu=values["mu"], t=values["t"])
    lines = []
    for p in singular_points(ode):
        lines.append(f"{p.location}  [{p.kind}]")
    _emit("\n".join(lines) if lines else "no singular points", args.out)
    return 0


def cmd_integrate(args) -> int:
    try:
        cfg = IntegrationConfig(
            abs_tol=args.abs_tol, rel_tol=args.rel_tol,
            max_step=args.max_step, min_distance=args.min_distance)
    except ValueError as exc:
        # The message starts with the field's name, and the option that
        # sets the field has the same name.
        raise ValueError(f"--{exc}".replace("_", "-")) from None
    system = args.system
    missing = [o for o in SYSTEM_OPTIONS[system] if getattr(args, o) is None]
    if missing:
        raise ValueError(f"--system {system} needs --{missing[0].replace('_', '-')}")
    values = _load_params(args.params, allow_decimal=True) if args.params else {}
    if system in ("heun", "heun-derivative"):
        family = FAMILY_NAMES[args.family]
        spec = _heun_spec(family, values)
        ode = (build_heun_derivative(spec) if system == "heun-derivative"
               else build_heun(spec))
        init = _parse_pair(args.init, ",", "--init")
        traj = integrate_linear(ode, _parse_pathspec(args.path), init, cfg)
    elif system == "riccati":
        kind = KIND_NAMES[args.kind]
        case = matching_case(kind, 1 if args.branch != "-" else -1)
        traj = integrate_riccati(case, _kind_params(kind, values),
                                 _parse_pair(args.t_range, ":", "--t-range"),
                                 _parse_complex(args.lambda0, "--lambda0"), cfg)
    else:
        kind = KIND_NAMES[args.kind]
        traj = integrate_hamiltonian(kind, _kind_params(kind, values),
                                     _parse_pair(args.init, ",", "--init"),
                                     _parse_pair(args.t_range, ":", "--t-range"), cfg,
                                     h2_literal=args.paper_literal_h2)
    _emit(traj.to_json() if args.format == "json" else traj.to_csv(), args.out)
    return 0


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``heunlab`` argument parser, built once per process on first use.

    Every later call returns the same parser.  Parsing only reads it: no
    option appends to a list or carries a mutable default, and each
    subcommand's ``func`` default is only read, so one call's flags cannot
    reach the next.  Nothing builds it at import.
    """
    parser = argparse.ArgumentParser(
        prog="heunlab",
        description=("verification lab for Heun derivative equations and "
                     "Painleve deformation systems"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--case", default=None,
                          help="only run cases whose id contains this string")
    p_verify.add_argument("--branch", choices=["+", "-", "both"], default="both")
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.add_argument("--paper-literal-h2", action="store_true",
                          help="use the literal printed second-kind Hamiltonian "
                               "(its predicted failure is the claim)")
    p_verify.add_argument("--paper-literal-p5", action="store_true",
                          help="use the literal printed fifth-kind right-hand "
                               "side (its predicted failure is the claim)")
    p_verify.add_argument("--family-slip-check", action="store_true",
                          help="also emit the bi-confluent mis-binding record")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall times (reports stop being "
                               "byte-reproducible)")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_derive = sub.add_parser("derive", help="print a derivative equation")
    p_derive.add_argument("--family", choices=sorted(FAMILY_NAMES), required=True)
    p_derive.add_argument("--params", required=True)
    p_derive.add_argument("--base", action="store_true",
                          help="print the base equation instead")
    p_derive.add_argument("--format", choices=["json", "text"], default="text")
    p_derive.add_argument("--out", default=None)
    p_derive.set_defaults(func=cmd_derive)

    p_sing = sub.add_parser("singularities", help="list singular points")
    group = p_sing.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=sorted(FAMILY_NAMES))
    group.add_argument("--kind", choices=sorted(KIND_NAMES))
    p_sing.add_argument("--params", required=True)
    p_sing.add_argument("--derivative", action="store_true",
                        help="use the derivative equation of the family")
    p_sing.add_argument("--out", default=None)
    p_sing.set_defaults(func=cmd_singularities)

    p_int = sub.add_parser("integrate", help="numeric integration")
    p_int.add_argument("--system", required=True,
                       choices=["heun", "heun-derivative", "riccati", "hamiltonian"])
    p_int.add_argument("--family", choices=sorted(FAMILY_NAMES))
    p_int.add_argument("--kind", choices=sorted(KIND_NAMES))
    p_int.add_argument("--branch", choices=["+", "-"], default="+")
    p_int.add_argument("--params", default=None)
    p_int.add_argument("--path", default=None,
                       help="waypoints like '0.25-0.5j -> 0.25+0.5j'")
    p_int.add_argument("--t-range", dest="t_range", default=None,
                       help="range like '0:1'")
    p_int.add_argument("--init", default="1,0",
                       help="initial state components, comma separated")
    p_int.add_argument("--lambda0", default="0")
    p_int.add_argument("--abs-tol", type=float, default=1e-12)
    p_int.add_argument("--rel-tol", type=float, default=1e-10)
    p_int.add_argument("--max-step", type=float, default=None)
    p_int.add_argument("--min-distance", type=float, default=1e-2)
    p_int.add_argument("--paper-literal-h2", action="store_true")
    p_int.add_argument("--format", choices=["csv", "json"], default="csv")
    p_int.add_argument("--out", default=None)
    p_int.set_defaults(func=cmd_integrate)
    return parser


def main(argv=None) -> int:
    """Run one ``heunlab`` command; the parser is built on the first call only."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
