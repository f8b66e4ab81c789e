"""Batch command-line front end.

Subcommands: ``coeff`` (render heat coefficients, optionally against the
bundled reference tables), ``eval`` (cosmology tables for the named expansion
factors), ``pscc`` (packed-sphere expansions and the reconciliation report),
and ``verify`` (numeric identity suites with machine-readable reports).

Exit codes: 0 success, 2 validation error (bad input, or a float evaluation
outside the double range), 3 reference-table mismatch, 4 numeric verification
failure.  argparse is the one option table: each option is declared once,
with its default, type and choices.  A flat key=value config file gives
defaults for those options: a key is an option's dest or its long flag, and
its value is checked as the flag's would be (store-true options take
true/false/1/0), against the running subcommand if it has the option, else
against one that does; explicit flags win.  SPECEXP_THREADS caps the
worker count used by the Monte Carlo internals.  numpy is imported inside the
verify suites only, so ``coeff``, ``eval`` and ``pscc`` never load it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from importlib import resources

from . import bell, bridge, expansion, pscc, specfun, symcore, zeta

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GOLDEN = 3
EXIT_VERIFY = 4


class ValidationError(Exception):
    pass


def worker_count() -> int:
    """Monte Carlo worker count from SPECEXP_THREADS (default 1)."""
    raw = os.environ.get("SPECEXP_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValidationError(f"SPECEXP_THREADS must be a positive integer, got {raw!r}")
    return count


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc.strerror or exc}") from exc
    values = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


def _parse_bool(raw: str) -> bool:
    if raw in ("true", "1"):
        return True
    if raw in ("false", "0"):
        return False
    raise ValidationError(f"boolean config value must be true/false/1/0, got {raw!r}")


def _seed(raw: str) -> int:
    """A --seed value: one Philox key word, an integer in [0, 2^64)."""
    if not (raw.isascii() and raw.isdigit() and int(raw) < 1 << 64):
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64), got {raw!r}")
    return int(raw)


def _config_value(key: str, action: argparse.Action, raw: str):
    """A config-file value, converted and checked by its option's type and choices."""
    if action.nargs == 0:  # store_true
        return _parse_bool(raw)
    try:
        value = (action.type or str)(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValidationError(f"config key {key!r}: invalid value {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValidationError(
            f"config key {key!r} must be one of {list(action.choices)}, got {raw!r}"
        )
    return value


def _apply_config(commands: dict, command: str, values: dict) -> None:
    """Make the config file's values defaults of the running subcommand's options.

    A key names an option by its dest or its long flag.  Its value must be
    valid for the running subcommand if that has the option, and otherwise
    for some subcommand that has it; there it is then ignored.
    """
    for key, raw in values.items():
        owners = {
            name: action
            for name, sub in commands.items()
            for action in sub._actions
            if action.dest != "help" and (key == action.dest or "--" + key in action.option_strings)
        }
        if not owners:
            raise ValidationError(f"unknown config key {key!r}")
        if command in owners:
            action = owners[command]
            commands[command].set_defaults(**{action.dest: _config_value(key, action, raw)})
            continue
        errors = []
        for action in owners.values():
            try:
                _config_value(key, action, raw)
                break
            except ValidationError as exc:
                errors.append(exc)
        else:
            raise errors[0]


# ----------------------------------------------------------------------
# coeff
# ----------------------------------------------------------------------

_REFERENCE_FILES = ("reference_coefficients.json", "reference_coefficients_high.json")


def _reference_tables() -> dict:
    """Bundled a_2M in both forms, keyed by the order 2M as a string."""
    data = resources.files("specexp").joinpath("data")
    tables: dict = {}
    for name in _REFERENCE_FILES:
        tables.update(json.loads(data.joinpath(name).read_text()))
    return tables


def cmd_coeff(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise ValidationError("order must be non-negative")
    if args.order > args.max_order:
        raise ValidationError(
            f"order {args.order} above the complexity guard ({args.max_order}); "
            "raise --max-order explicitly if intended"
        )
    poly = expansion.a2M(args.order)
    if args.check_golden:
        tables = _reference_tables()
        entry = tables.get(str(2 * args.order))
        if entry is None:
            raise ValidationError(f"no bundled reference for order {2 * args.order}")
        ok_ab = symcore.sympoly_from_json(entry["ab"]) == poly
        ok_a = symcore.aform_from_json(entry["a"]) == symcore.to_a_form(poly)
        if not (ok_ab and ok_a):
            print(f"reference mismatch at order {2 * args.order}", file=sys.stderr)
            return EXIT_GOLDEN
        print(f"order {2 * args.order}: matches bundled reference (ab and a forms)")
        return EXIT_OK
    if args.form == "ab":
        if args.fmt == "text":
            print(symcore.sympoly_to_text(poly))
        elif args.fmt == "latex":
            print(symcore.sympoly_to_latex(poly))
        else:
            print(json.dumps(symcore.sympoly_to_json(poly)))
    else:
        aform = symcore.to_a_form(poly)
        if args.fmt == "text":
            print(symcore.aform_to_text(aform))
        elif args.fmt == "latex":
            print(symcore.aform_to_latex(aform))
        else:
            print(json.dumps(symcore.aform_to_json(aform)))
    return EXIT_OK


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    factor = expansion.scale_factor(args.family, H=args.H)
    if args.max_m > args.max_order:
        raise ValidationError("maxM above the complexity guard; raise --max-order")
    rows = expansion.heat_trace_series(args.max_m, factor, args.t)
    if args.fmt == "csv":
        print("exponent,re,im,kind")
        for p, v in rows:
            print(f"{p},{v!r},0.0,bulk")
    elif args.fmt == "json":
        print(json.dumps([{"exponent": p, "value": v} for p, v in rows]))
    else:
        print(f"family={args.family} H={args.H} t={args.t}")
        print(f"{'tau power':>10}  value")
        for p, v in rows:
            print(f"{p:>10}  {v:.12g}")
    return EXIT_OK


# ----------------------------------------------------------------------
# pscc
# ----------------------------------------------------------------------

def _resolve_string(name: str):
    if name == "ford":
        return zeta.FordString()
    if name.endswith(".json"):
        try:
            return zeta.load_string(name)
        except (OSError, ValueError, KeyError) as exc:
            raise ValidationError(f"cannot load string descriptor: {exc}") from exc
    raise ValidationError(f"unknown string {name!r} (use 'ford' or a .json path)")


def cmd_pscc(args: argparse.Namespace) -> int:
    string = _resolve_string(args.string)
    if args.reconcile:
        print(pscc.ford_constants_report_text())
        rep = pscc.ford_constants_reconciliation()
        if not (rep["Lambda^2"]["match"] and rep["Lambda^4"]["match"]):
            return EXIT_VERIFY
        return EXIT_OK
    if args.geometry == "s4":
        geometry = pscc.S4Geometry()
    else:
        geometry = pscc.RWGeometry(expansion.scale_factor(args.family, H=args.H), args.t)
    if args.mode == "heat":
        terms = pscc.round_heat_expansion(string, args.max_m, geometry)
    else:
        terms = pscc.spectral_action(
            string, pscc.gaussian_test_function(), args.lam, args.max_m, geometry
        )
    if args.fmt == "json":
        print(json.dumps(pscc.expansion_to_json(terms)))
    elif args.fmt == "csv":
        print("exponent,re,im,kind")
        for t in terms:
            e = complex(t.exponent)
            c = complex(t.coeff)
            print(f"{e.real:+.12g}{e.imag:+.12g}j,{c.real!r},{c.imag!r},{t.kind}")
    else:
        print(pscc.expansion_table(terms))
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _suite_bridge(args: argparse.Namespace) -> list[dict]:
    import numpy as np

    checks = []
    rng = np.random.default_rng(args.seed)
    # exact route equivalence on a small random word set
    words = []
    for _ in range(8):
        n = int(rng.integers(1, 4))
        w = tuple(int(x) for x in rng.integers(1, 4, n))
        if sum(w) <= 7:
            words.append(w)
    route_ok = all(
        bridge.simplex_integrate(bridge.monomial_bridge_polynomial(w), len(w))
        == bridge.monomial_simplex_integral(w)
        for w in words
    )
    checks.append({"name": "route-equivalence", "pass": bool(route_ok), "detail": f"{len(words)} words"})
    exact = bridge.moment_product({1: 2})
    checks.append(
        {"name": "x1^2-exact", "pass": exact == Fraction(1, 12), "detail": str(exact)}
    )
    est, se = bridge.mc_estimate({1: 2}, args.mc_paths, args.mc_grid, args.seed, worker_count())
    dev = abs(est - 1.0 / 12.0) / se
    checks.append(
        {
            "name": "mc-x1^2",
            "pass": dev <= 4.0,
            "detail": f"est={est:.6g} se={se:.2g} dev={dev:.2f} sigma",
        }
    )
    m24 = bridge.moment_product({2: 1})
    checks.append({"name": "x2-exact", "pass": m24 == Fraction(1, 6), "detail": str(m24)})
    return checks


def _suite_dawson(args: argparse.Namespace) -> list[dict]:
    import numpy as np

    checks = []
    rng = np.random.default_rng(args.seed)
    grid = np.linspace(-10, 10, 81)
    h = 1e-6
    resid = max(
        abs((specfun.dawson(x + h) - specfun.dawson(x - h)) / (2 * h) - 1 + 2 * x * specfun.dawson(x))
        for x in grid
    )
    checks.append({"name": "dawson-ode", "pass": resid < 1e-8, "detail": f"max residual {resid:.2g}"})
    for n in (1, 2, 3):
        ok = True
        worst = 0.0
        for _ in range(5):
            u = rng.uniform(0.3, 2.0, n)
            lhs, rhs, good = specfun.verify_dawson_simplex(n, u, tol=1e-9)
            worst = max(worst, abs(lhs - rhs))
            ok = ok and good
        checks.append(
            {"name": f"dawson-simplex-n{n}", "pass": ok, "detail": f"worst |diff| {worst:.2g}"}
        )
    u4 = rng.uniform(0.3, 2.0, 4)
    lhs, rhs, ok4 = specfun.verify_dawson_simplex(4, u4, tol=1e-5)
    checks.append(
        {"name": "dawson-simplex-n4", "pass": ok4, "detail": f"|diff|={abs(lhs-rhs):.2g}"}
    )
    return checks


def _suite_mellin(args: argparse.Namespace) -> list[dict]:
    import numpy as np

    checks = []
    rng = np.random.default_rng(args.seed)
    draws = 10
    ok = True
    worst = 0.0
    for _ in range(draws):
        U = float(rng.uniform(0.2, 3.0))
        V = float(rng.uniform(-3.0, 3.0))
        lhs, rhs, good = specfun.verify_gaussian_multiplicity(U, V)
        ok = ok and good
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    detail = f"worst |diff|/max(1, |rhs|) {worst:.2g}"
    checks.append({"name": "gaussian-multiplicity", "pass": ok, "detail": detail})
    ok = True
    for _ in range(draws):
        U = float(rng.uniform(0.2, 3.0))
        V = float(rng.uniform(-3.0, 3.0))
        lhs, rhs, good = specfun.verify_mellin_z1(U, V)
        ok = ok and good
    checks.append({"name": "mellin-z1", "pass": ok, "detail": f"{draws} draws"})
    ok = True
    for _ in range(draws):
        z = complex(rng.uniform(0.6, 3.0), rng.uniform(-1.5, 1.5))
        U = float(rng.uniform(0.3, 2.5))
        V = float(rng.uniform(-2.5, 2.5))
        ok = ok and specfun.verify_mellin_pm(z, U, V)
    checks.append({"name": "mellin-pm", "pass": ok, "detail": f"{draws} draws"})
    return checks


def _count_set_partitions(n: int) -> int:
    """Brute-force count of the set partitions of n items.

    Enumerates the restricted growth strings a_1 = 0, a_i <= 1 + max(a_<i),
    one per partition, independently of ``bell.bell_number``'s recurrence.
    """

    def extend(i: int, top: int) -> int:
        if i >= n:
            return 1
        return sum(extend(i + 1, max(top, a)) for a in range(top + 2))

    return extend(1, 0)


def _suite_bell(args: argparse.Namespace) -> list[dict]:
    import numpy as np

    checks = []
    ok = all(bell.bell_number(n) == _count_set_partitions(n) for n in range(0, 9))
    checks.append({"name": "bell-row-sum", "pass": ok, "detail": "n<= 8"})
    rng = np.random.default_rng(args.seed)
    ok = True
    for _ in range(10):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(0, n + 1))
        xs = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(n - k + 1 if n >= k else 1)]
        c = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        lhs = bell.bell_polynomial(n, k, [c**i * x for i, x in enumerate(xs, start=1)])
        rhs = c**n * bell.bell_polynomial(n, k, xs)
        ok = ok and lhs == rhs
    checks.append({"name": "bell-homogeneity", "pass": ok, "detail": "10 random draws"})
    val = bell.faa_di_bruno(3, [math.e, math.e, math.e], [1.0, 0.0, 0.0])
    checks.append(
        {"name": "faa-di-bruno-exp", "pass": abs(val - math.e) < 1e-12, "detail": f"{val:.12g}"}
    )
    return checks


def _suite_poles(args: argparse.Namespace) -> list[dict]:
    """One bundled Ford pole-table row per seed, so a seed pool covers them all."""
    try:
        entry = args.seed % len(zeta.zero_ordinates())
        worst = zeta.check_pole_table([entry])
    except zeta.PoleTableError as exc:
        return [{"name": "ford-pole-row", "pass": False, "detail": str(exc)}]
    detail = f"row {entry}: ordinate bracketed, residue rel. diff {worst:.2g}"
    return [{"name": "ford-pole-row", "pass": True, "detail": detail}]


_SUITES = {
    "bridge": _suite_bridge,
    "dawson": _suite_dawson,
    "mellin": _suite_mellin,
    "bell": _suite_bell,
    "poles": _suite_poles,
}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    report = {"seed": args.seed, "suites": {}}
    all_ok = True
    for name in names:
        checks = _SUITES[name](args)
        for c in checks:
            # suites may report numpy booleans, which json cannot encode
            c["pass"] = bool(c["pass"])
        ok = all(c["pass"] for c in checks)
        all_ok = all_ok and ok
        report["suites"][name] = {"pass": ok, "checks": checks}
    report["pass"] = all_ok
    if args.fmt == "json":
        print(json.dumps(report, indent=1))
    else:
        for name, data in report["suites"].items():
            print(f"[{name}] {'PASS' if data['pass'] else 'FAIL'}")
            for c in data["checks"]:
                print(f"  {'ok ' if c['pass'] else 'FAIL'} {c['name']}: {c['detail']}")
        print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VERIFY


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _add_format(p: argparse.ArgumentParser, *choices: str) -> None:
    p.add_argument("--format", dest="fmt", choices=("text", *choices), default="text")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The specexp parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="specexp",
        description="exact spectral-action expansions for Robertson-Walker and packed-sphere geometries",
    )
    parser.add_argument("--config", help="flat key=value defaults file; a key is an option's "
                                         "dest or long flag, its value is checked as the flag's")
    sub = parser.add_subparsers(dest="command", required=True)

    guard = argparse.ArgumentParser(add_help=False)
    guard.add_argument("--max-order", dest="max_order", type=int, default=4,
                       help="complexity guard on M")
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--family", default="inflation")
    scale.add_argument("--H", type=float, default=1.0)
    scale.add_argument("--t", type=float, default=1.0)
    scale.add_argument("--maxM", dest="max_m", type=int, default=2)

    p = sub.add_parser("coeff", parents=[guard], help="render a heat coefficient")
    p.add_argument("--order", type=int, default=0, help="M in a_{2M}")
    p.add_argument("--form", choices=("ab", "a"), default="ab")
    _add_format(p, "latex", "json")
    p.add_argument("--check-golden", dest="check_golden", action="store_true")

    p = sub.add_parser("eval", parents=[scale, guard], help="evaluate cosmology coefficient tables")
    _add_format(p, "csv", "json")

    p = sub.add_parser("pscc", parents=[scale], help="packed-sphere expansions")
    p.add_argument("--string", default="ford", help="'ford' or a descriptor .json path")
    p.add_argument("--geometry", choices=("s4", "rw"), default="s4")
    p.add_argument("--lambda", dest="lam", type=float, default=10.0,
                   help="cutoff Lambda, positive and finite; only validated, in action "
                        "mode: the action rows are the Lambda-free coefficients of "
                        "Lambda^exponent")
    p.add_argument("--mode", choices=("action", "heat"), default="action")
    _add_format(p, "csv", "json")
    p.add_argument("--reconcile-paper", dest="reconcile", action="store_true")

    p = sub.add_parser("verify", help="run numeric verification suites")
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--paths", dest="mc_paths", type=int, default=200_000,
                   help="Monte Carlo path count for the bridge suite")
    p.add_argument("--grid", dest="mc_grid", type=int, default=1024,
                   help="Monte Carlo grid size for the bridge suite")
    _add_format(p, "json")
    return parser, sub.choices


_DISPATCH = {
    "coeff": cmd_coeff,
    "eval": cmd_eval,
    "pscc": cmd_pscc,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's values become defaults, so explicit flags still win
            _apply_config(commands, args.command, _read_config_file(args.config))
            args = parser.parse_args(argv)
        for flag, dest in (("H", "H"), ("t", "t")):
            value = vars(args).get(dest, 0.0)
            if not math.isfinite(value):
                raise ValidationError(f"--{flag} must be finite, got {value!r}")
        return _DISPATCH[args.command](args)
    except (ValidationError, ValueError, symcore.FloatRangeError, ZeroDivisionError) as exc:
        # ValueError covers PoleError and CollisionError; a ZeroDivisionError
        # is a singular evaluation point, such as a(t) = 0
        singular = "evaluation singularity: " if isinstance(exc, ZeroDivisionError) else ""
        print(f"error: {singular}{exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
