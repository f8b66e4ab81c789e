import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import specexp
from specexp import cli, zeta
from specexp import symcore as sc


# a Monte Carlo of 20 000 paths on a grid of 128 for the bridge suite
SMALL_MC = ("--paths", "20000", "--grid", "128")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeff:
    def test_order_zero_text(self, capsys):
        code, out, _ = run(capsys, "coeff", "--order", "0", "--form", "ab")
        assert code == 0 and out.strip() == "1/2 * B^(-3/2)"

    def test_order_one_a_form(self, capsys):
        code, out, _ = run(capsys, "coeff", "--order", "1", "--form", "a")
        assert code == 0
        assert "a * a'^2" in out and "a^2 * a''" in out and "-1/4 * a" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "coeff", "--order", "2", "--format", "json")
        assert code == 0
        from specexp import expansion

        assert sc.sympoly_from_json(json.loads(out)) == expansion.a2M(2)

    def test_check_golden_passes(self, capsys):
        for order in ("0", "1", "2", "4"):
            code, out, _ = run(capsys, "coeff", "--order", order, "--check-golden")
            assert code == 0 and "matches" in out

    def test_check_golden_a10(self, capsys):
        code, out, _ = run(
            capsys, "coeff", "--order", "5", "--max-order", "5", "--check-golden"
        )
        assert code == 0 and "order 10: matches" in out

    @pytest.mark.parametrize("order", ["6", "7"])
    def test_check_golden_a12_a14(self, capsys, order):
        code, out, _ = run(
            capsys, "coeff", "--order", order, "--max-order", "7", "--check-golden"
        )
        assert code == 0 and f"order {2 * int(order)}: matches" in out

    def test_check_golden_mismatch_exit_code(self, capsys, monkeypatch):
        tampered = {
            "2": {
                "ab": {"terms": [{"coeff": {"p": 1, "q": 1, "p2": 0, "q2": 1},
                                   "bHalf": -3, "a": [], "b": []}]},
                "a": {"terms": []},
            }
        }
        monkeypatch.setattr(cli, "_reference_tables", lambda: tampered)
        code, out, err = run(capsys, "coeff", "--order", "1", "--check-golden")
        assert code == cli.EXIT_GOLDEN

    def test_complexity_guard(self, capsys):
        code, _, err = run(capsys, "coeff", "--order", "9")
        assert code == cli.EXIT_VALIDATION and "guard" in err

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "coeff", "--order", "0", "--format", "latex")
        assert code == 0 and "\\frac" in out


class TestEval:
    def test_empty_universe_a4_row_zero(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "empty", "--H", "1", "--t", "2", "--maxM", "2"
        )
        assert code == 0
        row = [l for l in out.splitlines() if l.strip().startswith("0")]
        assert row and float(row[0].split()[1]) == 0.0

    def test_sphere_equator(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "sphere", "--t", "1.5708", "--maxM", "1"
        )
        assert code == 0 and "-0.4999" in out

    def test_radiation_finite(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "radiation", "--H", "2", "--t", "0.7",
            "--maxM", "2", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert all(abs(r["value"]) < 1e6 for r in rows)

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "inflation", "--t", "0.5", "--maxM", "1",
            "--format", "csv",
        )
        assert code == 0 and out.splitlines()[0] == "exponent,re,im,kind"

    def test_singularity_is_validation_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--family", "empty", "--H", "1", "--t", "0", "--maxM", "3"
        )
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [
        ["eval", "--family", "empty", "--H", "0", "--t", "2", "--maxM", "2"],
        ["pscc", "--string", "ford", "--geometry", "rw", "--family", "empty", "--H", "0"],
    ], ids=["eval", "pscc"])
    def test_empty_universe_with_zero_h_is_validation_error(self, capsys, argv):
        # a = H t is identically 0 at H = 0: no all-zero rows, exit 2
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_VALIDATION and out == ""
        assert "H != 0" in err

    def test_float_overflow_is_validation_error(self, capsys):
        # t^(1/2 - i) leaves the double range in the derivatives of a(t)
        code, out, err = run(
            capsys, "eval", "--family", "radiation", "--t", "1e-60", "--maxM", "4"
        )
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval"],
    ["pscc", "--geometry", "rw"],
    ["pscc", "--geometry", "rw", "--mode", "heat"],
], ids=["eval", "pscc-action", "pscc-heat"])
def test_singular_point_is_validation_error(capsys, argv):
    # a(t) = sqrt(2 H t) has singular derivatives at t = 0
    code, out, err = run(capsys, *argv, "--family", "radiation", "--t", "0")
    assert code == cli.EXIT_VALIDATION and out == ""
    assert err.startswith("error: evaluation singularity: ") and err.count("\n") == 1


class TestPscc:
    def test_two_ball_no_pole_rows(self, capsys, tmp_path):
        path = tmp_path / "two-ball.json"
        path.write_text(json.dumps({"variant": "truncated", "radii": [[1, 1], [0.5, 1]]}))
        code, out, _ = run(capsys, "pscc", "--string", str(path), "--geometry", "s4")
        assert code == 0 and "pole" not in out.split("kind", 1)[1]

    def test_ford_reconcile(self, capsys):
        code, out, _ = run(capsys, "pscc", "--string", "ford", "--reconcile-paper")
        assert code == 0
        assert "4725*zeta(7)/(16*pi^8)" in out and "7/27" in out

    def test_ford_log_periodic_rows(self, capsys):
        code, out, _ = run(
            capsys, "pscc", "--string", "ford", "--geometry", "s4",
            "--lambda", "100", "--maxM", "2",
        )
        assert code == 0 and "ln X" in out

    def test_collision_is_validation_error(self, capsys):
        code, _, err = run(
            capsys, "pscc", "--string", "ford", "--geometry", "s4", "--maxM", "4"
        )
        assert code == cli.EXIT_VALIDATION and "collides" in err

    @pytest.mark.parametrize("geometry", ["s4", "rw"])
    @pytest.mark.parametrize("mode", ["heat", "action"])
    def test_collision_message_does_not_depend_on_the_strip(self, capsys, geometry, mode):
        # the CLI expands over the default strip, which reaches the Ford pole
        # at -2; a strip above it gives the library the same collision
        from specexp import expansion, pscc

        geo = pscc.S4Geometry() if geometry == "s4" else pscc.RWGeometry(
            expansion.scale_factor("inflation", 1.0), 1.0)
        with pytest.raises(pscc.CollisionError) as info:
            pscc.round_heat_expansion(zeta.FordString(), 3, geo, ((0.0, 4.5), (-46.0, 46.0)))
        code, out, err = run(capsys, "pscc", "--string", "ford", "--geometry", geometry,
                             "--mode", mode, "--maxM", "3")
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err == f"error: {info.value}\n"
        assert "string pole at -2.0 collides with the bulk exponent 4-2M for M=3" in err

    def test_bad_string(self, capsys):
        code, _, err = run(capsys, "pscc", "--string", "nope")
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("obj", [
        {"variant": "truncated", "radii": 5},
        [1, 2],
        {"variant": "analytic", "poles": [[0.5, 0, 1, 0]], "radii": 3},
        {"variant": "truncated", "radii": [[math.nan, 1]]},
        {"variant": "truncated", "radii": [[0.5, 2.5]]},
        {"variant": "analytic", "poles": [[0.5, math.inf, 1, 0]]},
        {"variant": "truncated", "radii": [[True, True]]},
        {"variant": "analytic", "poles": [[0.5, False, 1, 0]], "radii": [[1, 1]]},
    ], ids=["radii-not-a-list", "not-an-object", "analytic-radii-not-a-list",
            "nan-radius", "fractional-mult", "inf-pole",
            "bool-radius", "bool-pole"])
    def test_malformed_string_descriptor(self, capsys, tmp_path, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "pscc", "--string", str(path))
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err.startswith("error: cannot load string descriptor")

    def test_rw_geometry_heat_mode(self, capsys):
        code, out, _ = run(
            capsys, "pscc", "--string", "ford", "--geometry", "rw",
            "--family", "inflation", "--H", "1", "--t", "0.5",
            "--maxM", "2", "--mode", "heat",
        )
        assert code == 0 and "bulk" in out and "pole" in out

    def test_json_output_parses(self, capsys):
        code, out, _ = run(
            capsys, "pscc", "--string", "ford", "--geometry", "s4",
            "--maxM", "2", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert {"kind", "exponent", "coeff"} <= set(rows[0])


class TestVerify:
    def test_bridge_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bridge", "--seed", "7", *SMALL_MC)
        assert code == 0 and "x1^2-exact" in out

    def test_deterministic_given_seed(self, capsys):
        code1, out1, _ = run(
            capsys, "verify", "--suite", "mellin", "--seed", "7", "--format", "json"
        )
        code2, out2, _ = run(
            capsys, "verify", "--suite", "mellin", "--seed", "7", "--format", "json"
        )
        assert code1 == code2 == 0 and out1 == out2

    def test_gaussian_multiplicity_reports_the_gated_figure(self, capsys):
        # seed 6 draws |rhs| = 1.5e6, where the absolute difference is 1.4e-9
        code, out, _ = run(capsys, "verify", "--suite", "mellin", "--seed", "6",
                           "--format", "json")
        check = json.loads(out)["suites"]["mellin"]["checks"][0]
        assert code == cli.EXIT_OK and check["name"] == "gaussian-multiplicity"
        assert check["pass"] and float(check["detail"].split()[-1]) <= 1e-10

    def test_bell_suite_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "bell", "--seed", "1", "--format", "json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "7.5"])
    def test_seed_outside_philox_key_exits_2(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "bridge", "--seed", seed])
        assert exc.value.code == cli.EXIT_VALIDATION
        assert "argument --seed: must be an integer in [0, 2^64)" in capsys.readouterr().err

    def test_poles_suite_checks_row_seed_mod_25(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "poles", "--seed", "57",
                           "--format", "json")
        (check,) = json.loads(out)["suites"]["poles"]["checks"]
        assert code == cli.EXIT_OK and check["pass"] and check["detail"].startswith("row 7:")

    def test_all_includes_poles_suite(self, capsys):
        code, out, _ = run(capsys, "verify", *SMALL_MC, "--seed", "3", "--format", "json")
        rep = json.loads(out)
        assert code == cli.EXIT_OK and list(rep["suites"]) == [
            "bridge", "dawson", "mellin", "bell", "poles"]
        assert rep["suites"]["poles"]["checks"][0]["detail"].startswith("row 3:")

    @pytest.mark.parametrize("corrupt", ["residue", "ordinate"])
    def test_corrupted_pole_row_exits_verify(self, capsys, monkeypatch, corrupt):
        good = zeta._pole_table()
        g3 = zeta.zero_ordinates()[3]
        if corrupt == "residue":
            bad = {g: -res if g == g3 else res for g, res in good.items()}
        else:
            bad = {(g + 0.2 if g == g3 else g): res for g, res in good.items()}
        monkeypatch.setattr(zeta, "_pole_table", lambda: bad)
        code, out, _ = run(capsys, "verify", "--suite", "poles", "--seed", "28")
        assert code == cli.EXIT_VERIFY and "FAIL ford-pole-row" in out

    def test_malformed_pole_table_exits_verify(self, capsys, monkeypatch):
        def malformed():
            raise zeta.PoleTableError("expected 25 positive, strictly increasing zero ordinates")

        monkeypatch.setattr(zeta, "_pole_table", malformed)
        code, out, _ = run(capsys, "verify", "--suite", "poles")
        assert code == cli.EXIT_VERIFY and "strictly increasing" in out

    def test_set_partition_counter_gives_bell_numbers(self):
        counts = [cli._count_set_partitions(n) for n in range(9)]
        assert counts == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_dawson_suite_json(self, capsys):
        # the Dawson suite's quadrature checks return numpy booleans
        code, out, _ = run(
            capsys, "verify", "--suite", "dawson", "--format", "json"
        )
        rep = json.loads(out)
        assert rep["pass"] in (True, False)
        assert code == (cli.EXIT_OK if rep["pass"] else cli.EXIT_VERIFY)
        checks = rep["suites"]["dawson"]["checks"]
        assert checks and all(c["pass"] in (True, False) for c in checks)


class TestWorkerCount:
    def test_default_and_large_value(self, monkeypatch):
        monkeypatch.delenv("SPECEXP_THREADS", raising=False)
        assert cli.worker_count() == 1
        monkeypatch.setenv("SPECEXP_THREADS", "100000")
        assert cli.worker_count() == 100000

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
    def test_bad_value_is_validation_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("SPECEXP_THREADS", raw)
        with pytest.raises(cli.ValidationError):
            cli.worker_count()
        code, _, err = run(capsys, "verify", "--suite", "bridge", "--seed", "7", *SMALL_MC)
        assert code == cli.EXIT_VALIDATION and "SPECEXP_THREADS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--family", "matter", "--maxM", "-1"],
        ["pscc", "--string", "ford", "--maxM", "-1"],
        ["pscc", "--string", "ford", "--mode", "heat", "--maxM", "-1"],
    ],
    ids=["eval", "pscc-action", "pscc-heat"],
)
def test_negative_max_m_is_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_VALIDATION and out == "" and "max_m" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--family", "matter", "--maxM", "2", "--t", "-1"],
        ["eval", "--family", "radiation", "--maxM", "2", "--t", "-1"],
        ["eval", "--family", "matter", "--maxM", "2", "--t", "1", "--H", "-1"],
        ["eval", "--family", "matter", "--maxM", "2", "--t", "nan"],
        ["pscc", "--geometry", "s4", "--maxM", "2", "--lambda", "nan"],
    ],
    ids=["matter-negative-t", "radiation-negative-t", "matter-negative-H",
         "nan-t", "nan-lambda"],
)
def test_out_of_domain_input_is_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_VALIDATION and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestLambdaCheck:
    """Lambda is checked once, by the spectral action, so only where it is used."""

    def test_heat_mode_ignores_lambda(self, capsys):
        base = ["pscc", "--mode", "heat", "--maxM", "1"]
        code, out, err = run(capsys, *base, "--lambda", "-1")
        assert code == cli.EXIT_OK and err == ""
        assert out == run(capsys, *base)[1]

    def test_action_mode_rejects_negative_lambda(self, capsys):
        code, out, err = run(capsys, "pscc", "--mode", "action", "--lambda", "-1", "--maxM", "1")
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err == "error: Lambda must be positive and finite, got -1.0\n"


def _fresh_python(script: str, timeout: float) -> list[str]:
    """Run script in a new interpreter on this checkout; its stdout lines."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_EXACT_COMMANDS = (
    "import sys, specexp\n"
    "print('numpy' in sys.modules)\n"
    "from specexp import cli\n"
    "assert cli.main(['coeff', '--order', '2']) == 0\n"
    "assert cli.main(['eval', '--family', 'matter', '--maxM', '4']) == 0\n"
    "assert cli.main(['pscc', '--string', 'ford', '--geometry', 's4', '--maxM', '2']) == 0\n"
)


def test_coeff_and_eval_do_not_import_scipy():
    # the package does not use scipy; coeff, eval and pscc must not load it
    script = _EXACT_COMMANDS + (
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_python(script, timeout=120)[-1] == "[]"


def test_import_and_exact_commands_do_not_import_numpy():
    # numpy serves only Monte Carlo, array strings and the verify suites
    lines = _fresh_python(_EXACT_COMMANDS + "print('numpy' in sys.modules)\n", timeout=120)
    assert lines[0] == "False" and lines[-1] == "False"


def test_every_annotation_resolves():
    # typing.get_type_hints must resolve the names that annotations use,
    # numpy's included, although no module imports numpy at its top
    checked = set()
    for info in pkgutil.iter_modules(specexp.__path__):
        if info.name == "__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module(f"specexp.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
                func = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(func):
                    typing.get_type_hints(func)
                    checked.add(func.__qualname__)
    assert {"_exact_sum", "euler_totient_sieve", "TruncatedString.from_arrays"} <= checked


def test_array_paths_load_numpy_on_demand():
    script = (
        "import sys\n"
        "from specexp import cli, zeta\n"
        "print('numpy' in sys.modules)\n"
        f"code = cli.main(['verify', '--suite', 'bridge', *{SMALL_MC}])\n"
        "print(code, 'numpy' in sys.modules)\n"
        "print(zeta.ford_prefix_string(1000).zeta(2.0))\n"
    )
    lines = _fresh_python(script, timeout=120)
    assert lines[0] == "False" and lines[-2] == "0 True"
    # the tail beyond n = 1000 is below 1e-6 of 2^-2 zeta(3)/zeta(4)
    assert float(lines[-1]) == pytest.approx(zeta.ford_zeta(2.0).real, rel=1e-6)


def test_verify_does_not_import_scipy_stats():
    # the Dawson checks use a numpy Gauss-Legendre rule, not scipy's QMC
    script = (
        "import sys\n"
        "from specexp import cli\n"
        f"code = cli.main(['verify', '--suite', 'all', *{SMALL_MC}])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    assert _fresh_python(script, timeout=300)[-1] == "0 []"


@pytest.mark.parametrize("suite", ["all", *cli._SUITES])
def test_verify_does_not_import_scipy(suite):
    # quadrature and Dawson run on mpmath; scipy is a test-only dependency
    script = (
        "import sys\n"
        "from specexp import cli\n"
        f"code = cli.main(['verify', '--suite', '{suite}', *{SMALL_MC}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_python(script, timeout=300)[-1] == "0 []"


class TestConfig:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("order=1\nform=ab\nformat=text\n")
        code, out, _ = run(capsys, "--config", str(cfgfile), "coeff")
        assert code == 0 and "A'^2" in out
        code, out, _ = run(capsys, "--config", str(cfgfile), "coeff", "--order", "0")
        assert code == 0 and out.strip() == "1/2 * B^(-3/2)"

    def test_unknown_config_key(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("nonsense=1\n")
        code, _, err = run(capsys, "--config", str(cfgfile), "coeff", "--order", "0")
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_file_is_validation_error(self, capsys, tmp_path, name):
        path = str(tmp_path / name)
        code, out, err = run(capsys, "--config", path, "coeff", "--order", "0")
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err.startswith("error: ") and path in err and len(err.splitlines()) == 1

    def test_mode_heat_from_config_file(self, capsys, tmp_path):
        argv = ("pscc", "--string", "ford", "--geometry", "rw", "--family", "inflation",
                "--t", "0.5", "--maxM", "2")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mode=heat\ncheck_golden=true\n")
        code, out, _ = run(capsys, "--config", str(cfgfile), *argv)
        flag_code, flag_out, _ = run(capsys, *argv, "--mode", "heat")
        action_code, action_out, _ = run(capsys, *argv)
        assert code == flag_code == action_code == 0
        assert out == flag_out and out != action_out

    @pytest.mark.parametrize(
        "line", ["reconcile=yes", "check_golden=True", "reconcile=", "mode=bogus", "tolerance=1e-3",
                 "testfn=gaussian", "seed=-1", "seed=18446744073709551616"]
    )
    def test_bad_config_value_is_validation_error(self, capsys, tmp_path, line):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        code, _, err = run(capsys, "--config", str(cfgfile), "coeff", "--order", "0")
        assert code == cli.EXIT_VALIDATION and "error:" in err

    @pytest.mark.parametrize(
        "line, argv, flags",
        [
            ("max-order=5", ["coeff", "--order", "5"], ["--max-order", "5"]),
            ("check-golden=true", ["coeff", "--order", "1"], ["--check-golden"]),
        ],
        ids=["max-order", "check-golden"],
    )
    def test_flag_spelled_key_matches_flag(self, capsys, tmp_path, line, argv, flags):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        code, out, _ = run(capsys, "--config", str(cfgfile), *argv)
        flag_code, flag_out, _ = run(capsys, *argv, *flags)
        assert code == flag_code == 0 and out == flag_out

    @pytest.mark.parametrize("line, expected", [("format=latex", cli.EXIT_VALIDATION),
                                                ("format=csv", cli.EXIT_OK)])
    def test_value_checked_against_running_subcommand(self, capsys, tmp_path, line, expected):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        code, out, err = run(capsys, "--config", str(cfgfile), "eval", "--family", "matter")
        assert code == expected
        if expected == cli.EXIT_OK:
            assert out.startswith("exponent,re,im,kind\n")
        else:
            assert out == "" and "error:" in err
