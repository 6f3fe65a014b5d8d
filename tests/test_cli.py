import argparse
import importlib
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from regulab import cli, selftest
from regulab.cli import main
from regulab.flanagan import ConformalMap
from regulab.regulator_lab import AmbiguityExpr, LimitPath

WELL = ["well-energy", "--lambda", "1", "--a", "1", "--grid", "0:0:1", "--tau", "0.1"]
OUTPUT = {"output.format", "output.path"}
QUADRATURE = {"quadrature.rel_tol", "quadrature.abs_tol", "quadrature.max_subdivisions"}
ROOT = Path(__file__).resolve().parents[1]

# (subcommand, mode) -> (argv whose other inputs are all malformed, why the
# mode refuses a flag, the mode-dependent flags that mode does not read)
UNREAD = {
    ("well-energy", "--path"): (
        ["well-energy", "--lambda", "-1", "--a", "1", "--grid", "x", "--path", "x", "--s-schedule", "x"],
        "not read with --path, which sets the regulator",
        ["--eps0", "--eps1", "--tau"],
    ),
    ("step-energy", "no --compare"): (
        ["step-energy", "--lambda", "1", "--mass", "-1", "--grid", "x"],
        "only read with --compare",
        ["--eps0", "--eps1", "--tau"],
    ),
    **{
        ("flanagan", mode): (
            ["flanagan", "--V", "sin(", "--grid", "x", "--mode", mode],
            f"not read in {mode} mode",
            flags,
        )
        for mode, flags in [("taylor", ["--tau", "--vbar-offset"]), ("tau_first", ["--vbar-offset"])]
    },
    **{
        ("limit-scan", expr): (
            ["limit-scan", "--expr", expr, "--path", "x", "--s-schedule", "x"],
            f"not read by --expr {expr}",
            flags,
        )
        for expr, flags in [
            ("ratio239", ["--lambda", "--V", "--v0"]),
            ("rstatic317", ["--V", "--v0"]),
            ("dterm616", ["--V", "--v0"]),
            ("flanagan-delta", ["--lambda"]),
        ]
    },
}
REFUSALS = [(command, mode, flag) for (command, mode), (_, _, flags) in UNREAD.items() for flag in flags]


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestValidation:
    def test_out_of_region_x(self, capsys):
        code, out, err = run_cli(
            [
                "well-energy", "--lambda", "1", "--a", "1", "--grid", "0.99:0.99:1",
                "--eps1", "0.5", "--tau", "0.1",
            ],
            capsys,
        )
        assert code == 2
        assert "x outside |x|<a" in err

    def test_degenerate_map(self, capsys):
        code, out, err = run_cli(
            ["flanagan", "--V", "0*v", "--grid", "0:0:1", "--mode", "taylor"], capsys
        )
        assert code == 2
        assert "DegenerateMap" in err

    def test_nonpositive_weight_names_location(self, capsys):
        code, out, err = run_cli(
            ["qi-bound", "--rho", "x", "--support", "-1,1"], capsys
        )
        assert code == 2
        assert "NonpositiveWeight" in err
        assert "at x =" in err

    def test_unknown_expression_id(self, capsys):
        code, out, err = run_cli(
            ["limit-scan", "--expr", "nope", "--path", "2,1,2",
             "--s-schedule", "0.2,0.1,0.05,0.025"],
            capsys,
        )
        assert code == 2
        assert "--expr" in err

    def test_parse_error_reports_position(self, capsys):
        code, out, err = run_cli(
            ["flanagan", "--V", "sin(", "--grid", "0:0:1"], capsys
        )
        assert code == 2
        assert "position 4" in err

    @pytest.mark.parametrize(
        "args,message",
        [
            (["qi-bound", "--rho", "exp(", "--support", "-1,1"],
             "error: --rho: ExpressionSyntaxError: unexpected end of input (position 4)"),
            (["limit-scan", "--expr", "flanagan-delta", "--V", "q", "--path", "2,1,2",
              "--s-schedule", "0.2,0.1,0.05,0.025"],
             "error: --V: UnknownIdentifier: unknown identifier 'q' (position 0)"),
            (["flanagan", "--V", "v^(1/0)", "--grid", "1:2:2"],
             "error: --V: DomainError: division by zero in '1.0/0.0'"),
        ],
    )
    def test_expression_error_names_its_flag(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert err.strip() == message

    def test_bad_grid(self, capsys):
        code, out, err = run_cli(
            ["flanagan", "--V", "v", "--grid", "1:2", "--mode", "taylor"], capsys
        )
        assert code == 2
        assert "--grid" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["well-energy", "--lambda", "1", "--a", "1", "--grid", "nan:nan:1", "--tau", "0.1"],
            ["step-energy", "--lambda", "1", "--mass", "1", "--grid", "0:inf:3"],
            ["flanagan", "--V", "v", "--grid", "-1e308:1e308:3"],  # the step overflows
        ],
    )
    def test_non_finite_grid_exits_2_naming_grid(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert "--grid: start, stop and step must be finite" in err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--abs-tol", "nan", "abs_tol must be finite"),
            ("--rel-tol", "inf", "rel_tol must be finite"),
        ],
    )
    def test_non_finite_setting_exits_2(self, capsys, flag, value, message):
        # well-energy validates the settings before its first integral
        code, out, err = run_cli(WELL + [flag, value], capsys)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "extra,named",
        [
            (["--path", "2,2,1"], "--s-schedule"),
            (["--s-schedule", "0.2,0.1", "--tau", "0.1"], "--path"),
        ],
    )
    def test_well_path_and_schedule_go_together(self, capsys, extra, named):
        code, out, err = run_cli(
            ["well-energy", "--lambda", "1", "--a", "1", "--grid", "0:0:1"] + extra, capsys
        )
        assert code == 2
        assert err.startswith(f"error: {named}: required with")

    @pytest.mark.parametrize(
        "args,message",
        [
            (
                ["well-energy", "--lambda", "1", "--a", "1", "--grid", "0:0:1", "--path", "2,2,1",
                 "--s-schedule", "0.2", "--tau", "5", "--eps1", "0.9"],
                "error: --eps1/--tau: not read with --path, which sets the regulator",
            ),
            (
                ["step-energy", "--lambda", "1", "--mass", "1", "--grid", "1:1:1", "--tau", "5",
                 "--eps1", "0.9"],
                "error: --eps1/--tau: only read with --compare",
            ),
        ],
        ids=["well-energy-path", "step-energy-no-compare"],
    )
    def test_regulator_flags_the_mode_ignores_exit_2(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert err.strip() == message
        assert out == ""

    @pytest.mark.parametrize(
        "args,message",
        [
            (["flanagan", "--V", "exp(v)", "--grid", "0:0:1", "--mode", "pointsplit", "--tau", "nan"],
             "--tau: must be finite, got nan"),
            (["flanagan", "--V", "exp(v)", "--grid", "0:0:1", "--mode", "pointsplit", "--tau", "0.1",
              "--vbar-offset", "nan"], "--vbar-offset: must be finite, got nan"),
            (["flanagan", "--V", "exp(v)", "--grid", "0:0:1", "--mode", "tau_first", "--tau", "inf"],
             "--tau: must be finite, got inf"),
            (["limit-scan", "--expr", "flanagan-delta", "--path", "0,1,3",
              "--s-schedule", "0.2,0.1,0.05,0.025", "--v0", "nan"], "--v0: must be finite, got nan"),
            (["limit-scan", "--expr", "dterm616", "--path", "2,2,1",
              "--s-schedule", "0.2,0.1,0.05,0.025", "--lambda", "nan"], "--lambda: must be finite, got nan"),
        ],
        ids=["pointsplit-tau", "vbar-offset", "tau_first-tau", "v0", "dterm616-lambda"],
    )
    def test_non_finite_flag_exits_2_naming_it(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args,message",
        [
            (["qi-bound", "--rho", "3 + 0*x", "--support", "-inf,1"], "error: --support: "),
            (["flanagan", "--V", "v", "--grid", "-inf:0:3"], "error: --grid: start, stop and step must be finite"),
        ],
        ids=["support", "grid"],
    )
    def test_value_starting_with_dash_and_letter_reaches_its_check(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert err.startswith(message)

    @pytest.mark.parametrize(
        "args",
        [
            ["flanagan", "--V", "v", "--grid", "0:0:1", "--rel-tol", "1e-3"],
            ["qi-bound", "--rho", "3 + 0*x", "--support", "-1,1", "--tail-multiple", "20"],
            ["selftest", "--out", "x"],
            WELL + ["--tail-multiple", "60"],
            ["step-energy", "--lambda", "1", "--mass", "1", "--grid", "1:1:1", "--compare", "--tau", "0.5",
             "--tail-multiple", "60"],
            # the closed form behind rstatic317 does not read the well's half-width
            ["limit-scan", "--expr", "rstatic317", "--path", "2,1,2", "--s-schedule", "0.2,0.1,0.05,0.025",
             "--a", "1"],
        ],
        ids=["flanagan-rel-tol", "qi-bound-tail-multiple", "selftest-out", "well-energy-tail-multiple",
             "step-energy-compare-tail-multiple", "limit-scan-a"],
    )
    def test_setting_the_command_does_not_read_exits_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err

    SCHEDULE_RULE = "--s-schedule: need s strictly decreasing in (0, 1]"

    @pytest.mark.parametrize(
        "args,message",
        [
            (["limit-scan", "--expr", "ratio239", "--path", "2,1,2", "--s-schedule", "2,1,0.5,0.25"],
             SCHEDULE_RULE),
            (["well-energy", "--lambda", "1", "--a", "1", "--grid", "0:0:1", "--path", "2,2,1",
              "--s-schedule", "0"], SCHEDULE_RULE),
            (["limit-scan", "--expr", "ratio239", "--path", "2,1,2", "--s-schedule", "0.1,0.2,0.05,0.025"],
             SCHEDULE_RULE),
            # ratio239 is singular at the first sample of this path, where the scan stops
            (["limit-scan", "--expr", "ratio239", "--path", "1,1,1,1,1,0", "--s-schedule", "0.1,2,0.05,0.025"],
             SCHEDULE_RULE),
            (["well-energy", "--lambda", "1", "--a", "1", "--grid", "0:0:1", "--path", "2,2,1",
              "--s-schedule", "0.1,0.2"], SCHEDULE_RULE),
            # four adjacent floats whose logarithms are one float
            (["limit-scan", "--expr", "dterm616", "--path", "2,2,1", "--s-schedule",
              "0.0009999999999999996,0.0009999999999999994,0.0009999999999999992,0.000999999999999999"],
             "--s-schedule: s = 0.0009999999999999996 and 0.0009999999999999994 have the same logarithm"),
            (["step-energy", "--lambda", "1", "--mass", "0", "--grid", "1:1:1"],
             "--mass: need m > 0 for the step densities"),
        ],
        ids=["limit-scan-s-above-1", "well-energy-s-0", "limit-scan-s-rising", "limit-scan-singular-path",
             "well-energy-s-rising", "limit-scan-logs-coincide", "step-energy-mass-0"],
    )
    def test_bad_schedule_or_mass_exits_2_naming_the_flag(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "args,message",
        [
            (["qi-bound", "--rho", "3 + 0*x", "--support=-1,0,1"], "--support: expected lo,hi"),
            (["flanagan", "--V", "v", "--grid", "0:1:0"], "--grid: count must be >= 1"),
            (["limit-scan", "--expr", "ratio239", "--path", "2,1,2", "--s-schedule", "0.2,0.1,0.05"],
             "--s-schedule: need at least 4 values"),
            (["limit-scan", "--expr", "ratio239", "--path", "1,2,3,4", "--s-schedule", "0.2,0.1,0.05,0.025"],
             "--path: expected p0,p1,ptau or p0,p1,ptau,c0,c1,ctau"),
        ],
        ids=["support-three-values", "grid-count-0", "schedule-three-values", "path-four-values"],
    )
    def test_list_of_the_wrong_length_exits_2_naming_the_flag(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("tau,expected", [("-0.1", 2), ("0", 0)])
    def test_pointsplit_tau_must_not_be_negative(self, capsys, tau, expected):
        # tau = 0 is the pure split, and pointsplit's default
        code, out, err = run_cli(
            ["flanagan", "--V", "exp(v)", "--grid", "0:0:1", "--mode", "pointsplit", "--tau", tau], capsys
        )
        assert code == expected, err
        if code:
            assert (out, err) == ("", "error: --tau: need tau >= 0 for pointsplit mode\n")

    @pytest.mark.parametrize(
        "args,message",
        [
            # ctau = 0 gives the path's regulators tau = 0; --path refuses --tau, so it is --path's fault
            (["well-energy", "--lambda", "1", "--a", "1", "--grid", "0:0:1", "--path", "2,2,1,1,1,0",
              "--s-schedule", "0.2,0.1"], "--path: need tau > 0 for the cutoff integral"),
            (["flanagan", "--V", "exp(v)", "--grid", "0:0:1", "--mode", "tau_first"],
             "--tau: need tau > 0 for tau_first mode"),
        ],
        ids=["well-energy-path", "flanagan-tau-first-default"],
    )
    def test_cutoff_needs_positive_tau(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_compare_validates_before_computing(self, capsys, monkeypatch):
        def no_density(*args):
            raise AssertionError("computed a density before validating")

        monkeypatch.setattr(cli, "mode_reg_density", no_density)
        monkeypatch.setattr(cli, "pointsplit_density", no_density)
        base = ["step-energy", "--lambda", "1", "--mass", "1", "--compare"]
        code, out, err = run_cli(base + ["--grid", "0.5:2:4", "--eps0", "0.0025"], capsys)
        assert code == 2
        assert "--tau: need tau > 0 for --compare" in err
        # t = 2 is a valid row; t = 1.5 is the first to break t > eps0/2
        code, out, err = run_cli(base + ["--grid", "2:0.5:4", "--eps0", "3", "--tau", "0.1"], capsys)
        assert code == 2
        assert "--grid: need t > eps0/2 for the point split (t = 1.5)" in err

    def test_negative_time_grid(self, capsys):
        code, out, err = run_cli(
            ["step-energy", "--lambda", "1", "--mass", "1", "--grid", "-1:1:3"],
            capsys,
        )
        assert code == 2

    def test_tolerance_failure_exits_3(self, capsys):
        code, out, err = run_cli(
            [
                "qi-bound", "--rho", "2 + sin(100*x)", "--support", "-1,1",
                "--max-subdivisions", "1",
            ],
            capsys,
        )
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize(
        "args,code,start",
        [
            (["well-energy", "--lambda", "1e6", "--a", "10", "--grid", "0:0:1",
              "--eps0", "0.01", "--eps1", "0.01", "--tau", "0.1"], 3, "numerical failure: math range error"),
            (["step-energy", "--lambda", "1e20", "--mass", "1", "--grid", "1:1:1"], 3,
             "numerical failure: math domain error"),
            (["flanagan", "--V", "v^2", "--grid", "0:0:1"], 2, "error: --V: DegenerateMap: V'(0.0) = 0"),
            (["qi-bound", "--rho", "x", "--support", "-1,1"], 2, "error: --rho: NonpositiveWeight: "),
            (["limit-scan", "--expr", "flanagan-delta", "--V", "ln(v)", "--v0", "-1", "--path", "0,1,3",
              "--s-schedule", "0.2,0.1,0.05,0.025"], 2,
             "error: --V: DomainError: ln of non-positive value in 'ln(v)'"),
            (["flanagan", "--V", "exp(v)", "--grid", "0:0:1", "--mode", "pointsplit", "--vbar-offset", "0"], 2,
             "error: --vbar-offset: need vbar != v at tau = 0"),
            # V(1) = V(-1): the map, not the offset, makes the split vanish
            (["flanagan", "--V", "v^2", "--grid", "1:1:1", "--mode", "pointsplit", "--vbar-offset", "2"], 2,
             "error: --V: SingularRegulator: vanishing split denominator"),
            (["flanagan", "--V", "(" * 300 + "v" + ")" * 300, "--grid", "0:0:1"], 2,
             "error: --V: ExpressionSyntaxError: expression nested too deeply (position 0)"),
            (["flanagan", "--V", "+".join(["v"] * 1500), "--grid", "0:0:1"], 2,
             "error: --V: DomainError: expression nested too deeply to evaluate"),
        ],
        ids=["well-overflow", "step-math-domain", "degenerate-map", "nonpositive-weight", "scan-domain",
             "zero-offset", "non-injective-map", "deep-parentheses", "long-sum"],
    )
    def test_exit_2_names_the_input_and_exit_3_is_numerical(self, capsys, args, code, start):
        got, out, err = run_cli(args, capsys)
        assert (got, out) == (code, "")
        assert err.startswith(start)

    def test_non_finite_integrand_exits_3_at_once(self, capsys):
        # exp(450)^2 overflows to inf, so rho'^2/rho is nan near the ends
        code, out, err = run_cli(
            ["qi-bound", "--rho", "exp(x^2/2)*exp(x^2/2)", "--support", "-30,30"], capsys
        )
        assert code == 3
        assert "panel [-30.0, 30.0] is not finite" in err

    @pytest.mark.parametrize(
        "args,node",
        [
            (["flanagan", "--V", "v^(1/0)", "--grid", "1:2:2"], "1.0/0.0"),
            (["flanagan", "--V", "v^((-8)^(1/3))", "--grid", "1:2:2"], "(-8.0)^0.3333333333333333"),
            (["flanagan", "--V", "v^(2^1000000)", "--grid", "1:2:2"], "2.0^1000000.0"),
            (["flanagan", "--V", "2^2000", "--grid", "1:2:2"], "2.0^2000.0"),
            (["flanagan", "--V", "exp(1000*v)", "--grid", "1:2:2"], "exp(1000.0*v)"),
            (["qi-bound", "--rho", "exp(x^2)", "--support", "-30,30"], "exp(x^2.0)"),
            (["flanagan", "--V", "v + sin(1e200*1e200)", "--grid", "1:2:2"], "sin(1e+200*1e+200)"),
        ],
    )
    def test_expression_domain_failure_exits_2_naming_the_node(self, capsys, args, node):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert "DomainError: " in err
        assert f"in '{node}'" in err

    @pytest.mark.parametrize(
        "V", ["v*ln(1e200)", "v*sqrt(1e-200)", "v^(1e-200^0.5)", "v^ln(1e300)"]
    )
    def test_constant_with_overflowing_derivative_terms_exits_0(self, capsys, V):
        # on 1:2:2, v^ln(1e300) itself overflows at v = 2 (see the test below)
        code, out, err = run_cli(["flanagan", "--V", V, "--grid", "0.9:1.1:3"], capsys)
        assert code == 0, err

    def test_overflowing_third_derivative_leaves_delta_tau_finite(self, capsys):
        # ln's third derivative 2/v^3 overflows at v = 1e-103; delta_tau reads only V' = 1e103
        code, out, err = run_cli(
            ["flanagan", "--V", "ln(v)", "--grid", "1e-103:1e-103:1", "--mode", "tau_first", "--tau", "1"],
            capsys,
        )
        assert code == 0, err
        assert "9.9999999999999996e-104,-7.9577471545947669e+204,tau_first\n" in out

    @pytest.mark.parametrize(
        "V,message",
        [
            ("v*1e400", "ExpressionSyntaxError: numeric literal '1e400' is not finite (position 2)"),
            ("v^ln(1e300)", "DomainError: delta_flanagan at v = 2.0 is not finite (nan)"),
        ],
    )
    def test_not_finite_exits_2_naming_the_input(self, capsys, V, message):
        code, out, err = run_cli(["flanagan", "--V", V, "--grid", "1:2:2"], capsys)
        assert code == 2
        assert message in err
        assert "nan" not in out

    def test_exponent_that_underflows_to_zero(self, capsys):
        # 0.5^1e300 is 0.0, so V = v^0 = 1 is degenerate
        code, out, err = run_cli(["flanagan", "--V", "v^(0.5^1e300)", "--grid", "1:2:2"], capsys)
        assert code == 2
        assert "DegenerateMap: V'(1.0) = 0" in err

    def test_failed_selftest_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "CHECKS", [("always-fails", lambda: (False, "forced"))])
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 1
        assert out.splitlines()[-1].startswith("FAILED")


class TestOutputs:
    def test_csv_schema(self, capsys):
        code, out, err = run_cli(
            ["flanagan", "--V", "exp(v)", "--grid", "-1:1:3", "--mode", "taylor"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert comments == ["# output.format = csv", "# output.path = -"]
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "v,delta,mode"

    def test_json_schema(self, capsys):
        code, out, err = run_cli(
            [
                "qi-bound", "--rho", "1/(1 + x^2)", "--support", "-40,40",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert "config" in doc and "records" in doc
        assert doc["records"][0]["bound"] <= 0.0

    def test_limit_scan_summary(self, capsys):
        code, out, err = run_cli(
            [
                "limit-scan", "--expr", "ratio239", "--path", "2,1,2",
                "--s-schedule", "0.2,0.1,0.05,0.025,0.0125,0.00625",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["kind"] == "finite"
        assert abs(doc["summary"]["value_re"] - 1.0) < 1e-6
        assert len(doc["records"]) == 6

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_limit_scan_summary_names_the_singular_s(self, capsys, fmt):
        # ratio239 is singular at every s of this path, so the scan stops at the first
        code, out, err = run_cli(
            ["limit-scan", "--expr", "ratio239", "--path", "1,1,1,1,1,0",
             "--s-schedule", "0.2,0.1,0.05,0.025", "--format", fmt],
            capsys,
        )
        assert code == 0, err
        if fmt == "json":
            doc = json.loads(out)
            assert doc["records"] == []
            assert doc["summary"] == {
                "kind": "divergent", "value_re": 0.0, "value_im": 0.0, "confidence": 0.0, "singular_s": 0.2,
            }
        else:
            assert out.splitlines()[-2:] == [
                "s,value_re,value_im",
                "# summary: kind = divergent, value_re = 0, value_im = 0, confidence = 0, "
                "singular_s = 0.20000000000000001",
            ]

    def test_pointsplit_mode_columns(self, capsys):
        code, out, err = run_cli(
            [
                "flanagan", "--V", "exp(v)", "--grid", "0:1:2", "--mode",
                "pointsplit", "--tau", "0.1", "--vbar-offset", "0.05",
            ],
            capsys,
        )
        assert code == 0
        header = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert header == "v,delta_re,delta_im,mode,vbar,tau"

    def test_well_energy_free_field_zeros(self, capsys):
        code, out, err = run_cli(
            [
                "well-energy", "--lambda", "0", "--a", "1", "--grid", "-0.5:0.5:5",
                "--tau", "0.1",
            ],
            capsys,
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 5
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_step_energy_free_field_zeros(self, capsys):
        code, out, err = run_cli(
            [
                "step-energy", "--lambda", "0", "--mass", "1", "--grid", "0.5:1.5:3",
                "--eps0", "0.01", "--eps1", "0.01", "--tau", "0.1", "--compare",
            ],
            capsys,
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        for row in rows:
            _, mode_reg, pointsplit, gap, residual = row.split(",")
            assert float(mode_reg) == 0.0
            assert float(pointsplit) == 0.0
            assert float(gap) == 0.0
            assert float(residual) == 0.0

    def test_flanagan_identity_map_all_modes(self, capsys):
        for mode, extra in [
            ("taylor", []),
            ("tau_first", ["--tau", "0.1"]),
            ("pointsplit", ["--tau", "0.1"]),
        ]:
            code, out, err = run_cli(
                ["flanagan", "--V", "v", "--grid", "-1:1:5", "--mode", mode] + extra,
                capsys,
            )
            assert code == 0
            rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
            assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_flanagan_order_disagreement_end_to_end(self, capsys):
        code, out, _ = run_cli(
            ["flanagan", "--V", "exp(v)", "--grid", "0:0:1", "--mode", "taylor"], capsys
        )
        taylor = float(out.splitlines()[-1].split(",")[1])
        code, out, _ = run_cli(
            ["flanagan", "--V", "exp(v)", "--grid", "0:0:1", "--mode", "tau_first",
             "--tau", "0.1"],
            capsys,
        )
        tau_first = float(out.splitlines()[-1].split(",")[1])
        assert abs(taylor - (-1.0 / (48.0 * math.pi))) < 1e-12
        assert tau_first == 0.0

    def test_flanagan_tanh_far_from_the_origin(self, capsys):
        # tanh's Schwarzian is -2 everywhere, so delta = -2/(24 pi); V'(20) = 1.7e-17
        code, out, err = run_cli(
            ["flanagan", "--V", "tanh(v)", "--grid", "18:22:3", "--mode", "taylor"], capsys
        )
        assert code == 0, err
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert [float(r.split(",")[0]) for r in rows] == [18.0, 20.0, 22.0]
        expect = -1.0 / (12.0 * math.pi)
        for r in rows:
            assert abs(float(r.split(",")[1]) - expect) <= 1e-12 * abs(expect)

    def test_qi_bound_constant_weight(self, capsys):
        code, out, err = run_cli(
            ["qi-bound", "--rho", "3 + 0*x", "--support", "-1,1"], capsys
        )
        assert code == 0
        row = [l for l in out.splitlines() if not l.startswith("#")][1]
        assert float(row.split(",")[0]) == 0.0

    def test_well_energy_along_path(self, capsys, tmp_path):
        out_file = tmp_path / "well.csv"
        code = main(
            [
                "well-energy", "--lambda", "1", "--a", "1", "--grid", "0:0:1",
                "--path", "2,2,1", "--s-schedule", "0.3,0.2,0.1",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        rows = [
            l for l in out_file.read_text().splitlines() if not l.startswith("#")
        ][1:]
        assert len(rows) == 3
        values = [float(r.split(",")[1]) for r in rows]
        assert abs(values[2] - values[1]) < abs(values[1] - values[0])


class TestConfig:
    def test_config_file_applies_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "lab.conf"
        cfg.write_text(
            "# comment line\n"
            "quadrature.rel_tol = 1e-6\n"
            "output.format = json\n"
        )
        code, out, err = run_cli(
            [
                "qi-bound", "--rho", "1/(1 + x^2)", "--support", "-40,40",
                "--config", str(cfg),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["quadrature.rel_tol"] == 1e-6

        code, out, err = run_cli(
            [
                "qi-bound", "--rho", "1/(1 + x^2)", "--support", "-40,40",
                "--config", str(cfg), "--rel-tol", "1e-8", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        assert "# quadrature.rel_tol = 1e-08" in out

    def test_env_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.conf"
        cfg.write_text("quadrature.max_subdivisions = 500\n")
        monkeypatch.setenv("REGULAB_CONFIG", str(cfg))
        code, out, err = run_cli(["qi-bound", "--rho", "3 + 0*x", "--support", "-1,1"], capsys)
        assert code == 0
        assert "# quadrature.max_subdivisions = 500" in out
        # flanagan integrates nothing, so it ignores the key
        code, out, err = run_cli(
            ["flanagan", "--V", "v", "--grid", "0:0:1", "--mode", "taylor"], capsys
        )
        assert code == 0
        assert "max_subdivisions" not in out

    @pytest.mark.parametrize(
        "flag,key,values",
        [
            ("--format", "output.format", ("json", "csv", "json")),
            ("--out", "output.path", ("env.txt", "cfg.txt", "flag.txt")),
            ("--rel-tol", "quadrature.rel_tol", ("0.5", "0.25", "0.125")),
            ("--abs-tol", "quadrature.abs_tol", ("0.5", "0.25", "0.125")),
            ("--max-subdivisions", "quadrature.max_subdivisions", ("500", "600", "700")),
        ],
    )
    def test_flag_beats_config_beats_env(self, capsys, tmp_path, monkeypatch, flag, key, values):
        monkeypatch.chdir(tmp_path)
        env_val, cfg_val, flag_val = values
        (tmp_path / "env.conf").write_text(f"{key} = {env_val}\n")
        (tmp_path / "lab.conf").write_text(f"{key} = {cfg_val}\n")
        monkeypatch.setenv("REGULAB_CONFIG", "env.conf")

        def resolved(extra):
            code, out, err = run_cli(WELL + extra, capsys)
            assert code == 0, err
            if key == "output.path":
                assert out == ""
                (written,) = [p for p in values if (tmp_path / p).exists()]
                out = (tmp_path / written).read_text()
                (tmp_path / written).unlink()
            if out.startswith("{"):
                return str(json.loads(out)["config"][key])
            (line,) = [l for l in out.splitlines() if l.startswith(f"# {key} = ")]
            return line.split(" = ", 1)[1]

        assert resolved([]) == env_val
        assert resolved(["--config", "lab.conf"]) == cfg_val
        assert resolved(["--config", "lab.conf", flag, flag_val]) == flag_val

    @pytest.mark.parametrize("content", ["quadrature.magic = 1\n", None], ids=["unknown-key", "missing"])
    def test_selftest_reads_no_config_file(self, capsys, tmp_path, monkeypatch, content):
        cfg = tmp_path / "env.conf"
        if content is not None:
            cfg.write_text(content)
        monkeypatch.setenv("REGULAB_CONFIG", str(cfg))
        monkeypatch.setattr(selftest, "CHECKS", [("always-passes", lambda: (True, "forced"))])
        code, out, err = run_cli(["selftest"], capsys)
        assert code == 0, err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        # the truncation of half-line integrals is a constant, not a setting
        for line in ("quadrature.magic = 3", "quadrature.tail_truncation_multiple = 60"):
            cfg.write_text(line + "\n")
            code, out, err = run_cli(
                ["flanagan", "--V", "v", "--grid", "0:0:1", "--config", str(cfg)], capsys
            )
            assert code == 2
            assert "unknown key" in err

    @pytest.mark.parametrize(
        "content,message",
        [
            ("quadrature.rel_tol 1e-9\n", "{path}:1: expected 'key = value', got 'quadrature.rel_tol 1e-9'"),
            (None, "--config: cannot read {path}: "),
            ("output.format = xml\n", "{path}:1: output.format must be csv or json, got 'xml'"),
        ],
        ids=["line-without-equals", "missing-file", "format-xml"],
    )
    def test_bad_config_file_exits_2(self, capsys, tmp_path, content, message):
        cfg = tmp_path / "lab.conf"
        if content is not None:
            cfg.write_text(content)
        code, out, err = run_cli(["flanagan", "--V", "v", "--grid", "0:0:1", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message.format(path=cfg)}")

    @pytest.mark.parametrize(
        "args,expected",
        [
            (WELL, OUTPUT | QUADRATURE),
            (["step-energy", "--lambda", "1", "--mass", "1", "--grid", "1:1:1"], OUTPUT | QUADRATURE),
            (["step-energy", "--lambda", "1", "--mass", "1", "--grid", "1:1:1", "--compare", "--tau", "0.5"],
             OUTPUT | QUADRATURE),
            (["qi-bound", "--rho", "3 + 0*x", "--support", "-1,1"], OUTPUT | QUADRATURE),
            (["limit-scan", "--expr", "ratio239", "--path", "2,1,2",
              "--s-schedule", "0.2,0.1,0.05,0.025"], OUTPUT),
            (["flanagan", "--V", "v", "--grid", "0:0:1"], OUTPUT),
        ],
        ids=["well-energy", "step-energy", "step-energy-compare", "qi-bound", "limit-scan", "flanagan"],
    )
    def test_config_block_lists_the_declared_settings(self, capsys, args, expected):
        code, out, err = run_cli(args, capsys)
        assert code == 0, err
        block = [l for l in out.splitlines() if l.startswith("# ") and " = " in l and "summary" not in l]
        assert {l[2:].split(" = ")[0] for l in block} == expected
        code, out, err = run_cli(args + ["--format", "json"], capsys)
        assert set(json.loads(out)["config"]) == expected


class TestExpressions:
    @pytest.mark.parametrize(
        "expr_id,extra,expr",
        [
            ("ratio239", [], lambda: AmbiguityExpr.ratio239()),
            ("rstatic317", ["--lambda", "1.7"], lambda: AmbiguityExpr.r_static317(1.7)),
            ("dterm616", ["--lambda", "1.7"], lambda: AmbiguityExpr.d_term616(1.7)),
            (
                "flanagan-delta",
                ["--V", "v + 0.5*sin(v)", "--v0", "0.3"],
                lambda: AmbiguityExpr.flanagan_delta(ConformalMap.from_text("v + 0.5*sin(v)"), 0.3),
            ),
            # each mode's defaults
            ("rstatic317", [], lambda: AmbiguityExpr.r_static317(1.0)),
            ("dterm616", [], lambda: AmbiguityExpr.d_term616(1.0)),
            (
                "flanagan-delta",
                [],
                lambda: AmbiguityExpr.flanagan_delta(ConformalMap.from_text("exp(v)"), 0.0),
            ),
        ],
    )
    def test_limit_scan_samples_equal_the_constructor(self, capsys, expr_id, extra, expr):
        path = "0,1,3,0,1,1"
        code, out, err = run_cli(
            ["limit-scan", "--expr", expr_id, "--path", path, "--s-schedule", "0.2,0.1,0.05,0.025",
             "--format", "json"] + extra,
            capsys,
        )
        assert code == 0, err
        limit_path = LimitPath(*(float(p) for p in path.split(",")))
        evaluate = expr().evaluate
        records = json.loads(out)["records"]
        assert [rec["s"] for rec in records] == [0.2, 0.1, 0.05, 0.025]
        for rec in records:
            assert complex(rec["value_re"], rec["value_im"]) == evaluate(limit_path.regulator_at(rec["s"]))


class TestModes:
    @pytest.mark.parametrize("command,mode,flag", REFUSALS, ids=["/".join(t) for t in REFUSALS])
    def test_flag_the_mode_does_not_read_exits_2_first(self, capsys, command, mode, flag):
        argv, refusal, _ = UNREAD[command, mode]
        code, out, err = run_cli(argv + [flag, "v" if flag == "--V" else "0.5"], capsys)
        assert (code, out, err) == (2, "", f"error: {flag}: {refusal}\n")

    def test_refusals_cover_the_mode_table(self):
        table = []
        for command, (_, _, by_mode) in cli._MODES.items():
            flags = set().union(*by_mode.values())
            table += [(command, sorted(flags - set(r))) for r in by_mode.values() if flags - set(r)]
        tested = [(command, sorted(flags)) for (command, _), (_, _, flags) in UNREAD.items()]
        assert sorted(table) == sorted(tested)

    def test_bench_limit_lab_argv_shapes_exit_0(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        lab = importlib.import_module("workloads").LimitLab({"cli": cli}, None)
        ops = lab.block(random.Random(1))
        kinds = {"limit-scan", "flanagan-taylor", "flanagan-tau_first", "flanagan-pointsplit", "qi-bound"}
        assert {op.kind for op in ops} == kinds
        for op in ops:
            assert op.check(op.call()) is None, op.kind

    def test_readme_commands_exit_0(self, capsys):
        block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```", 2)[1]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("regulab ")]
        assert [argv[0] for argv in commands] == [
            "well-energy", "step-energy", "limit-scan", "flanagan", "flanagan", "qi-bound", "selftest"
        ]
        for argv in commands:
            code, out, err = run_cli(argv, capsys)
            assert code == 0, (argv, err)


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        args = ["flanagan", "--V", "v", "--grid", "0:0:1"]
        assert run_cli(args, capsys)[0] == 0

        def no_parser(*args, **kwargs):
            raise AssertionError("built a second parser")

        monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
        code, out, err = run_cli(args, capsys)
        assert code == 0
        assert out.splitlines()[-1] == "0,0,taylor"

    def test_flags_do_not_carry_over_between_calls(self, capsys):
        args = ["qi-bound", "--rho", "3 + 0*x", "--support", "-1,1"]
        code, out, err = run_cli(args + ["--format", "json", "--rel-tol", "0.5"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["output.format"] == "json"
        code, out, err = run_cli(args, capsys)
        assert code == 0
        assert "# output.format = csv" in out
        assert "# quadrature.rel_tol = 1e-10" in out


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_limit_scan_byte_identical(self, fmt, tmp_path):
        # identical flags (including --out) must reproduce the file exactly
        out = tmp_path / "scan.txt"
        args = [
            "limit-scan", "--expr", "dterm616", "--path", "2,2,1",
            "--s-schedule", "0.2,0.1,0.05,0.025,0.0125", "--format", fmt,
            "--out", str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_selftest_byte_identical(self, capsys):
        code1, out1, _ = run_cli(["selftest"], capsys)
        code2, out2, _ = run_cli(["selftest"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2


class TestEntryPoints:
    def test_python_m_regulab_matches_the_script(self, capsys):
        # the `regulab` script runs cli:main in-process; `python -m regulab`
        # runs regulab/__main__.py in a fresh interpreter
        assert 'regulab = "regulab.cli:main"' in (ROOT / "pyproject.toml").read_text()
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "regulab", "selftest"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=False,
        )
        code, out, _ = run_cli(["selftest"], capsys)
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out
