import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulab import cli, selftest
from regulab.cli import main
from regulab.flanagan import ConformalMap
from regulab.regulator_lab import AmbiguityExpr, LimitPath

WELL = ["well-energy", "--lambda", "1", "--a", "1", "--grid", "0:0:1", "--tau", "0.1"]
OUTPUT = {"output.format", "output.path"}
QUADRATURE = {"quadrature.rel_tol", "quadrature.abs_tol", "quadrature.max_subdivisions"}
ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SPEC = "QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=20000)"

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

    def test_path_leaving_the_well_exits_2_naming_grid(self, capsys, monkeypatch):
        # x = 0.9 with eps1 = 0.4 reaches past a = 1; x = 0 comes first and fits
        def no_density(*args):
            raise AssertionError("computed a density before validating")

        monkeypatch.setattr(cli, "t00r_static", no_density)
        code, out, err = run_cli(
            ["well-energy", "--lambda", "1", "--a", "1", "--grid", "0:0.9:2", "--path", "1,1,1",
             "--s-schedule", "0.4,0.2"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --grid: OutsideRegionI: x outside |x|<a: need |x| + eps1/2 < a = 1.0, "
            "got x = 0.9, eps1 = 0.4\n"
        )

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
             "--lambda/--mass: m must be > 0, got 0.0"),
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
              "--eps0", "0.01", "--eps1", "0.01", "--tau", "0.1"], 3,
             "numerical failure: t00r_static at cfg = WellConfig(lam=1000000.0, a=10.0), "
             f"reg = Regulator(eps0=0.01, eps1=0.01, tau=0.1), x = 0.0, t = 0.0, spec = {DEFAULT_SPEC} "
             "is not finite (OverflowError: math range error)"),
            # 2tb = 2e22 is off by 3e5 rad as a float, and that slip's own rounding moves the density by more
            # than tol
            (["step-energy", "--lambda", "1e40", "--mass", "1", "--grid", "100:100:1"], 3,
             "numerical failure: mode_reg_density at cfg = StepConfig(lam=1e+40, m=1.0), t = 100.0: the phase "
             "2tb = 2e+22 "),
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
            # Im ratio239 = -1/(2 tau) at eps0 = eps1 = 0.2 is about -2.5e310
            (["limit-scan", "--expr", "ratio239", "--path", "1,1,1,1,1,1e-310", "--s-schedule", "0.2,0.1,0.05,0.025"],
             3, "numerical failure: ratio_239 at reg = Regulator(eps0=0.2, eps1=0.2, tau=2e-311) "
             "is not finite ((0.25-infj))"),
            # sinh(a p) overflows below the barrier top, p = sqrt(lam - omega^2)
            (["well-energy", "--lambda", "1e8", "--a", "0.3", "--grid", "1e-160:-1:1", "--eps0", "1e300",
              "--eps1", "0.3", "--tau", "0.3"], 3,
             "numerical failure: t00r_static at cfg = WellConfig(lam=100000000.0, a=0.3), "
             f"reg = Regulator(eps0=1e+300, eps1=0.3, tau=0.3), x = 1e-160, t = 0.0, spec = {DEFAULT_SPEC} "
             "is not finite (OverflowError: math range error)"),
            # a p > 710.4 at the first node below the barrier top, so sinh(a p) overflows there
            (["well-energy", "--lambda", "1", "--a", "1e160", "--grid", "0:0:1", "--eps0", "0.01",
              "--eps1", "0.01", "--tau", "0.1"], 3,
             "numerical failure: t00r_static at cfg = WellConfig(lam=1.0, a=1e+160), "
             f"reg = Regulator(eps0=0.01, eps1=0.01, tau=0.1), x = 0.0, t = 0.0, spec = {DEFAULT_SPEC} "
             "is not finite (OverflowError: math range error)\n"),
            # the symmetric family's n1 is 0 at a node
            (["well-energy", "--lambda", "1e-8", "--a", "2.05e-25", "--grid", "1e-40:3.7e26:1", "--eps0", "1e300",
              "--eps1", "1e-40", "--tau", "1e40"], 3,
             "numerical failure: t00r_static at cfg = WellConfig(lam=1e-08, a=2.05e-25), "
             f"reg = Regulator(eps0=1e+300, eps1=1e-40, tau=1e+40), x = 1e-40, t = 0.0, spec = {DEFAULT_SPEC} "
             "is not finite (ZeroDivisionError: float division by zero)"),
            (["qi-bound", "--rho", "1 + 0*x", "--support", "-1,1", "--rel-tol", "-1"], 2,
             "error: --rel-tol: rel_tol must be finite and > 0, got -1.0"),
            (["qi-bound", "--rho", "1 + 0*x", "--support", "-1,1", "--max-subdivisions", "0"], 2,
             "error: --max-subdivisions: max_subdivisions must be >= 1, got 0"),
        ],
        ids=["well-overflow", "step-phase-rounding", "degenerate-map", "nonpositive-weight", "scan-domain",
             "zero-offset", "non-injective-map", "deep-parentheses", "long-sum", "ratio239-overflows",
             "well-sinh-overflow", "well-wide-overflow",
             "well-n1-zero", "negative-rel-tol", "zero-budget"],
    )
    def test_exit_2_names_the_input_and_exit_3_is_numerical(self, capsys, args, code, start):
        got, out, err = run_cli(args, capsys)
        assert (got, out) == (code, "")
        assert err.startswith(start)

    @pytest.mark.parametrize(
        "lam,t,ref",
        [
            ("1e20", "1", 6.68354558245002609e19),
            ("0.5", "1e200", 7.56330148571422375e-3),
            ("0.5", "1e-200", 0.0),  # -3.3e-49
            ("1e-160", "1", 6.17582057301558180e-322),
            ("1e20", "1e300", 9.43748948618366125e19),
            ("1e155", "1e-60", 1.32271734329224901e156),
        ],
        ids=["step-math-domain", "step-tail-cut", "step-tail-cut-small-t", "step-tail-cut-tiny-lambda",
             "step-phase-overflow", "step-lambda-squared-overflows"],
    )
    def test_mode_sum_at_extreme_inputs_is_within_tol(self, capsys, lam, t, ref):
        # each at an edge of the float range: b = 1e10, cuts R = 1.6e-99 and 1.5e5 in s, a subnormal
        # density, a phase 2tb = 2e310 that overflows, where 2 (|lam|/8pi)|K|, below 1e-146 of the density,
        # enters the estimate (the reference is the steady part (|lam|/8pi) rho), and lam^2 = 1e310, which
        # once made K's tolerance 0 (a 70-digit quadrature, as in test_time_step).  The others are 40-digit
        # mpmath quadratures.  The density lies in [0, 2 steady], so the default tol, max(abs_tol,
        # rel_tol steady), is at least this
        code, out, err = run_cli(["step-energy", "--lambda", lam, "--mass", "1", "--grid", f"{t}:{t}:1"], capsys)
        assert (code, err) == (0, "")
        value = float(out.splitlines()[-1].split(",")[1])
        assert abs(value - ref) <= max(1e-14, 0.5e-10 * ref)

    def test_point_split_whose_cutoff_underflows_is_zero(self, capsys):
        # m tau = 7e114, so e^(-omega tau) is 0 at every node: the phase 2Et = 1.4e50, which has lost every
        # digit, moves nothing, and the point split is 0
        code, out, err = run_cli(
            ["step-energy", "--lambda", "1e-05", "--mass", "7.007890171267873e+54", "--grid", "1e-05:1e-05:1",
             "--compare", "--eps0", "1.0872345917770017e-66", "--eps1", "0", "--tau", "1e+60"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert float(out.splitlines()[-1].split(",")[2]) == 0.0

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
        ],
    )
    def test_not_finite_exits_2_naming_the_input(self, capsys, V, message):
        code, out, err = run_cli(["flanagan", "--V", V, "--grid", "1:2:2"], capsys)
        assert code == 2
        assert message in err
        assert "nan" not in out

    @pytest.mark.parametrize(
        "args,message",
        [
            # V''^2 of v^690.8 overflows at v = 2
            (["flanagan", "--V", "v^ln(1e300)", "--grid", "1:2:2"],
             "numerical failure: delta_flanagan at V = ConformalMap(expr=Expression(text='v^690.7755278982137', "
             "variable='v')), v = 2.0 is not finite (nan)"),
            # eps1 = s^2 and tau^2 = s^2 underflow to 0 on this schedule
            (["limit-scan", "--expr", "flanagan-delta", "--V", "exp(v)", "--path", "2,2,1",
              "--s-schedule", "1e-200,1e-250,1e-300,1e-305"],
             "numerical failure: delta_pointsplit at V = ConformalMap(expr=Expression(text='exp(v)', variable='v')), "
             "v = 0.0, vbar = 0.0, tau = 1e-200 is not finite (ZeroDivisionError: complex division by zero)"),
        ],
        ids=["flanagan", "limit-scan"],
    )
    def test_not_finite_delta_exits_3(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (3, "")
        assert err.startswith(message)

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
    def test_zeros_print_unsigned(self, capsys, fmt):
        # rstatic317 is -0.0 at every s of this path; the summary says 0
        code, out, err = run_cli(
            ["limit-scan", "--expr", "rstatic317", "--path", "1,0,1,1,0,1",
             "--s-schedule", "0.2,0.1,0.05,0.025", "--format", fmt],
            capsys,
        )
        assert code == 0
        if fmt == "csv":
            rows = [line.split(",") for line in out.splitlines()[3:-1]]
            assert [row[1:] for row in rows] == [["0", "0"]] * 4
        else:
            values = [rec["value_re"] for rec in json.loads(out)["records"]]
            assert [math.copysign(1.0, v) for v in values] == [1.0] * 4
        assert "-0" not in out

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

    @pytest.mark.parametrize(
        "path",
        ["160,160,160", "1,1,1,1e200,1e200,1e200"],
        ids=["sigma-tau-underflows", "sigma-tau-overflows"],
    )
    def test_limit_scan_constant_ratio_where_sigma_tau_leaves_the_floats(self, capsys, path):
        # ratio239 is 1/(1 + 2i) = 0.2 - 0.4i at every s of both paths, though
        # sigma_tau underflows to 0 from s = 0.05 on the first and overflows on
        # the second; each part is held to the closed forms' bound,
        # 8*2^-52 times its exact value (tests/test_regulator_lab.py)
        code, out, err = run_cli(
            ["limit-scan", "--expr", "ratio239", "--path", path,
             "--s-schedule", "0.2,0.1,0.05,0.025", "--format", "json"],
            capsys,
        )
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["records"]) == 4
        for r in doc["records"]:
            for got, exact in ((r["value_re"], Fraction(1, 5)), (r["value_im"], Fraction(-2, 5))):
                assert abs(Fraction(got) - exact) <= 8 * Fraction(2) ** -52 * abs(exact)
        assert doc["summary"]["kind"] == "finite"
        assert abs(complex(doc["summary"]["value_re"], doc["summary"]["value_im"]) - (0.2 - 0.4j)) < 1e-12

    def test_limit_scan_dterm_where_eps0_squared_overflows(self, capsys):
        # eps1 = tau = 0 from s < 1 on, so d_term is lam/4pi at every s; the
        # expanded form squared eps0 = 1e40 s and printed -inf
        code, out, err = run_cli(
            ["limit-scan", "--expr", "dterm616", "--path", "1,1e160,1e300,1e40,0.01,1e300",
             "--s-schedule", "0.2,0.1,0.05,0.025", "--lambda", "-1e300"],
            capsys,
        )
        assert code == 0, err
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert [float(re) for _, re, _ in rows] == [-1e300 / (4.0 * math.pi)] * 4
        assert out.splitlines()[-1].startswith("# summary: kind = finite, value_re = -7.9577471545947675e+298, ")

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

    def test_step_energy_residual_leaves_the_cutoff_term(self, capsys):
        # the point split carries -d_term: point split + d_term - mode sum is
        # the cutoff's first-order term c1*tau to 1.3e-5 here, and with
        # -d_term it would be off by 2*d_term = 0.08
        code, out, err = run_cli(
            [
                "step-energy", "--lambda", "1", "--mass", "1", "--grid", "1:1:1",
                "--eps0", "0.01", "--eps1", "0", "--tau", "0.01", "--compare",
            ],
            capsys,
        )
        assert code == 0, err
        (row,) = [l for l in out.splitlines() if not l.startswith("#")][1:]
        residual = float(row.split(",")[4])
        assert abs(residual - selftest.cutoff_slope_series(1.0, 1.0, 1.0) * 0.01) < 1e-4

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

    @pytest.mark.parametrize("source", ["--out", "config"])
    def test_unwritable_output_exits_2_before_computing(self, capsys, tmp_path, monkeypatch, source):
        target = tmp_path / "missing" / "x.csv"
        computed = []
        monkeypatch.setattr(cli, "delta_flanagan", lambda *args: computed.append(args))
        args = ["flanagan", "--V", "v", "--grid", "0:0:1"]
        if source == "config":
            cfg = tmp_path / "lab.conf"
            cfg.write_text(f"# output\noutput.path = {target}\n")
            args += ["--config", str(cfg)]
            source = f"{cfg}:2"
        else:
            args += ["--out", str(target)]
        code, out, err = run_cli(args, capsys)
        assert (code, out, computed) == (2, "", [])
        assert err.startswith(f"error: {source}: cannot write {target}: ")

    def test_output_path_check_leaves_no_file(self, capsys, tmp_path):
        # the path is writable, but the map is not: nothing is written
        target = tmp_path / "x.csv"
        code, out, err = run_cli(["flanagan", "--V", "sin(", "--grid", "0:0:1", "--out", str(target)], capsys)
        assert code == 2
        assert err.startswith("error: --V: ")
        assert list(tmp_path.iterdir()) == []
        code, out, err = run_cli(["flanagan", "--V", "v", "--grid", "0:0:1", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err == f"error: --out: cannot write {tmp_path}: is a directory\n"

    def test_output_through_a_dangling_symlink(self, capsys, tmp_path):
        link, target = tmp_path / "link.csv", tmp_path / "target.csv"
        link.symlink_to(target)
        # the check opens nothing, so a command that fails leaves no target
        code, out, err = run_cli(["flanagan", "--V", "sin(", "--grid", "0:0:1", "--out", str(link)], capsys)
        assert code == 2
        assert err.startswith("error: --V: ")
        assert not target.exists()
        code, out, err = run_cli(["flanagan", "--V", "v", "--grid", "0:0:1", "--out", str(link)], capsys)
        assert (code, out, err) == (0, "", "")
        assert target.read_text().endswith("v,delta,mode\n0,0,taylor\n")
        # a link into a directory that does not exist
        link = tmp_path / "nowhere.csv"
        link.symlink_to(tmp_path / "missing" / "x.csv")
        code, out, err = run_cli(["flanagan", "--V", "v", "--grid", "0:0:1", "--out", str(link)], capsys)
        assert code == 2
        assert err == f"error: --out: cannot write {link}: no directory {os.path.realpath(tmp_path / 'missing')}\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_output_to_a_named_pipe(self, capsys, tmp_path):
        # a reader such as `cat pipe` stops at its first end of input, so the
        # command must open the pipe once, to write its output
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reads, codes = [], []
        argv = ["flanagan", "--V", "v", "--grid", "0:0:1", "--out", str(pipe)]
        threads = [
            threading.Thread(target=lambda: reads.append(pipe.read_text()), daemon=True),
            threading.Thread(target=lambda: codes.append(main(argv)), daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)  # a thread still blocked in open() stays behind
        assert codes == [0]
        assert reads[0].startswith("# ") and reads[0].endswith("v,delta,mode\n0,0,taylor\n")

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
            ("# tolerances\nquadrature.rel_tol = -1\n", "{path}:2: rel_tol must be finite and > 0, got -1.0"),
        ],
        ids=["line-without-equals", "missing-file", "format-xml", "negative-rel-tol"],
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
        transcript = []
        for argv in commands:
            code, out, err = run_cli(argv, capsys)
            assert code == 0, (argv, err)
            transcript.append("$ " + shlex.join(["regulab"] + argv) + "\n" + out)
        # every byte of every command's stdout: a change that moves one must
        # re-record this file on purpose
        assert "".join(transcript) == (ROOT / "tests" / "readme_stdout.txt").read_text()


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


# Every numeric flag of the computing subcommands, as text: an extreme of the
# floats or log-uniform on [1e-12, 1e12], negated a quarter of the time.
# Schedules and path components may also be a magnitude or its reciprocal, so
# that some of them are valid; the raw numbers stay among them.
_EXTREMES = [0.0, 5e-324, 1e-320, 1e-300, 1e-160, 1e-40, 1e-12, 1.0, 1e12, 1e40, 1e160, 1e300, 1.7e308]
_magnitudes = st.one_of(st.sampled_from(_EXTREMES), st.floats(-12.0, 12.0).map(lambda e: 10.0**e))
_numbers = st.tuples(_magnitudes, st.integers(0, 3)).map(lambda p: repr(-p[0] if p[1] == 0 else p[0]))
_grids = st.tuples(_numbers, _numbers, st.sampled_from(["1", "2"])).map(":".join)
_schedules = st.lists(st.one_of(_numbers, _magnitudes.map(lambda m: repr(m if m <= 1.0 else 1.0 / m))),
                      min_size=4, max_size=4).map(lambda s: ",".join(sorted(set(s), key=float, reverse=True)))
_paths = st.lists(st.one_of(_numbers, _magnitudes.map(repr)), min_size=6, max_size=6).map(",".join)
_regulators = st.tuples(_numbers, _numbers, _numbers).map(lambda r: ["--eps0", r[0], "--eps1", r[1], "--tau", r[2]])
_MAPS = ["exp(v)", "v^3 + v", "tanh(v)", "v + 0.1*sin(v)", "ln(v)", "v^ln(1e300)", "1/v", "exp(700*v)"]
_WEIGHTS = ["exp(-x^2)", "2 + sin(100*x)", "1 + x^2", "exp(x^2/2)*exp(x^2/2)", "exp(x^2)", "x"]
_BUDGET = ["--max-subdivisions", "50"]  # bounds the time a command can take
_COMMANDS = st.one_of(
    st.tuples(_numbers, _numbers, _grids, st.one_of(st.just([]), _regulators.map(lambda r: ["--compare", *r]))).map(
        lambda a: ["step-energy", "--lambda", a[0], "--mass", a[1], "--grid", a[2], *a[3], *_BUDGET]),
    st.tuples(_numbers, _numbers, _grids, st.one_of(
        _regulators, st.tuples(_paths, _schedules).map(lambda p: ["--path", p[0], "--s-schedule", p[1]]))).map(
        lambda a: ["well-energy", "--lambda", a[0], "--a", a[1], "--grid", a[2], *a[3], *_BUDGET]),
    st.tuples(_paths, _schedules, st.one_of(
        st.just(["--expr", "ratio239"]),
        st.tuples(st.sampled_from(["rstatic317", "dterm616"]), _numbers).map(
            lambda e: ["--expr", e[0], "--lambda", e[1]]),
        st.tuples(st.sampled_from(_MAPS), _numbers).map(
            lambda e: ["--expr", "flanagan-delta", "--V", e[0], "--v0", e[1]]))).map(
        lambda a: ["limit-scan", "--path", a[0], "--s-schedule", a[1], *a[2]]),
    st.tuples(st.sampled_from(_MAPS), _grids, st.one_of(
        st.just(["--mode", "taylor"]),
        _numbers.map(lambda t: ["--mode", "tau_first", "--tau", t]),
        st.tuples(_numbers, _numbers).map(
            lambda p: ["--mode", "pointsplit", "--tau", p[0], "--vbar-offset", p[1]]))).map(
        lambda a: ["flanagan", "--V", a[0], "--grid", a[1], *a[2]]),
    st.tuples(st.sampled_from(_WEIGHTS), _numbers, _numbers).map(
        lambda a: ["qi-bound", "--rho", a[0], "--support", f"{a[1]},{a[2]}", *_BUDGET]),
)


def _well_command(a, lam, u, v, eps0, tau):
    """A well whose one grid point lies inside it, so that most commands reach
    the integrand: x = u a and eps1 = 2 (a - |x|) v."""
    x = u * a
    return ["well-energy", "--lambda", repr(lam), "--a", repr(a), f"--grid={x!r}:{x!r}:1",
            "--eps0", repr(eps0), "--eps1", repr(2.0 * (a - abs(x)) * v), "--tau", repr(tau), *_BUDGET]


_WELL_COMMANDS = st.builds(_well_command, _magnitudes, _magnitudes, st.floats(-0.999, 0.999),
                           st.floats(0.0, 0.999), _magnitudes, _magnitudes)

# a function named with its inputs (errors.finite), or a panel (ToleranceNotMet)
_NAMED_FAILURE = re.compile(
    r"numerical failure: (\w+ at \w+ = .+ is not finite \(.+\)|.*panel \[.+\].*"
    r"|(mode_reg|pointsplit)_density at cfg = .+, t = .+: the phase .+)\n",
    re.S,
)


def assert_total(argv):
    """Run argv in-process: it exits 0, 2 or 3, exit 0 prints no nan or inf,
    and exit 3 names its cause."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code == 0:
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out.getvalue()), (argv, out.getvalue())
    if code == 3:
        assert _NAMED_FAILURE.fullmatch(err.getvalue()), (argv, err.getvalue())
    return code


class TestEveryCommandIsTotal:
    @given(_COMMANDS)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_exit_0_is_finite_and_exit_3_names_its_cause(self, argv):
        assert_total(argv)

    @given(_WELL_COMMANDS)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_wells_that_reach_the_integrand_are_total(self, argv):
        assert_total(argv)


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
    def test_importing_the_cli_leaves_selftest_unimported(self):
        # only `regulab selftest` reads regulab.selftest, so only it imports it
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, regulab.cli; print('regulab.selftest' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=False,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

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
