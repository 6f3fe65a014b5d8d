"""The benchmark's references and the checks built on them."""

import json
import math
import random

import pytest

import refs
import workloads
from regulab import cli, core, exprlang, numerics, regulator_lab, time_step


def test_miss_is_relative_to_the_larger_of_ref_and_scale():
    assert refs.miss(1.0 + 1e-10, 1.0, 1e-9) is None
    assert refs.miss(1.0 + 1e-8, 1.0, 1e-9) is not None
    assert refs.miss(1e-12, 0.0, 1e-9) is not None
    assert refs.miss(1e-12, 0.0, 1e-9, scale=1e-2) is None
    assert refs.miss(complex(1, 1e-8), 1 + 0j, 1e-9) is not None


def test_d_term_closed_agrees_with_the_program():
    rng = random.Random(5)
    for _ in range(200):
        lam, e0, e1, tau = (rng.uniform(0.01, 2.0) for _ in range(4))
        ours = refs.d_term_closed(lam, e0, e1, tau)
        assert math.isclose(ours, time_step.d_term_value(lam, e0, e1, tau), rel_tol=1e-12)


@pytest.mark.parametrize("expr_id", ["ratio239", "rstatic317", "dterm616"])
def test_expression_closed_agrees_with_the_program(expr_id):
    expr = {
        "ratio239": regulator_lab.AmbiguityExpr.ratio239(),
        "rstatic317": regulator_lab.AmbiguityExpr.r_static317(1.7),
        "dterm616": regulator_lab.AmbiguityExpr.d_term616(1.7),
    }[expr_id]
    for path in workloads.REGULATOR_PATHS[:-1]:
        reg = regulator_lab.LimitPath(*path).regulator_at(0.3)
        got = expr.evaluate(reg)
        assert abs(refs.expression_closed(expr_id, path, 1.7, 0.3) - got) <= 1e-12 * abs(got)


def test_path_limits():
    assert refs.path_limit("ratio239", (2, 1, 2, 1, 1, 1)) == ("finite", 1)
    assert refs.path_limit("ratio239", (2, 1, 1, 1, 1, 1)) == ("finite", 0.5)
    assert refs.path_limit("ratio239", (1, 2, 2, 1, 1, 1)) == ("finite", 0)
    assert refs.path_limit("ratio239", (1, 1, 2, 1, 1, 1))[0] == "divergent"
    assert refs.path_limit("ratio239", (1, 1, 1, 1, 1, 0))[0] == "divergent"
    kind, value = refs.path_limit("rstatic317", (1, 1, 2, 1, 1, 1), lam=2.0)
    assert kind == "finite" and math.isclose(value.real, 2.0 / (16.0 * math.pi))
    kind, value = refs.path_limit("dterm616", (1, 2, 2, 1, 1, 1), lam=2.0)
    assert kind == "finite" and math.isclose(value.real, 2.0 / (4.0 * math.pi))


@pytest.mark.parametrize("text", sorted(refs.MAPS))
def test_map_derivatives_match_exprlang_jets(text):
    expr = exprlang.parse(text, "v")
    for v in (-1.0, -0.3, 0.25, 1.0):
        jet = exprlang.eval_jet3(expr, v)
        for ours, theirs in zip((f(v) for f in refs.MAPS[text]), (jet.f, jet.d1, jet.d2, jet.d3)):
            assert math.isclose(ours, theirs, rel_tol=1e-12, abs_tol=1e-14)


def test_gaussian_bound_matches_midpoint_rule():
    w = 1.3
    h = 1e-3
    total = 0.0
    for i in range(int(30 * w / h)):
        x = -15 * w + (i + 0.5) * h
        rho = math.exp(-((x / w) ** 2)) / (w * math.sqrt(math.pi))
        total += (2 * x / w**2) ** 2 * rho * h
    assert math.isclose(refs.gaussian_qi_bound(w), -total / (24 * math.pi), rel_tol=1e-9)


def test_load_table_reads_the_shipped_table_and_refuses_broken_ones(tmp_path):
    table = refs.load_table()
    assert table["step"] and table["well"]
    broken = dict(table, step=[{k: v for k, v in table["step"][0].items() if k != "mode"}])
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(broken))
    with pytest.raises(refs.ReferenceError):
        refs.load_table(str(path))
    with pytest.raises(refs.ReferenceError):
        refs.load_table(str(tmp_path / "missing.json"))


def test_cli_op_check_flags_wrong_values_exit_codes_and_garbage():
    lab = workloads.LimitLab({"cli": cli}, None)
    op = lab.qi_bound(random.Random(1))
    code, text = op.call()
    assert code == 0 and op.check((code, text)) is None
    header, row = text.strip().splitlines()[-2:]
    bound = float(row.split(",")[0])
    tampered = text.replace(row, f"{bound * (1 + 1e-7)!r},0")
    assert op.check((0, tampered)) is not None
    assert op.check((3, text)) == "exit code 3"
    assert op.check((0, "# nothing\n")).startswith("unparsable")


def test_scan_check_flags_a_wrong_verdict():
    lab = workloads.LimitLab({"cli": cli}, None)
    op = lab.scan("ratio239", (2, 1, 2, 1, 1, 1), [],
                  lambda s: (refs.expression_closed("ratio239", (2, 1, 2, 1, 1, 1), 1.0, s), 0.0),
                  ("divergent", 0j))
    assert op.check(op.call()).startswith("verdict finite")


def test_step_row_checks_use_the_table():
    mods = {"time_step": time_step, "core": core, "numerics": numerics}
    table = refs.load_table()
    step = workloads.StepCompare(mods, table)
    row = table["step"][0]
    ops = step.row_ops(row, (), 0.2)
    mode, gap = ops
    assert mode.check(row["mode"]) is None
    assert mode.check(row["mode"] + 1e-8 * row["mode_scale"]) is not None
    closed = refs.d_term_closed(row["lam"], 0.04, 0.04, 0.2)
    assert gap.check((closed, closed)) is None
    assert gap.check((closed, closed * (1 + 1e-8))) is not None
