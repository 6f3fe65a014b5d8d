"""Self-time arithmetic of the benchmark's tracer."""

import types

import pytest

import spans


def test_covered_ns_merges_overlaps_and_clips():
    assert spans.covered_ns([], 0, 100) == 0
    assert spans.covered_ns([(10, 20), (30, 40)], 0, 100) == 20
    assert spans.covered_ns([(10, 30), (20, 40)], 0, 100) == 30
    assert spans.covered_ns([(20, 40), (10, 30), (35, 50)], 0, 100) == 40
    assert spans.covered_ns([(-10, 10), (90, 120)], 0, 100) == 20
    assert spans.covered_ns([(150, 160)], 0, 100) == 0


def test_self_time_subtracts_children_and_direct_leaves_only():
    # root op 1 [0, 100] -> quad 2 [10, 60] -> nothing; op 1 -> parse 3 [70, 90]
    recorded = [
        (2, 1, 1, "numerics.quad", 10, 60),
        (3, 1, 1, "exprlang.parse", 70, 90),
        (1, 0, 1, "op", 0, 100),
    ]
    # 30 ns of integrand calls inside quad 2; 4 ns of jets directly under op 1
    leaves = {(2, "time_step.integrand"): [3, 30], (1, "exprlang.jet"): [2, 4]}
    selfs = spans.self_times(recorded, leaves)
    assert selfs == {1: 100 - 50 - 20 - 4, 2: 50 - 30, 3: 20}

    totals = spans.layer_totals(recorded, leaves)
    assert totals["numerics.quad"] == {"calls": 1, "wall_ns": 50, "self_ns": 20}
    assert totals["time_step.integrand"] == {"calls": 3, "wall_ns": 30, "self_ns": 30}
    # self times and leaf totals partition the root span exactly
    assert sum(row["self_ns"] for row in totals.values()) == 100


def test_grandchildren_count_once():
    recorded = [
        (3, 2, 1, "c", 20, 30),
        (2, 1, 1, "b", 10, 50),
        (1, 0, 1, "a", 0, 60),
    ]
    assert spans.self_times(recorded, {}) == {1: 20, 2: 30, 3: 10}


def test_tracer_records_nested_spans_leaves_and_counts():
    tracer = spans.Tracer()
    leaf = tracer.leaf("time_step.integrand", lambda k: k * k)
    result = types.SimpleNamespace(evaluations=15)

    def quad():
        return [leaf(k) for k in range(15)] and result

    outer = tracer.span("op", tracer.span("numerics.quad", quad,
                                          lambda r: tracer.counts.__setitem__("evals", r.evaluations)))
    assert outer() is result
    (quad_id, op_id, _, _, q0, q1), (root_id, parent, _, _, o0, o1) = tracer.spans
    assert (parent, op_id) == (0, root_id)
    assert o0 <= q0 <= q1 <= o1
    calls, total = tracer.leaves[(quad_id, "time_step.integrand")]
    assert calls == 15 and 0 <= total <= q1 - q0
    assert tracer.counts["evals"] == 15
    selfs = spans.self_times(tracer.spans, tracer.leaves)
    assert selfs[quad_id] == q1 - q0 - total
    assert selfs[root_id] == o1 - o0 - (q1 - q0)


def test_span_under_leaf_is_refused():
    tracer = spans.Tracer()
    inner = tracer.span("numerics.quad", lambda: None)
    with pytest.raises(RuntimeError):
        tracer.leaf("time_step.integrand", inner)()


def test_install_wraps_and_uninstall_restores():
    from regulab import cli, core, errors, flanagan, numerics, regulator_lab, static_well, time_step

    mods = dict(cli=cli, core=core, errors=errors, flanagan=flanagan, numerics=numerics,
                regulator_lab=regulator_lab, static_well=static_well, time_step=time_step)
    before = {(m, n): getattr(mods[m], n) for m, n, _, _ in spans.WRAPPED}
    tracer = spans.Tracer()
    tracer.install(mods, errors.ToleranceNotMet)
    try:
        assert all(getattr(mods[m], n) is not before[(m, n)] for m, n, _, _ in spans.WRAPPED)
        spec = numerics.QuadratureSpec(rel_tol=1e-9, max_subdivisions=1)
        with pytest.raises(errors.ToleranceNotMet):
            flanagan.integrate_interval(lambda x: abs(x - 0.3) ** 0.5, 0.0, 1.0, spec)
    finally:
        tracer.uninstall()
    assert all(getattr(mods[m], n) is before[(m, n)] for m, n, _, _ in spans.WRAPPED)
    assert tracer.counts["quad.tol_not_met"] == 1
    assert tracer.counts["quad.evals"] == 45


def test_reported_metrics_match_benchmark_json():
    import json
    import os

    import run

    with open(os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    tally = run.Tally()
    tally.latencies = [0.001 * i for i in range(1, 101)]
    e2e, extra = run.end_to_end(tally, [0.5, 0.5], 0.5)
    assert extra["samples_beyond_p90"] >= 10
    layer = run.per_layer(spans.Tracer(), 1.0)
    for section, got in (("end_to_end", e2e), ("per_layer", layer)):
        assert {(m["name"], m["unit"]) for m in declared[section]} == {(k, u) for k, (_, u) in got.items()}


def test_harrell_davis_quantiles():
    import run

    assert run.betainc(1.0, 1.0, 0.3) == pytest.approx(0.3, rel=1e-14)
    assert run.betainc(2.0, 1.0, 0.3) == pytest.approx(0.09, rel=1e-14)
    assert run.betainc(3.0, 5.0, 0.4) + run.betainc(5.0, 3.0, 0.6) == pytest.approx(1.0, rel=1e-14)
    values = [float(i) for i in range(1, 202)]
    assert run.hd_quantile(values, 0.5) == pytest.approx(101.0, rel=1e-12)
    assert run.hd_quantile(list(reversed(values)), 0.9) == pytest.approx(0.9 * 201 + 0.5, rel=1e-3)
    assert run.hd_quantile([7.0] * 50, 0.9) == pytest.approx(7.0, rel=1e-14)
