"""Per-call evaluation counts at fixed probe inputs, with the regulab defaults.

    python3 bench/probe.py

Counts come from QuadratureResult.evaluations, read by the same wrappers the
traced run uses, so they are exact and machine-independent.  Where the
project roadmap quotes a figure, the output says whether the count matches
it.  Prints one JSON object.
"""

from __future__ import annotations

import json
import sys

import run
import spans


def probes(mods) -> dict:
    """name -> (roadmap figure or None, call); every call uses regulab's defaults."""
    ts, sw, fl, rl, core = (mods[k] for k in ("time_step", "static_well", "flanagan", "regulator_lab", "core"))
    step = ts.StepConfig(1.0, 1.0)

    def split(s):
        return core.Regulator(s * s, s * s, s)

    ratio = rl.AmbiguityExpr.ratio239()
    schedule = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625)
    return {
        "pointsplit_density lam=m=t=1 s=0.05": (92040, lambda: ts.pointsplit_density(step, 1.0, split(0.05))),
        "pointsplit_density lam=m=t=1 s=0.025": (183724, lambda: ts.pointsplit_density(step, 1.0, split(0.025))),
        "mode_reg_density lam=m=t=1": (None, lambda: ts.mode_reg_density(step, 1.0)),
        "d_term_quadrature lam=m=1 s=0.05": (None, lambda: ts.d_term_quadrature(step, split(0.05))),
        "t00r_static lam=a=1 x=0 tau=0.05 eps=(tau^2,tau^2)": (
            46020, lambda: sw.t00r_static(sw.WellConfig(1.0, 1.0), split(0.05), 0.0)),
        "qi_bound_rhs exp(-(x/2)^2)/(2*sqrt(pi)) on [-30,30]": (405, lambda: fl.qi_bound_rhs(
            fl.WeightFunction.from_text("exp(-(x/2)^2)/(2*sqrt(pi))", (-30.0, 30.0)))),
        "scan_path ratio239 path 2,1,2, 6 samples": (None, lambda: rl.scan_path(
            ratio, rl.LimitPath(2, 1, 2), schedule)),
    }


def main() -> int:
    mods = run.import_regulab()
    out = {}
    for name, (roadmap, call) in probes(mods).items():
        tracer = spans.Tracer()
        tracer.install(mods, mods["errors"].ToleranceNotMet)
        try:
            result = call()
        finally:
            tracer.uninstall()
        totals = spans.layer_totals(tracer.spans, tracer.leaves)
        evals = tracer.counts["quad.evals"]
        entry = {
            "evaluations": evals,
            "quadrature_calls": totals.get(spans.QUAD, {}).get("calls", 0),
            "classify_calls": totals.get(spans.CLASSIFY, {}).get("calls", 0),
        }
        if hasattr(result, "samples"):
            entry["expression_evaluations"] = len(result.samples)
        if roadmap is not None:
            entry["roadmap"] = roadmap
            entry["matches_roadmap"] = evals == roadmap
        out[name] = entry
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
