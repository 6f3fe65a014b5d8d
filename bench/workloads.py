"""The three workloads: seeded operations on regulab, each with its reference check.

An operation is one closed-loop call into regulab's public API (`call`)
and a check of what came back (`check`, which returns None or the reason
it failed).  Workloads hand out operations in blocks that draw one input
from every cost stratum of the pool, so a run's mix of cheap and costly
inputs hardly depends on the seed or on how many blocks fit in the run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from dataclasses import dataclass
from typing import Callable

import refs


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    bytes_out: Callable[[object], int] | None = None


class StratifiedPool:
    """Pool rows grouped by cost stratum.  Each draw takes one row from every
    stratum; a stratum hands out all of its rows, in seeded order, before it
    repeats one, so runs of any length see nearly the same inputs."""

    def __init__(self, rows: list[dict]):
        by_stratum: dict = {}
        for row in rows:
            by_stratum.setdefault(row["stratum"], []).append(row)
        self.strata = [by_stratum[k] for k in sorted(by_stratum)]
        self._queues: list[list[dict]] = [[] for _ in self.strata]

    def draw(self, rng: random.Random) -> list[dict]:
        rows = []
        for stratum, queue in zip(self.strata, self._queues):
            if not queue:
                queue.extend(stratum)
                rng.shuffle(queue)
            rows.append(queue.pop())
        rng.shuffle(rows)
        return rows


class StepCompare:
    """One time-step row per (lam, m, t): mode sum, point split at three s on
    the path eps = (s^2, s^2), tau = s, and d_term against its quadrature."""

    # wall seconds of one block on a 2-core Xeon; sizes the traced run
    block_seconds = 5.5

    def __init__(self, mods: dict, table: dict):
        self.ts = mods["time_step"]
        self.regulator = mods["core"].Regulator
        self.spec = mods["numerics"].QuadratureSpec(rel_tol=table["meta"]["rel_tol"])
        self.rel_tol = table["meta"]["rel_tol"]
        self.s_values = tuple(table["meta"]["step_s"])
        self.pool = StratifiedPool(table["step"])

    def row_ops(self, row: dict, s_values, s_gap: float) -> list[Op]:
        ts, spec, rel = self.ts, self.spec, self.rel_tol
        cfg = ts.StepConfig(row["lam"], row["m"])
        t = row["t"]
        ops = [Op(
            "mode_reg",
            lambda: ts.mode_reg_density(cfg, t, spec).value,
            lambda v: refs.miss(v, row["mode"], rel, row["mode_scale"]),
        )]
        for s in s_values:
            reg = self.regulator(s * s, s * s, s)
            ref = row["pointsplit"][self.s_values.index(s)]
            ops.append(Op(
                "pointsplit",
                lambda reg=reg: ts.pointsplit_density(cfg, t, reg, spec).value,
                lambda v, ref=ref: refs.miss(v, ref, rel),
            ))
        reg = self.regulator(s_gap * s_gap, s_gap * s_gap, s_gap)
        closed = refs.d_term_closed(row["lam"], reg.eps0, reg.eps1, reg.tau)
        ops.append(Op(
            "d_term",
            lambda: (ts.d_term(cfg, reg), ts.d_term_quadrature(cfg, reg, spec).value.real),
            lambda v: refs.miss(v[0], closed, 1e-12) or refs.miss(v[1], closed, rel),
        ))
        return ops

    def block(self, rng: random.Random) -> list[Op]:
        ops = []
        for row in self.pool.draw(rng):
            ops += self.row_ops(row, self.s_values, rng.choice(self.s_values))
        return ops

    def warmup(self) -> list[Op]:
        row = min(self.pool.strata[0], key=lambda r: r["t"])
        return self.row_ops(row, self.s_values[:1], self.s_values[0])


class WellPath:
    """t00r_static along power-law paths eps0 = s^p0, eps1 = s^p1, tau = s."""

    block_seconds = 3.0

    def __init__(self, mods: dict, table: dict):
        self.sw = mods["static_well"]
        self.regulator = mods["core"].Regulator
        self.spec = mods["numerics"].QuadratureSpec(rel_tol=table["meta"]["rel_tol"])
        self.rel_tol = table["meta"]["rel_tol"]
        self.s_values = tuple(table["meta"]["well_s"])
        self.pool = StratifiedPool(table["well"])

    def path_ops(self, row: dict, count: int) -> list[Op]:
        sw, spec, rel = self.sw, self.spec, self.rel_tol
        cfg = sw.WellConfig(row["lam"], row["a"])
        x = row["x"]
        ops = []
        for i, s in enumerate(self.s_values[:count]):
            reg = self.regulator(s ** row["p0"], s ** row["p1"], s)
            ref, scale = row["t00r"][i], row["t00r_scale"][i]
            ops.append(Op(
                "t00r",
                lambda reg=reg: sw.t00r_static(cfg, reg, x, 0.0, spec).value,
                lambda v, ref=ref, scale=scale: refs.miss(v, ref, rel, scale),
            ))
        return ops

    def block(self, rng: random.Random) -> list[Op]:
        ops = []
        for row in self.pool.draw(rng):
            ops += self.path_ops(row, len(self.s_values))
        return ops

    def warmup(self) -> list[Op]:
        return self.path_ops(min(self.pool.strata[0], key=lambda r: r["a"]), 1)


# --- limit-lab: in-process CLI invocations ------------------------------------

SCHEDULE = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625)
# (p0, p1, ptau, c0, c1, ctau); the last pins tau to 0, so every sample is
# singular for the three closed-form expressions.
REGULATOR_PATHS = (
    (2, 1, 2, 1, 1, 1),
    (1, 2, 2, 1, 1, 1),
    (1, 1, 2, 1, 1, 1),
    (2, 2, 1, 1, 1, 1),
    (2, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 0),
)
# split s^p1 and cutoff s^ptau: tau = o(split^3) is finite, tau >= split diverges
FLANAGAN_PATHS = ((1, 1, 4, 1, 1, 1), (1, 1, 1, 1, 1, 1), (1, 2, 1, 1, 1, 1))
# a stated accuracy for the s -> 0 extrapolation, relative to the largest sample
LIMIT_TOL = 1e-5
# closed-form outputs, relative to the larger of the cancelling terms
CLOSED_TOL = 1e-9


def _text(x: float) -> str:
    return repr(float(x))


def _parse_csv(text: str) -> tuple[list[str], list[dict]]:
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    if not rows:
        raise ValueError("no CSV header in output")
    return comments, [dict(zip(rows[0], r)) for r in rows[1:]]


def _parse_summary(comments: list[str]) -> dict:
    for line in comments:
        if line.startswith("# summary: "):
            return dict(part.split(" = ", 1) for part in line[len("# summary: "):].split(", "))
    raise ValueError("no summary line in output")


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _output_bytes(result) -> int:
    return len(result[1].encode("utf-8"))


def _checked_output(check_records):
    """Wrap a records check with the exit-code and parse checks every CLI op needs."""

    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        try:
            comments, records = _parse_csv(text)
            return check_records(comments, records)
        except (ValueError, KeyError) as exc:
            return f"unparsable output: {exc!r}"

    return check


def _first_miss(checks) -> str | None:
    for message in checks:
        if message is not None:
            return message
    return None


class LimitLab:
    """Small `regulab.cli.main` invocations: limit-scan over all four
    expression ids, flanagan in all three modes, and qi-bound."""

    block_seconds = 0.075

    def __init__(self, mods: dict, table: dict):
        self.cli = mods["cli"]

    def _op(self, kind: str, argv: list[str], check_records) -> Op:
        cli = self.cli
        return Op(kind, lambda: _run_cli(cli, argv), _checked_output(check_records), _output_bytes)

    def scan(self, expr_id: str, path: tuple, extra: list[str], sample_ref, limit) -> Op:
        argv = ["limit-scan", "--expr", expr_id, "--path", ",".join(_text(p) for p in path),
                "--s-schedule", ",".join(_text(s) for s in SCHEDULE)] + extra
        kind, value = limit

        def check_records(comments, records):
            summary = _parse_summary(comments)
            if summary["kind"] != kind:
                return f"verdict {summary['kind']}, expected {kind}"
            samples = []
            for rec in records:
                s = float(rec["s"])
                z = complex(float(rec["value_re"]), float(rec["value_im"]))
                ref, scale = sample_ref(s)
                message = refs.miss(z, ref, CLOSED_TOL, scale)
                if message:
                    return f"sample at s={s}: {message}"
                samples.append(z)
            if kind != "finite":
                return None
            got = complex(float(summary["value_re"]), float(summary["value_im"]))
            return refs.miss(got, value, LIMIT_TOL, max(abs(z) for z in samples))

        return self._op("limit-scan", argv, check_records)

    def regulator_scan(self, rng: random.Random, expr_id: str) -> Op:
        path = rng.choice(REGULATOR_PATHS)
        if expr_id == "ratio239":
            lam, extra = 1.0, []
        else:
            lam = round(rng.uniform(0.5, 3.0), 4)
            extra = ["--lambda", _text(lam)]

        def sample_ref(s):
            z = refs.expression_closed(expr_id, path, lam, s)
            return z, abs(z)

        return self.scan(expr_id, path, extra, sample_ref, refs.path_limit(expr_id, path, lam))

    def flanagan_scan(self, rng: random.Random) -> Op:
        path = rng.choice(FLANAGAN_PATHS)
        text = rng.choice(sorted(refs.MAPS))
        v0 = round(rng.uniform(0.25, 1.0), 4)
        _, p1, ptau, _, c1, ctau = path

        def sample_ref(s):
            return refs.delta_pointsplit_closed(text, v0, v0 - c1 * s**p1, ctau * s**ptau)

        limit = refs.flanagan_path_limit(text, v0, p1, ptau)
        return self.scan("flanagan-delta", path, ["--V", text, "--v0", _text(v0)], sample_ref, limit)

    def flanagan(self, rng: random.Random, mode: str) -> Op:
        text = rng.choice(sorted(refs.MAPS))
        lo = round(rng.uniform(-1.0, 0.5), 3)
        argv = ["flanagan", "--V", text, f"--grid={_text(lo)}:{_text(lo + 1.0)}:5", "--mode", mode]
        if mode == "taylor":
            def expected(rec):
                return refs.delta_flanagan_closed(text, float(rec["v"])), float(rec["delta"])
        elif mode == "tau_first":
            tau = round(rng.uniform(0.05, 0.5), 4)
            argv += ["--tau", _text(tau)]

            def expected(rec):
                return refs.delta_tau_closed(text, float(rec["v"]), tau), float(rec["delta"])
        else:
            tau = round(rng.uniform(0.02, 0.2), 4)
            offset = round(rng.uniform(0.005, 0.05), 4)
            argv += ["--tau", _text(tau), "--vbar-offset", _text(offset)]

            def expected(rec):
                ref = refs.delta_pointsplit_closed(text, float(rec["v"]), float(rec["vbar"]), tau)
                return ref, complex(float(rec["delta_re"]), float(rec["delta_im"]))

        def check_records(comments, records):
            if len(records) != 5:
                return f"{len(records)} records, expected 5"
            return _first_miss(
                refs.miss(got, ref, CLOSED_TOL, scale)
                for (ref, scale), got in map(expected, records)
            )

        return self._op("flanagan-" + mode, argv, check_records)

    def qi_bound(self, rng: random.Random) -> Op:
        w = round(rng.uniform(0.5, 4.0), 4)
        half = 15.0 * w
        argv = ["qi-bound", "--rho", refs.gaussian_weight_text(w),
                f"--support={_text(-half)},{_text(half)}"]
        ref = refs.gaussian_qi_bound(w)

        def check_records(comments, records):
            if len(records) != 1:
                return f"{len(records)} records, expected 1"
            return refs.miss(float(records[0]["bound"]), ref, CLOSED_TOL)

        return self._op("qi-bound", argv, check_records)

    def block(self, rng: random.Random) -> list[Op]:
        ops = [self.regulator_scan(rng, e) for e in ("ratio239", "rstatic317", "dterm616")]
        ops.append(self.flanagan_scan(rng))
        ops += [self.flanagan(rng, m) for m in ("taylor", "tau_first", "pointsplit")]
        # two of nine: p90 then falls inside the qi-bound cluster, not at its edge
        ops += [self.qi_bound(rng), self.qi_bound(rng)]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return self.block(random.Random(0))


WORKLOADS = {"step-compare": StepCompare, "well-path": WellPath, "limit-lab": LimitLab}
