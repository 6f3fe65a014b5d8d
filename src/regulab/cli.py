"""Command-line surface: every computation as a subcommand, CSV/JSON output.

Each subcommand declares only the settings it reads.  Configuration
resolves as defaults <- config file (REGULAB_CONFIG or --config) <-
command-line flags, later wins, over those settings, and the output's config
block lists exactly them.  Config files are flat `key = value` lines with `#`
comments and dotted section prefixes, e.g. `quadrature.rel_tol = 1e-12`; a
file may set any known key to a valid value, and a subcommand ignores those
it does not read.

A flag is accepted only where its mode reads it: `_MODES` states which flags
each mode reads.  One given in a mode that does not read it exits 2, naming
the flag and the mode, before any other input is parsed.  Modes govern only
flags, never a setting.

All output is deterministic: identical inputs produce byte-identical files.

Exit codes: 0 success, 1 a selftest check failed, 2 bad input, named by its
flag, config-file line or setting, 3 a numerical failure: ToleranceNotMet, or
NonFiniteResult naming a density or closed form and its inputs (errors.finite).
Any other exception is a bug, and main lets it through.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys

from .core import Regulator
from .errors import NonFiniteResult, RegulabError, ToleranceNotMet
from .flanagan import ConformalMap, WeightFunction, delta_flanagan, delta_pointsplit, delta_tau, qi_bound_rhs
from .numerics import QuadratureSpec
from .regulator_lab import AmbiguityExpr, LimitPath, check_schedule, scan_path
from .static_well import WellConfig, check_region, t00r_static
from .time_step import StepConfig, d_term, mode_reg_density, pointsplit_density

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# config key -> default; a key's type is its default's type, and the flag
# that sets it has the key as its argparse dest
_DEFAULTS = {
    **{f"quadrature.{f.name}": f.default for f in dataclasses.fields(QuadratureSpec)},
    "output.format": "csv",
    "output.path": "-",
}

_FORMATS = ("csv", "json")  # output.format's values, from a flag or a config file

# quadrature flag -> its config key, one per QuadratureSpec field, in --help order
_QUADRATURE_FLAGS = {
    "--" + f.name.replace("_", "-"): f"quadrature.{f.name}" for f in dataclasses.fields(QuadratureSpec)
}

# config key -> the flag that sets it
_FLAG_OF = {**{key: flag for flag, key in _QUADRATURE_FLAGS.items()}, "output.format": "--format", "output.path": "--out"}

_REGULATOR_FLAGS = {"--eps0": 0.0, "--eps1": 0.0, "--tau": 0.0}

# limit-scan's --expr: expression id -> ({flag it reads: its default}, its
# constructor from the parsed flags)
_EXPRESSIONS = {
    "ratio239": ({}, lambda args: AmbiguityExpr.ratio239()),
    "rstatic317": ({"--lambda": 1.0}, lambda args: _named("--lambda", AmbiguityExpr.r_static317, args.lam)),
    "dterm616": ({"--lambda": 1.0}, lambda args: AmbiguityExpr.d_term616(args.lam)),
    "flanagan-delta": ({"--V": "exp(v)", "--v0": 0.0},
                       lambda args: AmbiguityExpr.flanagan_delta(_parsed("--V", ConformalMap.from_text, args.V), args.v0)),
}

# The mode table: subcommand -> (its mode, from the parsed arguments; why a
# mode refuses a flag it does not read; mode -> {flag it reads: its default}).
# These flags parse as None, "not given".
_MODES = {
    "well-energy": (lambda args: args.path is not None, "not read with --path, which sets the regulator",
                    {True: {}, False: _REGULATOR_FLAGS}),
    "step-energy": (lambda args: args.compare, "only read with --compare",
                    {True: _REGULATOR_FLAGS, False: {}}),
    "flanagan": (lambda args: args.mode, "not read in {} mode",
                 {"taylor": {}, "tau_first": {"--tau": 0.0},
                  "pointsplit": {"--tau": 0.0, "--vbar-offset": 0.01}}),
    "limit-scan": (lambda args: args.expr, "not read by --expr {}",
                   {expr_id: reads for expr_id, (reads, _) in _EXPRESSIONS.items()}),
}

# a mode-dependent flag's dest, where it is not the one argparse derives
_DESTS = {"--lambda": "lam"}


class ValidationFailure(Exception):
    pass


def _named(flags: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError reported as bad input in flags."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValidationFailure(f"{flags}: {exc}") from exc


# the RegulabErrors that are numerical failures, not bad input
_NUMERICAL = (ToleranceNotMet, NonFiniteResult)


def _parsed(flag: str, fn, *args):
    """fn(*args), with a RegulabError other than a numerical failure, which
    the expression text given in flag caused, reported as bad input in flag."""
    try:
        return fn(*args)
    except _NUMERICAL:
        raise
    except RegulabError as exc:
        raise ValidationFailure(f"{flag}: {type(exc).__name__}: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _setting(source: str, key: str, value):
    """value, refused as bad input in source (a flag or a config-file line)
    unless the setting key takes it."""
    if key.startswith("quadrature."):
        _named(source, QuadratureSpec, **{key.removeprefix("quadrature."): value})
    elif key == "output.format" and value not in _FORMATS:
        raise ValidationFailure(f"{source}: output.format must be {' or '.join(_FORMATS)}, got {value!r}")
    return value


def _parse_config_file(path: str) -> dict:
    """key -> (value, the file:line that set it)"""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationFailure(
                        f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                    )
                key, _, val = line.partition("=")
                key = key.strip()
                val = val.strip()
                if key not in _DEFAULTS:
                    raise ValidationFailure(f"{path}:{lineno}: unknown key {key!r}")
                source = f"{path}:{lineno}"
                values[key] = (_setting(source, key, _named(source, type(_DEFAULTS[key]), val)), source)
    except OSError as exc:
        raise ValidationFailure(f"--config: cannot read {path}: {exc}") from exc
    return values


def _apply_mode(args):
    """Hold the parsed arguments to the mode table: refuse a given flag the
    mode does not read, give a flag it reads its default, and require a
    number to be finite."""
    if args.command not in _MODES:
        return
    mode_of, refusal, by_mode = _MODES[args.command]
    mode = mode_of(args)
    if mode not in by_mode:  # only limit-scan's --expr can name a mode the table lacks
        raise ValidationFailure(f"--expr: unknown expression id {mode!r}; choose from {sorted(by_mode)}")
    reads = by_mode[mode]
    dests = {flag: _DESTS.get(flag, flag[2:].replace("-", "_")) for r in by_mode.values() for flag in r}
    given = [flag for flag, dest in dests.items() if flag not in reads and getattr(args, dest) is not None]
    if given:
        raise ValidationFailure(f"{'/'.join(given)}: {refusal.format(mode)}")
    for flag, default in reads.items():
        value = getattr(args, dests[flag])
        if value is None:
            setattr(args, dests[flag], default)
        elif isinstance(default, float) and not math.isfinite(value):
            raise ValidationFailure(f"{flag}: must be finite, got {_fmt(value)}")


def _check_writable(path: str, source: str) -> None:
    """Refuse an output path that cannot be written, naming its source,
    without opening it: opening a named pipe would end its reader's input,
    and opening a dangling symlink would create its target."""
    target = os.path.realpath(path)  # what opening the path would write
    parent = os.path.dirname(target)
    if os.path.isdir(target):
        reason = "is a directory"
    elif os.path.exists(target):
        reason = None if os.access(target, os.W_OK) else "permission denied"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    else:
        reason = None if os.access(parent, os.W_OK | os.X_OK) else f"permission denied in {parent}"
    if reason:
        raise ValidationFailure(f"{source}: cannot write {path}: {reason}")


def _resolve(args) -> dict:
    """defaults <- env config file <- --config file <- flags, over the
    settings the subcommand declares (its flags' dests); a file's other keys
    are checked, then ignored.  Each value is checked where it is read, and
    an output path that cannot be written is refused, naming the flag or
    line that set it, before anything is computed; args.output_source keeps
    that name for _emit."""
    flags = {k: v for k, v in vars(args).items() if k in _DEFAULTS}
    resolved = {k: (_DEFAULTS[k], None) for k in flags}
    for path in (os.environ.get("REGULAB_CONFIG"), getattr(args, "config", None)):
        if path and flags:  # a command without settings reads no config file
            resolved.update((k, v) for k, v in _parse_config_file(path).items() if k in flags)
    resolved.update((k, (_setting(_FLAG_OF[k], k, v), _FLAG_OF[k])) for k, v in flags.items() if v is not None)
    path, args.output_source = resolved.get("output.path", ("-", None))
    if path != "-":
        _check_writable(path, args.output_source)
    return {k: value for k, (value, _) in resolved.items()}


def _spec_from(resolved: dict) -> QuadratureSpec:
    return QuadratureSpec(**{k.removeprefix("quadrature."): v for k, v in resolved.items() if k.startswith("quadrature.")})


def _parse_grid(text: str, flag: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationFailure(f"{flag}: expected start:stop:count, got {text!r}")
    start, stop = (_named(flag, float, p) for p in parts[:2])
    count = _named(flag, int, parts[2])
    if count < 1:
        raise ValidationFailure(f"{flag}: count must be >= 1")
    step = (stop - start) / (count - 1) if count > 1 else 0.0
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationFailure(f"{flag}: start, stop and step must be finite, got {text!r}")
    return [start + i * step for i in range(count)] if count > 1 else [start]


def _parse_floats(text: str, flag: str, n_min=1) -> list[float]:
    vals = [_named(flag, float, p) for p in text.split(",") if p.strip() != ""]
    if len(vals) < n_min:
        raise ValidationFailure(f"{flag}: need at least {n_min} values")
    return vals


def _parse_path(text: str) -> LimitPath:
    vals = _parse_floats(text, "--path", 3)
    if len(vals) not in (3, 6):
        raise ValidationFailure("--path: expected p0,p1,ptau or p0,p1,ptau,c0,c1,ctau")
    return _named("--path", LimitPath, *vals)


def _unsigned_zeros(rec: dict) -> dict:
    """rec with -0.0 turned into 0.0 (v + 0.0), so a zero prints as 0 in both formats."""
    return {k: v + 0.0 if isinstance(v, float) else v for k, v in rec.items()}


def _emit(args, resolved: dict, columns: list[str], records: list[dict], summary: dict | None):
    records = [_unsigned_zeros(rec) for rec in records]
    if summary is not None:
        summary = _unsigned_zeros(summary)
    buf = io.StringIO()
    config_items = [(k, resolved[k]) for k in sorted(resolved)]
    if resolved["output.format"] == "csv":
        for key, val in config_items:
            buf.write(f"# {key} = {_fmt(val)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec[c]) for c in columns])
        if summary is not None:
            parts = ", ".join(f"{k} = {_fmt(v)}" for k, v in summary.items())
            buf.write(f"# summary: {parts}\n")
    else:
        doc = {"config": dict(config_items), "records": records}
        if summary is not None:
            doc["summary"] = summary
        json.dump(doc, buf, indent=2)
        buf.write("\n")
    text = buf.getvalue()
    path = resolved["output.path"]
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:  # the path changed since _check_writable
            raise ValidationFailure(f"{args.output_source}: cannot write {path}: {exc}") from exc


def cmd_well_energy(args, resolved: dict) -> int:
    cfg = _named("--lambda/--a", WellConfig, args.lam, args.a)
    spec = _spec_from(resolved)
    xs = _parse_grid(args.grid, "--grid")
    if args.path is not None and args.s_schedule is None:
        raise ValidationFailure("--s-schedule: required with --path")
    if args.s_schedule is not None and args.path is None:
        raise ValidationFailure("--path: required with --s-schedule")
    if args.path is not None:
        path = _parse_path(args.path)
        schedule = _parse_floats(args.s_schedule, "--s-schedule")
        _named("--s-schedule", check_schedule, schedule)
        regulators = [path.regulator_at(s) for s in schedule]
    else:
        regulators = [_named("--eps0/--eps1/--tau", Regulator, args.eps0, args.eps1, args.tau)]
    for x in xs:
        for reg in regulators:
            _parsed("--grid", check_region, cfg, reg, x)
            if not (reg.tau > 0.0):
                # a path sets tau itself, and --path refuses --tau
                flag = "--tau" if args.path is None else "--path"
                raise ValidationFailure(f"{flag}: need tau > 0 for the cutoff integral")
    records = []
    for x in xs:
        for reg in regulators:
            res = t00r_static(cfg, reg, x, 0.0, spec)
            records.append(
                {
                    "x": x,
                    "value": res.value,
                    "error_estimate": res.error_estimate,
                    "eps0": reg.eps0,
                    "eps1": reg.eps1,
                    "tau": reg.tau,
                }
            )
    _emit(args, resolved, ["x", "value", "error_estimate", "eps0", "eps1", "tau"], records, None)
    return EXIT_OK


def cmd_step_energy(args, resolved: dict) -> int:
    cfg = _named("--lambda/--mass", StepConfig, args.lam, args.mass)
    spec = _spec_from(resolved)
    ts = _parse_grid(args.grid, "--grid")
    if any(t < 0.0 for t in ts):
        raise ValidationFailure("--grid: t must be >= 0 (after the switch-on)")
    if args.compare:
        reg = _named("--eps0/--eps1/--tau", Regulator, args.eps0, args.eps1, args.tau)
        if not (reg.tau > 0.0):
            raise ValidationFailure("--tau: need tau > 0 for --compare")
        for t in ts:
            if t <= reg.eps0 / 2.0:
                raise ValidationFailure(
                    f"--grid: need t > eps0/2 for the point split (t = {_fmt(t)})"
                )
    records = []
    for t in ts:
        mode = mode_reg_density(cfg, t, spec)
        rec = {"t": t, "mode_reg": mode.value}
        if args.compare:
            ps = pointsplit_density(cfg, t, reg, spec)
            d = d_term(cfg, reg)  # the point split carries -d_term
            rec.update(pointsplit=ps.value, d_term=d, residual=ps.value + d - mode.value)
        records.append(rec)
    columns = ["t", "mode_reg"] + (["pointsplit", "d_term", "residual"] if args.compare else [])
    _emit(args, resolved, columns, records, None)
    return EXIT_OK



def cmd_limit_scan(args, resolved: dict) -> int:
    expr = _EXPRESSIONS[args.expr][1](args)
    path = _parse_path(args.path)
    schedule = _parse_floats(args.s_schedule, "--s-schedule", n_min=4)
    _named("--s-schedule", check_schedule, schedule)  # scan_path's check, naming the flag
    # scan_path catches SingularRegulator and a NonFiniteResult is numerical, so --V is all a RegulabError can name
    result = _parsed("--V", scan_path, expr, path, schedule)
    records = [
        {"s": s, "value_re": z.real, "value_im": z.imag} for s, z in result.samples
    ]
    summary = {
        "kind": result.outcome.kind.value,
        "value_re": result.outcome.value.real,
        "value_im": result.outcome.value.imag,
        "confidence": result.outcome.confidence,
    }
    if result.singular_s is not None:
        summary["singular_s"] = result.singular_s
    _emit(args, resolved, ["s", "value_re", "value_im"], records, summary)
    return EXIT_OK


def cmd_flanagan(args, resolved: dict) -> int:
    V = _parsed("--V", ConformalMap.from_text, args.V)
    vs = _parse_grid(args.grid, "--grid")
    mode = args.mode
    if mode == "tau_first" and not (args.tau > 0.0):
        raise ValidationFailure("--tau: need tau > 0 for tau_first mode")
    if mode == "pointsplit" and args.tau < 0.0:
        raise ValidationFailure("--tau: need tau >= 0 for pointsplit mode")
    if mode == "pointsplit" and args.tau == 0.0 and any(v - args.vbar_offset == v for v in vs):
        raise ValidationFailure("--vbar-offset: need vbar != v at tau = 0")
    records = []
    for v in vs:
        if mode == "pointsplit":
            vbar = v - args.vbar_offset
            z = _parsed("--V", delta_pointsplit, V, v, vbar, args.tau)
            records.append({"v": v, "delta_re": z.real, "delta_im": z.imag, "mode": mode, "vbar": vbar, "tau": args.tau})
        else:
            delta = _parsed("--V", delta_flanagan, V, v) if mode == "taylor" else _parsed("--V", delta_tau, V, v, args.tau)
            records.append({"v": v, "delta": delta, "mode": mode})
    _emit(args, resolved, list(records[0]), records, None)  # a grid has at least one v
    return EXIT_OK


def cmd_qi_bound(args, resolved: dict) -> int:
    support = _parse_floats(args.support, "--support", 2)
    if len(support) != 2:
        raise ValidationFailure("--support: expected lo,hi")
    # an error in the text names --rho, and a bad support names --support
    rho = _named("--support", _parsed, "--rho", WeightFunction.from_text, args.rho, (support[0], support[1]))
    spec = _spec_from(resolved)
    res = _parsed("--rho", qi_bound_rhs, rho, spec)
    _emit(
        args,
        resolved,
        ["bound", "error_estimate"],
        [{"bound": res.value, "error_estimate": res.error_estimate}],
        None,
    )
    return EXIT_OK


def cmd_selftest(args, resolved: dict) -> int:
    from . import selftest  # imported here, so that no other command pays for it
    ok = selftest.run_all(write=lambda line: sys.stdout.write(line + "\n"))
    return EXIT_OK if ok else 1


def _add_settings(p: argparse.ArgumentParser, *quadrature_flags: str):
    """Declare --format, --out and --config, then the given quadrature flags:
    the settings a subcommand reads."""

    def setting(flag, key, **kwargs):  # dest is the config key, type its default's
        p.add_argument(flag, dest=key, type=type(_DEFAULTS[key]), **kwargs)

    setting("--format", "output.format", choices=_FORMATS, help="output format")
    setting("--out", "output.path", metavar="OUT", help="output path, '-' for stdout")
    p.add_argument("--config", help="config file (overrides REGULAB_CONFIG)")
    for flag in quadrature_flags:
        setting(flag, _QUADRATURE_FLAGS[flag], metavar=flag[2:].upper().replace("-", "_"))


def _add_regulator(p: argparse.ArgumentParser):
    p.add_argument("--eps0", type=float, help="time split")
    p.add_argument("--eps1", type=float, help="space split")
    p.add_argument("--tau", type=float, help="frequency cutoff scale")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every main() call:
    parse_args keeps no state in it, and no caller may change it."""
    parser = argparse.ArgumentParser(
        prog="regulab",
        description="Point-split and mode-sum vacuum energy densities, and the "
        "order-of-limits behavior of their regulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("well-energy", help="density inside a static square well")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="barrier strength")
    p.add_argument("--a", type=float, required=True, help="well half-width")
    p.add_argument("--grid", required=True, help="x grid start:stop:count")
    _add_regulator(p)
    p.add_argument("--path", default=None, help="limit path p0,p1,ptau[,c0,c1,ctau]")
    p.add_argument("--s-schedule", dest="s_schedule", default=None, help="decreasing s values")
    _add_settings(p, *_QUADRATURE_FLAGS)
    p.set_defaults(func=cmd_well_energy)

    p = sub.add_parser("step-energy", help="density after a sudden switch-on")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="step height")
    p.add_argument("--mass", type=float, required=True, help="field mass (> 0)")
    p.add_argument("--grid", required=True, help="t grid start:stop:count")
    _add_regulator(p)
    p.add_argument("--compare", action="store_true", help="also compute point-split and residual")
    _add_settings(p, *_QUADRATURE_FLAGS)
    p.set_defaults(func=cmd_step_energy)

    p = sub.add_parser("limit-scan", help="classify a regulator expression along a path")
    p.add_argument("--expr", required=True, help=" | ".join(_EXPRESSIONS))
    p.add_argument("--path", required=True, help="limit path p0,p1,ptau[,c0,c1,ctau]")
    p.add_argument("--s-schedule", dest="s_schedule", required=True, help="decreasing s values (>= 4)")
    p.add_argument("--lambda", dest="lam", type=float, help="strength for rstatic317/dterm616")
    p.add_argument("--V", help="map for flanagan-delta")
    p.add_argument("--v0", type=float, help="evaluation point for flanagan-delta")
    _add_settings(p)
    p.set_defaults(func=cmd_limit_scan)

    p = sub.add_parser("flanagan", help="conformal-map density differences")
    p.add_argument("--V", required=True, help="map V(v)")
    p.add_argument("--grid", required=True, help="v grid start:stop:count")
    p.add_argument("--mode", choices=("taylor", "tau_first", "pointsplit"), default="taylor")
    p.add_argument("--tau", type=float)
    p.add_argument("--vbar-offset", type=float, help="v - vbar in pointsplit mode")
    _add_settings(p)
    p.set_defaults(func=cmd_flanagan)

    p = sub.add_parser("qi-bound", help="weighted-average energy lower bound")
    p.add_argument("--rho", required=True, help="strictly positive weight rho(x)")
    p.add_argument("--support", required=True, help="lo,hi quadrature support")
    _add_settings(p, *_QUADRATURE_FLAGS)
    p.set_defaults(func=cmd_qi_bound)

    p = sub.add_parser("selftest", help="run oracle-vs-closed-form checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Turn ['--support', '-30,30'] into ['--support=-30,30'] so argparse does
    not mistake a leading-dash value (a number, or '-inf') for an option: any
    token after a long option that starts with a single '-', other than a
    lone '-' and '-h', is that option's value."""
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (
            a.startswith("--")
            and "=" not in a
            and len(nxt) > 1
            and nxt[0] == "-"
            and nxt[1] != "-"
            and nxt != "-h"
        ):
            out.append(a + "=" + nxt)
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_merge_negative_values(argv))
    try:
        _apply_mode(args)
        resolved = _resolve(args)
        return args.func(args, resolved)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
