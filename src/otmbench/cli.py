"""Command-line entry point for the workbench.

Subcommands map one-to-one onto the library: bounds (measurement bound
search), simulate (protocol Monte-Carlo and a read transcript),
feasibility (locality parameter solving), entropy (collision-entropy
figures for a distribution file), leakage (exact product-strategy
experiments, CSV), and qrac-table (the encoding success table).

Structured reports are JSON objects {"config", "result", "meta"}; the
meta block holds the timestamp so that re-running a config reproduces
the config and result bytes exactly.  Exit codes: 0 success, 2 invariant
violation, 3 resource budget exceeded, 4 bad input.  On every exit 3
bounds writes its partial report, whose corrected_bound already holds
for every measurement and whose frontier_bound is null; every other
subcommand writes only its stderr line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone

from . import collinfo, lightcone, povmsearch, protocol
from .errors import InvariantViolationError, ResourceLimitError
from .qrac import qrac_success_table
from .seeds import _coin_bits, derive_seed

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_RESOURCE = 3
EXIT_INPUT = 4


class _CliError(Exception):
    """Bad flags or malformed input files; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def parse_eps(text: str) -> float:
    """Accept plain floats and power notation like 2^-20."""
    text = text.strip()
    base, caret, exp = text.partition("^")
    try:
        value = float(base) ** float(exp) if caret else float(text)
    except (ValueError, ArithmeticError) as e:   # 10^400 overflows, 0^-1 divides by 0
        raise _CliError(f"bad epsilon {text!r}") from e
    if isinstance(value, complex):               # a negative base to a fractional power
        raise _CliError(f"bad epsilon {text!r}: not a real number")
    return value


def _parse_angles(text: str, what: str = "strategy") -> list:
    """Comma-separated radians; mu0/mu1/mid name the standard bases.  A
    text that lists none is refused, naming what it was given as."""
    named = {"mu0": 0.0, "mid": math.pi / 8, "mu1": math.pi / 4}
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part in named:
            out.append(named[part])
            continue
        try:
            value = float(part)
        except ValueError as e:
            raise _CliError(f"bad angle {part!r}") from e
        if not math.isfinite(value):
            raise _CliError(f"bad angle {part!r}")
        out.append(value)
    if not out:
        raise _CliError(f"{what} lists no angles")
    return out


def build_parser() -> _Parser:
    p = _Parser(prog="otmbench", description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the report to this file instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="certified measurement leakage bounds")
    b.add_argument("--quantity", choices=povmsearch.QUANTITIES, default="greater")
    b.add_argument("--coarse", type=float, default=0.05)
    b.add_argument("--fine", type=float, default=0.005)
    b.add_argument("--time-budget", type=float, default=None, help="seconds")

    s = sub.add_parser("simulate", help="protocol reads and Monte-Carlo statistics")
    s.add_argument("--n", type=int, required=True)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--k", type=int)
    g.add_argument("--rate", type=float)
    s.add_argument("--lam", type=int, default=8, help="security parameter (multiple of 8)")
    s.add_argument("--alpha", type=int, choices=(0, 1), default=0)
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--strategy", default=None,
                   help="per-qubit angles for an exact simulator comparison "
                        "(comma list or mu0/mid/mu1; one angle on every qubit at "
                        "lam = 8 reaches n + 2k <= 20)")

    f = sub.add_parser("feasibility", help="solve for locality parameters")
    f.add_argument("--D", type=int, required=True)
    f.add_argument("--ell", type=int, required=True)
    f.add_argument("--d", type=int, required=True, help="circuit depth")
    f.add_argument("--eps1", type=parse_eps, required=True)
    f.add_argument("--eps2", type=parse_eps, required=True)

    e = sub.add_parser("entropy", help="collision-entropy figures from a distribution file")
    e.add_argument("--in", dest="infile", required=True,
                   help="CSV (header then v1,...,vk,prob rows) or JSON")
    e.add_argument("--mi", nargs=2, metavar=("X", "Y"),
                   help="collision MI between two variables")
    e.add_argument("--given", nargs="+", default=None,
                   help="conditioning variables for --mi or --entropy")
    e.add_argument("--entropy", metavar="X", default=None,
                   help="collision entropy of one variable")

    l = sub.add_parser("leakage", help="exact product-strategy leakage (CSV)")
    l.add_argument("--m", type=int, required=True)
    l.add_argument("--exhaustive", action="store_true")
    l.add_argument("--angles", default=None,
                   help="grid for the exhaustive sweep (comma list)")
    l.add_argument("--strategy", default=None,
                   help="one strategy: comma list of per-qubit angles")

    sub.add_parser("qrac-table", help="the eight encoding success probabilities")
    return p


def _emit(args, payload: str):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as e:
            raise _CliError(f"cannot write {args.out}: {e}") from e
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _json_report(args, result, error=None, meta_extra=None) -> str:
    meta = {"timestamp": datetime.now(timezone.utc).isoformat()}
    if meta_extra:
        meta.update(meta_extra)
    # a non-finite flag (--time-budget inf) is echoed as text: JSON has no number for it
    config = {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in sorted(vars(args).items()) if k != "out"}
    doc = {"config": config, "result": result, "meta": meta}
    if error is not None:
        doc["error"] = error
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _run_bounds(args):
    code, error = EXIT_OK, None
    try:
        rep = povmsearch.search_bounds(
            eps_coarse=args.coarse,
            eps_fine=args.fine,
            quantity=args.quantity,
            time_budget=args.time_budget,
        )
    except ResourceLimitError as e:                  # every one carries a partial report
        rep, code, error = e.partial, EXIT_RESOURCE, {"type": "resource", "message": str(e)}
    _emit(args, _json_report(args, rep.as_dict(), error=error,
                             meta_extra={"elapsed_s": rep.elapsed_s}))
    return code


def _run_simulate(args):
    params = protocol.ProtocolParams(n=args.n, k=args.k, rate=args.rate, lam=args.lam)
    (m0,), (m1,) = _coin_bits(*((derive_seed(args.seed, label), (params.msg_len,))
                                for label in ("m0", "m1")))
    pkg = protocol.otm_prep(m0, m1, params, seed=derive_seed(args.seed, "pkg"))
    read = protocol.otm_read(pkg, args.alpha, derive_seed(args.seed, "read"))
    stats = protocol.mc_correctness(
        params, args.alpha, args.trials, derive_seed(args.seed, "mc"),
        codes=(pkg.instance.code0, pkg.instance.code1),
    )
    result = {
        "params": {"n": params.n, "k": params.k, "rate": params.rate,
                   "lam": params.lam, "msg_len": params.msg_len},
        "transcript": {
            "alpha": args.alpha,
            "message_in": (m0 if args.alpha == 0 else m1).tolist(),
            "message_out": read.message.tolist(),
            "word": read.inner.word.tolist(),
            "success": read.success,
        },
        "statistics": stats,
    }
    if args.strategy is not None:
        angles = _parse_angles(args.strategy)
        if len(angles) == 1:
            angles = angles * params.n
        sim = protocol.simulator_transcript(
            m0, m1, params, adversary_strategy=angles,
            seed=derive_seed(args.seed, "sim"),
        )
        result["simulator"] = dataclasses.asdict(sim)
    _emit(args, _json_report(args, result))
    return EXIT_OK


def _run_feasibility(args):
    w = lightcone.find_feasible_params(args.eps1, args.eps2, args.ell, args.d, args.D)
    result = {
        "D": w.D, "ell": w.ell, "depth": w.depth,
        "eps1": w.eps1, "eps2": w.eps2,
        "r": w.r, "side": w.side, "n": w.n, "cu_bar": w.cu_bar,
        "budget": {"lhs": w.eq1_lhs, "rhs": w.eq1_rhs,
                   "residual": w.eq1_rhs - w.eq1_lhs},
        "shell_floor": {"lhs": w.eq2_lhs, "rhs": w.eq2_rhs,
                        "residual": w.eq2_lhs - w.eq2_rhs},
    }
    _emit(args, _json_report(args, result))
    return EXIT_OK


def _load_distribution(path) -> collinfo.JointDistribution:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise _CliError(f"cannot read {path}: {e}") from e
    try:
        if path.endswith(".json"):
            return collinfo.JointDistribution.from_json(text)
        return collinfo.JointDistribution.from_csv(text)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        raise _CliError(f"malformed distribution file {path}: {e}") from e


def _distinct(*names):
    """One query's variables, each of which may be named once."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise _CliError(f"variable {name!r} is named twice in one query")


def _run_entropy(args):
    d = _load_distribution(args.infile)
    result = {"variables": list(d.names)}
    given = tuple(args.given or ())
    if args.mi:
        x, y = args.mi
        _distinct(x, y, *given)
        if given:
            result["conditional_collision_mi"] = collinfo.conditional_collision_mi(
                d, (x,), (y,), given
            )
        else:
            result["collision_mi"] = collinfo.collision_mi(d, (x,), (y,))
    if args.entropy:
        _distinct(args.entropy, *given)
        if given:
            result["conditional_collision_entropy"] = (
                collinfo.conditional_collision_entropy(d, (args.entropy,), given)
            )
        else:
            result["collision_entropy"] = collinfo.collision_entropy(d, (args.entropy,))
    if len(result) == 1:
        raise _CliError("give --mi or --entropy")
    _emit(args, _json_report(args, result))
    return EXIT_OK


def _run_leakage(args):
    if args.exhaustive and args.strategy is not None:
        raise _CliError("give --strategy or --exhaustive, not both")
    if args.angles is not None and not args.exhaustive:
        raise _CliError("--angles is the grid of --exhaustive; give it with --exhaustive")
    if args.exhaustive:
        angles = None if args.angles is None else _parse_angles(args.angles, "grid")
        sweep = protocol.leakage_experiment(args.m, exhaustive=True, angles=angles)
        reports = sweep.reports
    else:
        if args.strategy is None:
            raise _CliError("give --strategy or --exhaustive")
        angles = _parse_angles(args.strategy)
        if len(angles) != args.m:
            raise _CliError(f"strategy lists {len(angles)} angles, need {args.m}")
        reports = (protocol.leakage_experiment(args.m, strategy=angles),)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["strategy", "ic_b0", "ic_b1", "total", "cond_b0", "cond_b1",
                "lesser", "greater_ok", "total_ok", "conditional_ok"])
    for r in reports:
        w.writerow([
            ";".join(f"{a:.10g}" for a in r.strategy),
            f"{r.ic_b0:.12g}", f"{r.ic_b1:.12g}", f"{r.total:.12g}",
            f"{r.cond_b0:.12g}", f"{r.cond_b1:.12g}", r.lesser,
            int(r.bounds["greater"]["ok"]), int(r.bounds["total"]["ok"]),
            int(r.bounds["conditional"]["ok"]),
        ])
    _emit(args, buf.getvalue())
    return EXIT_OK


def _run_qrac_table(args):
    table = qrac_success_table()
    rows = [
        {"b0": b0, "b1": b1, "alpha": alpha, "p_success": p}
        for (b0, b1, alpha), p in sorted(table.items())
    ]
    _emit(args, _json_report(args, {"table": rows}))
    return EXIT_OK


_RUNNERS = {
    "bounds": _run_bounds,
    "simulate": _run_simulate,
    "feasibility": _run_feasibility,
    "entropy": _run_entropy,
    "leakage": _run_leakage,
    "qrac-table": _run_qrac_table,
}


@functools.cache
def _shared_parser() -> _Parser:
    """build_parser(), built on the first main call and kept for the
    process: no default is mutable and every parse makes a fresh Namespace,
    so one call's flags never reach the next."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return _RUNNERS[args.command](args)
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolationError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (_CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
