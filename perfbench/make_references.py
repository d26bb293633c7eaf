"""Record the benchmark's reference values with the current library.

    python3 perfbench/make_references.py

Writes perfbench/references.json: the certified bounds and support flags
of the three README `bounds` calls, the exhaustive product-strategy sweeps,
the README `feasibility` result, and a table of INSTANCES (32, set in
workloads.py) code and simulator instances with their exact
decode-failure probabilities and exact simulator distances.  Workload
seed s uses instance s % 32.  Run it only at a commit whose results are
trusted; the benchmark reads the file and never recomputes a reference
with the code it measures.  Instance 0 is the default workload seed and
instance 31 the held-out one, kept out of development so that a claimed
gain can be confirmed on it.  Takes about seven minutes on a 2-core Xeon.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from otmbench import cli, f2codes, protocol  # noqa: E402

import workloads as W  # noqa: E402


def _cli_result(argv, out=None):
    code, text = W.cli_call(cli, argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return json.loads(out.read_text() if out else text)["result"]


def _sweep(m):
    rep = protocol.leakage_experiment(m, exhaustive=True)
    rows = np.array([[r.ic_b0, r.ic_b1, r.total, r.cond_b0, r.cond_b1] for r in rep.reports])
    stride = max(1, len(rows) // 81)
    return {"count": len(rows), "worst": dict(rep.worst), "all_ok": rep.all_ok,
            "stride": stride, "sample": rows[::stride].tolist(),
            "sums": rows.sum(axis=0).tolist()}


def _simulator(n, k, seed, messages):
    rep = protocol.simulator_transcript(
        np.array(messages[0:1], dtype=np.uint8), np.array(messages[1:2], dtype=np.uint8),
        protocol.ProtocolParams(n=n, lam=8, k=k), adversary_strategy=[0.0] * n, seed=seed)
    return {"exact_sd": rep.exact_sd, "min_entropy_c1": rep.min_entropy_c1,
            "lhl_bound": rep.lhl_bound}


def _instance(rng, outdir):
    s = [int(x) for x in rng.integers(0, 2**31, size=6)]
    inst = {"otm_codes": s[0:2], "code_seed": s[2], "sim_seed": s[3],
            "sim_messages": [int(b) for b in rng.integers(0, 2, size=2)]}
    inst["otm_exact"] = [
        f2codes.exact_failure_prob(f2codes.random_code(W.OTM["n"], W.OTM["k"], c), W.CHANNEL_P)
        for c in inst["otm_codes"]]
    inst["exact"] = {
        W.sim_key(*size.exact_code): f2codes.exact_failure_prob(
            f2codes.random_code(*size.exact_code, inst["code_seed"]), W.CHANNEL_P)
        for size in (W.FULL, W.TINY)}
    inst["sim"] = {W.sim_key(*size.sim): _simulator(*size.sim, inst["sim_seed"],
                                                   inst["sim_messages"])
                   for size in (W.FULL, W.TINY)}
    out = outdir / "references-sim1.json"
    r = _cli_result(W.sim1_argv(1, s[4], out), out)
    inst["sim1"] = {"seed": s[4], "exact_failure": r["statistics"]["exact_failure"]}
    r = _cli_result(W.sim2_argv(1, s[5]))
    inst["sim2"] = {"seed": s[5], "exact_failure": r["statistics"]["exact_failure"],
                    **{f: r["simulator"][f] for f in ("exact_sd", "min_entropy_c1", "lhl_bound")}}
    return inst


def main() -> int:
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    refs = {"channel_p": W.CHANNEL_P}
    refs["certify"] = {}
    for q in ("greater", "total", "conditional"):
        r = _cli_result(W.bounds_argv(q))
        refs["certify"][q] = {f: r[f] for f in ("raw_max", "corrected_bound", "supports",
                                                "complete")}
    refs["sweep"] = {str(m): _sweep(m) for m in sorted({W.FULL.sweep_m, W.TINY.sweep_m})}
    refs["feasibility"] = _cli_result(W.FEASIBILITY_ARGV)
    rng = np.random.default_rng(20261017)
    refs["instances"] = []
    for i in range(W.INSTANCES):
        refs["instances"].append(_instance(rng, outdir))
        print(f"instance {i} done", file=sys.stderr, flush=True)
    with open(HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
