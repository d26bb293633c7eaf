"""End-to-end benchmark of otmbench: three workloads, checked results.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest      # all workloads at tiny sizes
    python3 perfbench/run.py --write-spec    # regenerate BENCHMARK.json

A run builds nothing: it imports otmbench from ``src/`` next to this
directory.  Each workload runs in its own process as a closed loop with one
client: a job starts only after the previous one returns.  The benchmark
starts no threads or processes; numpy keeps its default BLAS thread pool,
which the environment record reports.

Set-up (a fresh import of otmbench plus input generation) runs nine times;
the first is timed from process start.  Then passes over the job list run
until ``--seconds`` have elapsed (at least one).  With ``--trace 1`` the
first half of that time runs untraced passes and the second half traced
ones, after one traced set-up; per-layer figures come from the traced
passes, everything end to end from untraced ones.

Standard output ends with an environment line and then, as its last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  Span files
and CLI outputs go to ``perfbench/out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

import layers as L  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPS = 9
RUN_SECONDS = 24

WORKLOAD_WHY = {
    "certify": "README bounds calls plus the criterion-6 kernel loop: almost all povmsearch; "
               "f2codes, protocol and collinfo idle, so it is their no-change control",
    "montecarlo": "sampled reads at k=3 (per-read Python overhead) and k=10 (2^k decode), "
                  "so batched reads and a coset decoder each show here",
    "exact": "exhaustive [18,10] failure, simulator, product sweep and light cones; "
             "shares the [18,10] code with montecarlo and sets peak memory",
}
# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    # Below the weight of one failed operation, 1/attempted, in any run of
    # fewer than 10^6 operations (a montecarlo run attempts about 2*10^4).
    ("ok_rate", "share", "higher", 1e-6),
]


@dataclass
class Pass:
    times: dict = field(default_factory=dict)       # job name -> seconds
    verdicts: list = field(default_factory=list)    # one per operation
    digests: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)    # job name -> raw outcome
    cpu_s: float = 0.0
    gc_s: float = 0.0

    @property
    def wall(self) -> float:
        return sum(self.times.values())


class GcClock:
    """Seconds spent in the cyclic garbage collector, from gc.callbacks."""

    def __init__(self):
        self.total = 0.0
        self._t = 0.0
        gc.callbacks.append(self._cb)

    def _cb(self, phase, info):
        if phase == "start":
            self._t = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._t

    def close(self):
        gc.callbacks.remove(self._cb)


def fresh_import(layers):
    for name in [m for m in sys.modules if m == "otmbench" or m.startswith("otmbench.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"otmbench.{layer}") for layer in layers})


def run_pass(jobs, gclock, tracer=None, keep=False) -> Pass:
    p = Pass()
    for j, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = j
            tracer.active = True
        cpu, gc0, t = time.process_time(), gclock.total, time.perf_counter()
        try:
            outcome = job.run()
        except Exception as exc:
            outcome = exc
        p.times[job.name] = time.perf_counter() - t
        p.cpu_s += time.process_time() - cpu
        p.gc_s += gclock.total - gc0
        if tracer is not None:
            tracer.active = False                       # checks stay out of the spans
        p.verdicts.extend(W.check_job(job, outcome))
        p.digests.append(W.digest_of(job, outcome))
        if keep:
            p.outcomes[job.name] = outcome
    return p


def set_up(workload, seed, sizes, refs, outdir, t0):
    """Fresh import plus input generation, SETUP_REPS times; the first
    repetition is timed from ``t0`` when given.  Returns the last library,
    its inputs and jobs, and the set-up times."""
    make_inputs, make_jobs = W.WORKLOADS[workload]
    times = []
    for i in range(SETUP_REPS):
        if i:
            gc.collect()        # each repetition starts from a clean collector state
        t = t0 if i == 0 and t0 is not None else time.perf_counter()
        lib = fresh_import(L.LAYERS)
        inputs = make_inputs(lib, seed, sizes, refs, outdir)
        times.append(time.perf_counter() - t)
    return lib, inputs, make_jobs(lib, inputs, sizes, refs, outdir), times


def per_layer(sizes, jobs, untraced, traced, tracer) -> dict:
    """Per-layer metrics of a traced run."""
    job_names = [j.name for j in jobs]
    stats = L.SpanStats(tracer, job_names, len(jobs), len(traced))
    outcomes = untraced[0].outcomes
    bound_results = {
        name.split(".", 1)[1]: json.loads(outcome[1])["result"]
        for name, outcome in outcomes.items()
        if name.startswith("bounds.") and not isinstance(outcome, Exception)}
    metrics = L.job_metrics(untraced, sizes)
    metrics.update(L.layer_metrics(stats, tracer, sizes, bound_results))
    metrics["protocol.reads"] = W.reads_reported(outcomes)
    metrics["process.cpu_per_wall"] = (sum(p.cpu_s for p in untraced)
                                       / sum(p.wall for p in untraced))
    metrics["python.gc_s"] = statistics.fmean(p.gc_s for p in untraced)
    metrics["bench.self_s"] = statistics.fmean(p.wall for p in traced) - sum(
        metrics[f"{layer}.self_s"] for layer in L.LAYERS)
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                   - statistics.median(p.wall for p in untraced))
    return {name: (metrics[name], unit) for name, unit, _ in L.PER_LAYER}


def run_workload(workload, seed, seconds, trace, size="full", t0=None) -> tuple:
    """One benchmark run; returns (result object, details for the self-test)."""

    sizes = W.SIZES[size]
    with open(HERE / "references.json") as fh:
        refs = json.load(fh)
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    lib, inputs, jobs, setup_times = set_up(workload, seed, sizes, refs, outdir, t0)

    gclock = GcClock()
    start = time.perf_counter()
    untraced_end = start + (seconds / 2 if trace else seconds)
    untraced = [run_pass(jobs, gclock, keep=True)]
    # Peak memory through set-up and the first pass: later passes only add
    # heap fragmentation that depends on how many passes fit the time.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() < untraced_end:
        untraced.append(run_pass(jobs, gclock))
    problems = []
    traced, tracer = [], None
    if trace:
        tracer = spans.Tracer(vars(lib), L.HOOKS)
        tracer.install()
        tracer.job_id = len(jobs)
        make_inputs = W.WORKLOADS[workload][0]
        make_inputs(lib, seed, sizes, refs, outdir)        # traced set-up: random_code_s
        tracer.active = False
        traced = [run_pass(jobs, gclock, tracer)]
        while time.perf_counter() < start + seconds:
            traced.append(run_pass(jobs, gclock, tracer))
        tracer.remove()
        leftovers = tracer.leftovers()
        if leftovers:
            problems.append(f"trace wrappers left behind: {leftovers[:5]}")
        tracer.write(outdir / f"spans-{workload}.npz", [j.name for j in jobs] + ["setup"])
    gclock.close()

    for i, p in enumerate(untraced[1:] + traced):
        if p.digests != untraced[0].digests:
            problems.append(f"pass {i + 1} results differ from pass 0")
    all_passes = untraced + traced
    attempted = sum(len(p.verdicts) for p in all_passes)
    failures = [v for p in all_passes for v in p.verdicts if v is not None]

    if trace:
        metrics = per_layer(sizes, jobs, untraced, traced, tracer)
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(p.wall for p in untraced),
            "peak_rss_mb": peak_rss_mb,
            "ok_rate": 1.0 - len(failures) / attempted,
        }
        metrics = {name: (v, units[name]) for name, v in metrics.items()}

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    for reason in (problems + failures)[:10]:
        print(f"{workload}: {reason}", file=sys.stderr)
    details = {"untraced": untraced, "traced": traced, "jobs": jobs, "tracer": tracer,
               "problems": problems}
    return result, details


# -- environment record --------------------------------------------------------


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> dict:
    info = {"library": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        pass
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "blas" in ln.lower() and "/" in ln}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def environment(workload, seed, seconds, trace) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# -- BENCHMARK.json and the self-test -----------------------------------------


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in L.PER_LAYER],
    }


def _require(ok, message):
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def selftest(seed) -> int:
    """Run every workload at tiny sizes, untraced and traced, and check the
    harness itself: metric names, check coverage, trace fidelity, unwrap."""
    with open(SPEC) as fh:
        declared = json.load(fh)
    e2e = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    _require(declared == spec(), "BENCHMARK.json differs from the catalog in run.py")
    for workload in WORKLOAD_WHY:
        for trace in (0, 1):
            result, d = run_workload(workload, seed, 0, trace, size="tiny")
            names = list(result["metrics"])
            _require(names == (per_layer if trace else e2e),
                     f"{workload} trace={trace} printed {names}")
            want_ops = sum(job.ops for job in d["jobs"])
            for p in d["untraced"] + d["traced"]:
                _require(len(p.verdicts) == want_ops, f"{workload}: unchecked operations")
            _require(result["correct"] and result["failed"] == 0,
                     f"{workload} trace={trace}: {d['problems']}")
            if trace:
                _require(d["traced"] and d["traced"][0].digests == d["untraced"][0].digests,
                         f"{workload}: traced results differ from untraced")
                _require(not d["tracer"].leftovers(), f"{workload}: trace wrappers not removed")
                _require(len(d["tracer"].start) > 0, f"{workload}: no spans recorded")
            print(f"selftest {workload} trace={trace}: {result['attempted']} operations ok "
                  f"in {sum(p.wall for p in d['untraced'] + d['traced']):.1f}s")
    print("selftest ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "otmbench" / "__init__.py").is_file():
        print(f"error: no otmbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_spec:
        SPEC.write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.selftest:
        return selftest(args.seed)
    if args.workload is None:
        ap.error("give --workload, --selftest or --write-spec")
    result, _ = run_workload(args.workload, args.seed, args.seconds, args.trace, t0=T0)
    print(json.dumps({"env": environment(args.workload, args.seed, args.seconds, args.trace)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
