"""Per-layer metrics of a traced run, one layer per otmbench module.

Times and counts are per pass: totals over the traced passes divided by the
number of traced passes.  ``<name>_us`` is the median wall time of one call
of that name, its child spans included.  Job-level figures (``bound_s``,
``reads_per_s`` and the rest) come from the untraced passes of the same
run, as medians over passes.  Counts come from spans, from public report
fields and from input sizes.  A layer or job a workload does not exercise
reports 0.  ``errors`` counts exceptions that left the layer during the
whole traced part of the run.
"""

from __future__ import annotations

import statistics

import numpy as np

import workloads as W

LAYERS = ("povmsearch", "f2codes", "protocol", "qrac", "seeds", "collinfo",
          "lightcone", "cli")

# (name, unit, better); the arrow in the comment is the end-to-end figure
# each group should move, and on which workload.
JOB_METRICS = [
    ("bound_s", "s", "lower"),                  # certify: seconds per README bounds call
    ("kernel_calls_per_s", "1/s", "higher"),    # certify: criterion-6 kernel loop
    ("reads_per_s", "1/s", "higher"),           # montecarlo: otm_prep + otm_read round trips
    ("mc_reads_per_s", "1/s", "higher"),        # montecarlo: reads inside mc_correctness
    ("mc_decodes_per_s", "1/s", "higher"),      # montecarlo: mc_failure_prob trials
    ("exact_failure_s", "s", "lower"),          # exact
    ("simulator_s", "s", "lower"),              # exact
    ("sweep_s", "s", "lower"),                  # exact
    ("lightcone_s", "s", "lower"),              # exact
]
LAYER_SPECIFIC = [
    # povmsearch -> bound_s, kernel_calls_per_s on certify
    ("povmsearch.search_bounds.greater_s", "s", "lower"),
    ("povmsearch.search_bounds.total_s", "s", "lower"),
    ("povmsearch.search_bounds.conditional_s", "s", "lower"),
    ("povmsearch.slice_cells", "count", "lower"),
    ("povmsearch.cells_visited", "count", "lower"),
    ("povmsearch.flat_cells", "count", "higher"),
    ("povmsearch.net_prune_ratio", "ratio", "lower"),
    ("povmsearch.cert_gap.greater", "bit", "lower"),
    ("povmsearch.cert_gap.total", "bit", "lower"),
    ("povmsearch.cert_gap.conditional", "bit", "lower"),
    ("povmsearch.Povm_us", "us", "lower"),
    ("povmsearch.quantity_value_us", "us", "lower"),
    ("povmsearch.corner_corrected_value_us", "us", "lower"),
    # f2codes -> exact_failure_s on exact; mc_decodes_per_s, reads on montecarlo
    ("f2codes.exact_failure_prob_s", "s", "lower"),
    ("f2codes.error_patterns", "count", "lower"),
    ("f2codes.ns_per_pattern", "ns", "lower"),
    ("f2codes.mc_failure_prob_s", "s", "lower"),
    ("f2codes.ml_decode_calls", "count", "lower"),
    ("f2codes.ml_decode_us", "us", "lower"),
    ("f2codes.encode_per_read", "ratio", "lower"),
    ("f2codes.random_code_s", "s", "lower"),
    # protocol -> reads on montecarlo; simulator_s, sweep_s, peak_rss_mb on exact
    ("protocol.otm_prep_us", "us", "lower"),
    ("protocol.otm_read_us", "us", "lower"),
    ("protocol.otrm_prep_us", "us", "lower"),
    ("protocol.otrm_read_us", "us", "lower"),
    ("protocol.reads", "count", "higher"),
    ("protocol.simulator_transcript_s", "s", "lower"),
    ("protocol.extractor_applies", "count", "lower"),
    ("protocol.sim_cells", "count", "higher"),
    ("protocol.leakage_experiment_s", "s", "lower"),
    ("protocol.strategies", "count", "higher"),
    # qrac -> reads_per_s, mc_reads_per_s on montecarlo
    ("qrac.calls_per_read", "ratio", "lower"),
    ("qrac.sample_measurement_us", "us", "lower"),
    # collinfo -> sweep_s, simulator_s on exact
    ("collinfo.JointDistribution_us", "us", "lower"),
    ("collinfo.JointDistribution_calls", "count", "lower"),
    ("collinfo.table_cells", "count", "lower"),
    ("collinfo.mi_calls", "count", "lower"),
    ("collinfo.from_csv_s", "s", "lower"),
    # lightcone -> lightcone_s on exact
    ("lightcone.build_partition_s", "s", "lower"),
    ("lightcone.certify_independence_s", "s", "lower"),
    ("lightcone.cells_per_s", "1/s", "higher"),
    # whole process -> pass_s everywhere
    ("process.cpu_per_wall", "ratio", "lower"),
    ("python.gc_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
PER_LAYER = (
    JOB_METRICS
    + [(f"{layer}.{what}", unit, "lower") for layer in LAYERS
       for what, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))]
    + LAYER_SPECIFIC
)


def _sim_cells(args, kwargs, result):
    """Cells of the simulator's dense view table, w^2 * n_out * 4^msg with
    w = 2^(n + msg - 1), from the call's inputs."""
    params = args[2] if len(args) > 2 else kwargs["params"]
    strategy = kwargs.get("adversary_strategy", args[3] if len(args) > 3 else None) or []
    n_out = 1
    for entry in strategy:
        n_out *= len(entry.elements) if hasattr(entry, "elements") else 2
    msg = params.msg_len
    w = 2 ** (params.n + msg - 1) if msg else 1
    return w * w * n_out * 4 ** msg


# sizes recorded with each call, from the call's inputs or public report fields
HOOKS = {
    "f2codes.exact_failure_prob": lambda a, k, r: 2.0 ** (a[0] if a else k["code"]).n,
    "lightcone.build_partition": lambda a, k, r: (a[0] if a else k["grid"]).n,
    "collinfo.JointDistribution.__init__": lambda a, k, r: a[0].table.size,
    "protocol.simulator_transcript": _sim_cells,
    "protocol.leakage_experiment": lambda a, k, r: len(getattr(r, "reports", (r,))),
}


def job_metrics(passes: list, sizes: W.Sizes) -> dict:
    """Job-level figures, medians over untraced passes (0 when not run)."""
    def med(fn, *jobs):
        if not all(j in passes[0].times for j in jobs):
            return 0.0
        return statistics.median(fn(*(p.times[j] for j in jobs)) for p in passes)

    bounds = [t for p in passes for name, t in p.times.items() if name.startswith("bounds.")]
    return {
        "bound_s": statistics.median(bounds) if bounds else 0.0,
        "kernel_calls_per_s": med(lambda t: W.kernel_calls(sizes) / t, "kernel"),
        "reads_per_s": med(lambda t: sizes.roundtrips / t, "roundtrips"),
        "mc_reads_per_s": med(lambda t0, t1: 2 * sizes.mc_trials / (t0 + t1),
                              "mc_correctness.0", "mc_correctness.1"),
        "mc_decodes_per_s": med(lambda t: sizes.decode_trials / t, "mc_failure_prob"),
        "exact_failure_s": med(float, "exact_failure"),
        "simulator_s": med(float, "simulator"),
        "sweep_s": med(float, "sweep"),
        "lightcone_s": med(float, "lightcone"),
    }


class SpanStats:
    """Selections over the spans of the traced passes."""

    def __init__(self, tracer, job_names: list, setup_job: int, passes: int):
        self.a = tracer.arrays()
        self.layer_of = np.array(tracer.layer_of)
        self.ids: dict = {}
        for i, n in enumerate(tracer.names):
            self.ids.setdefault(n, []).append(i)
        self.job_names = job_names
        self.setup_job = setup_job
        self.passes = passes
        self.in_pass = (self.a["job"] >= 0) & (self.a["job"] != setup_job)

    def mask(self, name: str, job: str | None = None, setup: bool = False):
        m = np.isin(self.a["name"], self.ids.get(name, []))
        if setup:
            return m & (self.a["job"] == self.setup_job)
        m &= self.in_pass
        if job is not None:
            jid = self.job_names.index(job) if job in self.job_names else -2
            m &= self.a["job"] == jid
        return m

    def total(self, name, field="dur", **kw) -> float:
        return float(self.a[field][self.mask(name, **kw)].sum()) / self.passes

    def count(self, name, **kw) -> float:
        return float(self.mask(name, **kw).sum()) / self.passes

    def median_us(self, name) -> float:
        d = self.a["dur"][self.mask(name)]
        return float(np.median(d)) * 1e6 if d.size else 0.0

    def layer_mask(self, layer):
        return (self.layer_of[self.a["name"]] == layer) & self.in_pass

    def under(self, ancestor: str, name: str):
        """Spans of ``name`` that run inside a span of ``ancestor``."""
        parent = self.a["parent"]
        inside = self.mask(ancestor)
        has_parent = parent >= 0
        while True:
            grown = inside.copy()
            grown[has_parent] |= inside[parent[has_parent]]
            if np.array_equal(grown, inside):
                break
            inside = grown
        return inside & self.mask(name)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats, tracer, sizes: W.Sizes, bound_results: dict) -> dict:
    """Per-layer figures of the traced passes; ``bound_results`` maps each
    quantity run to its README bounds result."""
    s = stats
    out = {}
    for layer in LAYERS:
        m = s.layer_mask(layer)
        out[f"{layer}.self_s"] = float(s.a["self"][m].sum()) / s.passes
        out[f"{layer}.calls"] = float(m.sum()) / s.passes
        out[f"{layer}.errors"] = float(tracer.errors[layer])

    for q in ("greater", "total", "conditional"):
        out[f"povmsearch.search_bounds.{q}_s"] = s.total(
            "povmsearch.search_bounds", job=f"bounds.{q}")
        r = bound_results.get(q)
        out[f"povmsearch.cert_gap.{q}"] = r["corrected_bound"] - r["raw_max"] if r else 0.0
    for field in ("slice_cells", "cells_visited", "flat_cells"):
        out[f"povmsearch.{field}"] = float(sum(r[field] for r in bound_results.values()))
    out["povmsearch.net_prune_ratio"] = _ratio(out["povmsearch.cells_visited"],
                                               out["povmsearch.flat_cells"])
    out["povmsearch.Povm_us"] = s.median_us("povmsearch.Povm.from_coords")
    out["povmsearch.quantity_value_us"] = s.median_us("povmsearch.quantity_value")
    out["povmsearch.corner_corrected_value_us"] = s.median_us(
        "povmsearch.corner_corrected_value")

    out["f2codes.exact_failure_prob_s"] = s.total("f2codes.exact_failure_prob")
    out["f2codes.error_patterns"] = s.total("f2codes.exact_failure_prob", field="value")
    out["f2codes.ns_per_pattern"] = 1e9 * _ratio(out["f2codes.exact_failure_prob_s"],
                                                 out["f2codes.error_patterns"])
    out["f2codes.mc_failure_prob_s"] = s.total("f2codes.mc_failure_prob")
    out["f2codes.ml_decode_calls"] = s.count("f2codes.ml_decode")
    out["f2codes.ml_decode_us"] = s.median_us("f2codes.ml_decode")
    trips = sizes.roundtrips if "roundtrips" in s.job_names else 0
    out["f2codes.encode_per_read"] = _ratio(s.count("f2codes.encode", job="roundtrips"), trips)
    out["f2codes.random_code_s"] = float(
        s.a["dur"][s.mask("f2codes.random_code", setup=True)].sum())

    for fn in ("otm_prep", "otm_read", "otrm_prep", "otrm_read"):
        out[f"protocol.{fn}_us"] = s.median_us(f"protocol.{fn}")
    out["protocol.simulator_transcript_s"] = s.total("protocol.simulator_transcript")
    out["protocol.extractor_applies"] = float(
        s.under("protocol.simulator_transcript", "protocol.Extractor.apply").sum()) / s.passes
    out["protocol.sim_cells"] = s.total("protocol.simulator_transcript", field="value")
    out["protocol.leakage_experiment_s"] = s.total("protocol.leakage_experiment")
    out["protocol.strategies"] = s.total("protocol.leakage_experiment", field="value")

    qrac_in_trips = s.layer_mask("qrac") & (s.a["job"] == (
        s.job_names.index("roundtrips") if trips else -2))
    out["qrac.calls_per_read"] = _ratio(float(qrac_in_trips.sum()) / s.passes, trips)
    out["qrac.sample_measurement_us"] = s.median_us("qrac.sample_measurement")

    out["collinfo.JointDistribution_us"] = s.median_us("collinfo.JointDistribution.__init__")
    out["collinfo.JointDistribution_calls"] = s.count("collinfo.JointDistribution.__init__")
    out["collinfo.table_cells"] = s.total("collinfo.JointDistribution.__init__", field="value")
    out["collinfo.mi_calls"] = (s.count("collinfo.collision_mi")
                                + s.count("collinfo.conditional_collision_mi"))
    out["collinfo.from_csv_s"] = s.total("collinfo.JointDistribution.from_csv")

    build = s.total("lightcone.build_partition")
    certify = s.total("lightcone.certify_independence")
    out["lightcone.build_partition_s"] = build
    out["lightcone.certify_independence_s"] = certify
    out["lightcone.cells_per_s"] = _ratio(
        s.total("lightcone.build_partition", field="value"), build + certify)
    return out
