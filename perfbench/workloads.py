"""Inputs, jobs and correctness checks of the three benchmark workloads.

Every job calls otmbench only through the attributes of the freshly
imported modules in ``lib`` (so the tracer's wrappers see each call), and
only through the stable public surface: the README CLI invocations, the
public library functions and their default knobs.

A job's ``run`` does the timed work and returns its raw outcome.  Its
``check`` runs afterwards, outside the timed region, and returns one entry
per operation: ``None`` when the operation passed, otherwise the reason it
failed.  An exception inside ``run`` fails the operations it covers and the
run carries on.  ``digest`` reduces an outcome to plain data that must be
identical on every pass of a run, traced or not.

References come from ``references.json``, recorded at the commit that added
the benchmark (see make_references.py); a run never computes a reference
with the code under test.  Exact code and simulator instances are drawn
from the table there: a workload seed uses instance ``seed % INSTANCES``,
and every other random input (messages, Monte-Carlo seeds, kernel cells,
the entropy CSV) comes from the full seed.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
import io
import json
import math
from pathlib import Path
from typing import Any, Callable
import zlib

import numpy as np

CHANNEL_P = math.sin(math.pi / 8) ** 2       # flip rate seen by the matched basis
CLOSED_FORM_MAX = {                          # exact leakage maxima over all POVMs
    "greater": math.log2(3) - 1,
    "total": 2 * math.log2(1.25),
    "conditional": math.log2(3) - 1,
}
CELL_EPS = 0.05
OTM = {"n": 15, "k": 3, "lam": 8}            # criterion 11 round-trip size
CONE = {"ell": 2, "depth": 1, "r": 4}
SIGMAS = 4.0
# Rows of the reference instance table: workload seed s uses row s % INSTANCES.
# Seed 0 is the default; seed 31, the last row, is held out of development.
INSTANCES = 32


@dataclass(frozen=True)
class Sizes:
    quantities: tuple
    kernel_cells: int
    kernel_points: int
    roundtrips: int
    mc_trials: int
    decode_trials: int
    sim1_trials: int
    sim2_trials: int
    exact_code: tuple          # (n, k) of the code used exhaustively and sampled
    sim: tuple                 # (n, k) of simulator_transcript at lam = 8
    sweep_m: int
    grids: tuple               # (D, side) per light-cone partition


FULL = Sizes(
    quantities=("greater", "total", "conditional"),
    kernel_cells=100, kernel_points=30,
    roundtrips=4000, mc_trials=2000, decode_trials=50_000,
    sim1_trials=2000, sim2_trials=500,
    exact_code=(18, 10), sim=(7, 3), sweep_m=4,
    grids=((2, 768), (3, 96), (2, 96)),
)
TINY = Sizes(
    quantities=("greater",),
    kernel_cells=6, kernel_points=10,
    roundtrips=60, mc_trials=60, decode_trials=2000,
    sim1_trials=60, sim2_trials=60,
    exact_code=(12, 6), sim=(5, 2), sweep_m=2,
    grids=((2, 192), (2, 48)),
)
SIZES = {"full": FULL, "tiny": TINY}


def bounds_argv(quantity):
    return ["bounds", "--quantity", quantity, "--coarse", "0.05", "--fine", "0.005"]


def sim1_argv(trials, seed, out):
    return ["--out", str(out), "simulate", "--n", "15", "--rate", "0.2",
            "--alpha", "1", "--trials", str(trials), "--seed", str(seed)]


def sim2_argv(trials, seed):
    return ["simulate", "--n", "6", "--k", "2", "--trials", str(trials),
            "--strategy", "mu0", "--seed", str(seed)]


FEASIBILITY_ARGV = ["feasibility", "--D", "2", "--ell", "2", "--d", "2",
                    "--eps1", "2^-20", "--eps2", "2^-20"]


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Input stream of one workload seed, independent per label."""
    return np.random.default_rng([seed % 2**64, zlib.crc32(label.encode())])


def sim_key(n, k) -> str:
    return f"{n},{k}"


def cli_call(cli, argv) -> tuple:
    """Run ``otmbench argv`` through ``cli.main`` in-process; returns
    (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@dataclass
class Job:
    name: str
    ops: int                                   # operations the check reports on
    run: Callable[[], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], Any]


def _fail_all(job: Job, exc: BaseException) -> list:
    return [f"{type(exc).__name__}: {exc}"] * job.ops


def check_job(job: Job, outcome) -> list:
    """Per-operation verdicts; an exception from run fails every operation."""
    if isinstance(outcome, Exception):
        return _fail_all(job, outcome)
    try:
        verdicts = job.check(outcome)
    except Exception as exc:                   # a check that cannot read the outcome
        return _fail_all(job, exc)
    if len(verdicts) != job.ops:
        return [f"check reported {len(verdicts)} of {job.ops} operations"] * job.ops
    return verdicts


def digest_of(job: Job, outcome):
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    try:
        return job.digest(outcome)
    except Exception as exc:
        return f"digest failed: {exc}"


def _within(value, ref, tol) -> bool:
    return value is not None and abs(float(value) - float(ref)) <= tol


def _rate_ok(failures: int, trials: int, exact: float) -> bool:
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    return abs(failures / trials - exact) <= SIGMAS * sigma


def _verdict(ok: bool, reason: str):
    return None if ok else reason


def _plain(items: list) -> list:
    """Per-operation outcomes with exceptions replaced by comparable text."""
    return [repr(x) if isinstance(x, Exception) else x for x in items]


# ---------------------------------------------------------------------------
# certify


def _cell_bases(eps: float) -> np.ndarray:
    """Bases (a, b, c) of eps-grid cells whose 8 corners are valid 2-outcome
    POVM leading elements, the cell family of acceptance criterion 6."""
    steps = np.arange(int(round(1 / eps)) + 1) * eps
    bsteps = np.arange(int(round(1 / eps)) + 1) * eps - 0.5
    a, b, c = np.meshgrid(steps, bsteps, steps, indexing="ij")
    pts = np.stack([a.ravel(), b.ravel(), c.ravel()], axis=-1)
    ok = np.ones(len(pts), dtype=bool)
    for da, db, dc in np.ndindex(2, 2, 2):
        ca, cb, cc = pts[:, 0] + da * eps, pts[:, 1] + db * eps, pts[:, 2] + dc * eps
        ok &= cb * cb <= ca * cc + 1e-15
        ok &= cb * cb <= (1 - ca) * (1 - cc) + 1e-15
        ok &= (ca <= 1 + 1e-12) & (cc <= 1 + 1e-12)
    return pts[ok]


def certify_inputs(lib, seed: int, sizes: Sizes, refs: dict, outdir: Path) -> dict:
    rng = rng_for(seed, "kernel")
    bases = _cell_bases(CELL_EPS)
    picks = bases[rng.choice(len(bases), size=sizes.kernel_cells, replace=False)]
    points = picks[:, None, :] + rng.uniform(
        0.0, CELL_EPS, size=(sizes.kernel_cells, sizes.kernel_points, 3))
    return {"bases": picks, "points": points}


def _two_outcome(row):
    return [row, (1 - row[0], -row[1], 1 - row[2])]


def certify_jobs(lib, inputs: dict, sizes: Sizes, refs: dict, outdir: Path) -> list:
    povmsearch = lib.povmsearch
    bases, points = inputs["bases"], inputs["points"]
    jobs = []
    for q in sizes.quantities:
        ref = refs["certify"][q]

        def check(outcome, q=q, ref=ref):
            code, text = outcome
            if code != 0:
                return [f"bounds {q} exited {code}"]
            r = json.loads(text)["result"]
            lo = CLOSED_FORM_MAX[q] - 1e-12
            ok = lo <= r["raw_max"] <= r["corrected_bound"] <= ref["corrected_bound"] + 1e-12
            ok &= r["supports"] == ref["supports"] and r["complete"] is True
            return [_verdict(ok, f"bounds {q}: {r['raw_max']}, {r['corrected_bound']}, "
                                 f"{r['supports']} against {ref}")]

        jobs.append(Job(
            name=f"bounds.{q}", ops=1,
            run=lambda q=q: cli_call(lib.cli, bounds_argv(q)),
            check=check,
            digest=lambda o: (o[0], json.loads(o[1])["result"]),
        ))

    quantities = tuple(povmsearch.QUANTITIES)

    def kernel():
        out = []
        for i, base in enumerate(bases):
            q = quantities[i % len(quantities)]
            try:
                cell = povmsearch.Povm.from_coords(_two_outcome(base))
                bound = povmsearch.corner_corrected_value(cell, CELL_EPS, q)
                vals = [povmsearch.quantity_value(
                    povmsearch.Povm.from_coords(_two_outcome(pt)), q) for pt in points[i]]
                out.append((q, bound, vals))
            except Exception as exc:
                out.append(exc)
        return out

    def kernel_check(outcome):
        verdicts = []
        for i, cell in enumerate(outcome):
            if isinstance(cell, Exception):
                verdicts.append(f"cell {i}: {type(cell).__name__}: {cell}")
                continue
            q, bound, vals = cell
            bad = [v for v in vals if v > bound + 1e-12]
            # the fast path against the joint-distribution route, 1 point in 50
            for j in range(len(vals)):
                if (i * len(vals) + j) % 50:
                    continue
                p = povmsearch.Povm.from_coords(_two_outcome(points[i][j]))
                slow = povmsearch.value_from_info(povmsearch.eval_povm_info(p), q)
                if abs(slow - vals[j]) > 1e-10:
                    bad.append(vals[j])
            verdicts.append(_verdict(not bad, f"cell {i} ({q}): bound {bound}, bad {bad}"))
        return verdicts

    jobs.append(Job(
        name="kernel", ops=len(bases), run=kernel, check=kernel_check,
        digest=_plain,
    ))
    return jobs


def kernel_calls(sizes: Sizes) -> int:
    """corner_corrected_value plus Povm.from_coords plus quantity_value calls."""
    return sizes.kernel_cells * (2 + 2 * sizes.kernel_points)


# ---------------------------------------------------------------------------
# montecarlo


def _instance(refs: dict, seed: int) -> dict:
    return refs["instances"][seed % INSTANCES]


def montecarlo_inputs(lib, seed: int, sizes: Sizes, refs: dict, outdir: Path) -> dict:
    f2codes, protocol = lib.f2codes, lib.protocol
    inst = _instance(refs, seed)
    n, k = sizes.exact_code
    rng = rng_for(seed, "roundtrips")
    count = sizes.roundtrips
    return {
        "inst": inst,
        "params": protocol.ProtocolParams(n=OTM["n"], lam=OTM["lam"], k=OTM["k"]),
        "codes": tuple(f2codes.random_code(OTM["n"], OTM["k"], s) for s in inst["otm_codes"]),
        "code": f2codes.random_code(n, k, inst["code_seed"]),
        "m0": rng.integers(0, 2, size=(count, 1), dtype=np.uint8),
        "m1": rng.integers(0, 2, size=(count, 1), dtype=np.uint8),
        "alpha": np.arange(count) % 2,
        "prep_seeds": rng.integers(0, 2**62, size=count).tolist(),
        "read_seeds": rng.integers(0, 2**62, size=count).tolist(),
        "mc_seeds": rng_for(seed, "mc").integers(0, 2**62, size=3).tolist(),
        "sim1_out": outdir / f"run-{seed}.json",
    }


def reads_reported(outcomes: dict) -> int:
    """Reads one montecarlo pass made, from its outcomes and their public
    report fields: one per round trip, ``trials`` of each mc_correctness
    call, and the transcript read plus ``statistics.trials`` of each README
    simulate invocation.  A job that raised reports none."""
    reads = 0
    for name, outcome in outcomes.items():
        if isinstance(outcome, Exception):
            continue
        if name == "roundtrips":
            reads += len(outcome)
        elif name.startswith("mc_correctness."):
            reads += outcome["trials"]
        elif name.startswith("cli.simulate.") and outcome[0] == 0:
            reads += 1 + json.loads(outcome[1])["result"]["statistics"]["trials"]
    return reads


def montecarlo_jobs(lib, inputs: dict, sizes: Sizes, refs: dict, outdir: Path) -> list:
    protocol, f2codes = lib.protocol, lib.f2codes
    inst, params, codes = inputs["inst"], inputs["params"], inputs["codes"]
    m0s, m1s, alphas = inputs["m0"], inputs["m1"], inputs["alpha"]
    prep_seeds, read_seeds = inputs["prep_seeds"], inputs["read_seeds"]
    exact_otm = inst["otm_exact"]
    exact_code = inst["exact"][sim_key(*sizes.exact_code)]

    def roundtrips():
        out = []
        for t in range(len(alphas)):
            try:
                pkg = protocol.otm_prep(m0s[t], m1s[t], params, seed=prep_seeds[t], codes=codes)
                res = protocol.otm_read(pkg, int(alphas[t]), seed=read_seeds[t])
                out.append((res.inner.success, res.message))
            except Exception as exc:
                out.append(exc)
        return out

    def roundtrip_check(outcome):
        verdicts = []
        failures = [0, 0]
        for t, res in enumerate(outcome):
            if isinstance(res, Exception):
                verdicts.append(f"read {t}: {type(res).__name__}: {res}")
                continue
            success, message = res
            alpha = int(alphas[t])
            want = m0s[t] if alpha == 0 else m1s[t]
            failures[alpha] += not success
            verdicts.append(_verdict(not success or np.array_equal(message, want),
                                     f"read {t}: decode succeeded but message differs"))
        for alpha in (0, 1):
            trials = int(np.sum(alphas == alpha))
            verdicts.append(_verdict(_rate_ok(failures[alpha], trials, exact_otm[alpha]),
                                     f"alpha {alpha}: {failures[alpha]} failures in {trials}"))
        return verdicts

    def roundtrip_digest(outcome):
        return _plain([r if isinstance(r, Exception) else (r[0], r[1].tolist())
                       for r in outcome])

    jobs = [Job("roundtrips", len(alphas) + 2, roundtrips, roundtrip_check, roundtrip_digest)]

    for alpha in (0, 1):
        def mc_check(stats, alpha=alpha):
            ok = stats["trials"] == sizes.mc_trials
            ok &= _within(stats["exact_failure"], exact_otm[alpha], 1e-12)
            ok &= _rate_ok(stats["failures"], sizes.mc_trials, exact_otm[alpha])
            return [_verdict(ok, f"mc_correctness alpha {alpha}: {stats}")]

        jobs.append(Job(
            f"mc_correctness.{alpha}", 1,
            lambda alpha=alpha: protocol.mc_correctness(
                params, alpha, sizes.mc_trials, inputs["mc_seeds"][alpha], codes=codes),
            mc_check, lambda s: dict(s),
        ))

    def decode_check(rate):
        failures = round(rate * sizes.decode_trials)
        return [_verdict(_rate_ok(failures, sizes.decode_trials, exact_code),
                         f"mc_failure_prob {rate} against exact {exact_code}")]

    jobs.append(Job(
        "mc_failure_prob", 1,
        lambda: f2codes.mc_failure_prob(inputs["code"], CHANNEL_P, sizes.decode_trials,
                                        inputs["mc_seeds"][2]),
        decode_check, float,
    ))

    sim1_out = inputs["sim1_out"]

    def sim1():
        code, _ = cli_call(lib.cli, sim1_argv(sizes.sim1_trials, inst["sim1"]["seed"], sim1_out))
        return code, sim1_out.read_text()

    def sim_check(outcome, ref, trials, simulator):
        code, text = outcome
        if code != 0:
            return [f"simulate exited {code}"]
        r = json.loads(text)["result"]
        tr, st = r["transcript"], r["statistics"]
        ok = not tr["success"] or tr["message_out"] == tr["message_in"]
        ok &= st["trials"] == trials and _within(st["exact_failure"], ref["exact_failure"], 1e-12)
        ok &= _rate_ok(st["failures"], trials, ref["exact_failure"])
        if simulator:
            s = r["simulator"]
            ok &= all(_within(s[f], ref[f], 1e-10)
                      for f in ("exact_sd", "min_entropy_c1", "lhl_bound"))
            ok &= s["exact_sd"] <= s["lhl_bound"] + 1e-12
        return [_verdict(ok, f"simulate: {r} against {ref}")]

    jobs.append(Job(
        "cli.simulate.1", 1, sim1,
        lambda o: sim_check(o, inst["sim1"], sizes.sim1_trials, False),
        lambda o: (o[0], json.loads(o[1])["result"]),
    ))
    jobs.append(Job(
        "cli.simulate.2", 1,
        lambda: cli_call(lib.cli, sim2_argv(sizes.sim2_trials, inst["sim2"]["seed"])),
        lambda o: sim_check(o, inst["sim2"], sizes.sim2_trials, True),
        lambda o: (o[0], json.loads(o[1])["result"]),
    ))
    return jobs


# ---------------------------------------------------------------------------
# exact


def _write_joint_csv(rng: np.random.Generator, path: Path) -> np.ndarray:
    """A random joint over X, Y, Z, written in the `entropy --in` CSV form."""
    table = rng.dirichlet(np.ones(8 * 8 * 16)).reshape(8, 8, 16)
    lines = ["X,Y,Z,prob"]
    for idx in np.ndindex(*table.shape):
        lines.append(",".join(str(i) for i in idx) + f",{float(table[idx])!r}")
    path.write_text("\n".join(lines) + "\n")
    return table


def conditional_collision_mi(p: np.ndarray) -> float:
    """I_c(X:Y|Z) = H_c(X|Z) - H_c(X|YZ) for a table indexed [x, y, z], with
    H_c(X|G) = -log2 sum_{x,g} p(x,g)^2 / p(g).  Independent of collinfo."""
    p = p / p.sum()
    pxz = p.sum(axis=1)
    h_x_z = -math.log2(float((pxz * pxz / pxz.sum(axis=0)).sum()))
    h_x_yz = -math.log2(float((p * p / p.sum(axis=0)).sum()))
    return h_x_z - h_x_yz


def exact_inputs(lib, seed: int, sizes: Sizes, refs: dict, outdir: Path) -> dict:
    f2codes = lib.f2codes
    inst = _instance(refs, seed)
    n, k = sizes.exact_code
    csv_path = outdir / f"joint-{seed}.csv"
    table = _write_joint_csv(rng_for(seed, "joint"), csv_path)
    return {
        "inst": inst,
        "code": f2codes.random_code(n, k, inst["code_seed"]),
        "sim_params": lib.protocol.ProtocolParams(n=sizes.sim[0], lam=8, k=sizes.sim[1]),
        "csv": csv_path,
        "cmi": conditional_collision_mi(table),
    }


def exact_jobs(lib, inputs: dict, sizes: Sizes, refs: dict, outdir: Path) -> list:
    f2codes, protocol, lightcone = lib.f2codes, lib.protocol, lib.lightcone
    inst = inputs["inst"]
    exact_ref = inst["exact"][sim_key(*sizes.exact_code)]
    sim_ref = inst["sim"][sim_key(*sizes.sim)]
    sweep_ref = refs["sweep"][str(sizes.sweep_m)]
    n_sim = sizes.sim[0]
    jobs = [Job(
        "exact_failure", 1,
        lambda: f2codes.exact_failure_prob(inputs["code"], CHANNEL_P),
        lambda v: [_verdict(_within(v, exact_ref, 1e-12), f"exact failure {v} != {exact_ref}")],
        float,
    )]

    def simulator():
        rep = protocol.simulator_transcript(
            np.array(inst["sim_messages"][0:1], dtype=np.uint8),
            np.array(inst["sim_messages"][1:2], dtype=np.uint8),
            inputs["sim_params"], adversary_strategy=[0.0] * n_sim, seed=inst["sim_seed"])
        return {"exact_sd": rep.exact_sd, "min_entropy_c1": rep.min_entropy_c1,
                "lhl_bound": rep.lhl_bound}

    def sim_check(r):
        ok = all(_within(r[f], sim_ref[f], 1e-10) for f in r)
        ok &= r["exact_sd"] <= r["lhl_bound"] + 1e-12
        return [_verdict(ok, f"simulator {r} against {sim_ref}")]

    jobs.append(Job("simulator", 1, simulator, sim_check, dict))

    fields = ("ic_b0", "ic_b1", "total", "cond_b0", "cond_b1")

    def sweep():
        rep = protocol.leakage_experiment(sizes.sweep_m, exhaustive=True)
        rows = [[getattr(r, f) for f in fields] for r in rep.reports]
        return {"rows": rows, "worst": dict(rep.worst), "all_ok": rep.all_ok}

    def sweep_check(r):
        rows = np.array(r["rows"])
        ok = len(rows) == 9 ** sizes.sweep_m == sweep_ref["count"]
        ok &= r["all_ok"] == sweep_ref["all_ok"]
        ok &= all(_within(r["worst"][q], v, 1e-9) for q, v in sweep_ref["worst"].items())
        if ok:
            stride = sweep_ref["stride"]
            ok &= bool(np.all(np.abs(rows[::stride] - np.array(sweep_ref["sample"])) <= 1e-9))
            ok &= bool(np.all(np.abs(rows.sum(axis=0) - np.array(sweep_ref["sums"]))
                              <= 1e-9 * len(rows)))
        return [_verdict(ok, f"sweep of {len(rows)} strategies differs from the reference")]

    jobs.append(Job("sweep", 1, sweep, sweep_check,
                    lambda r: (r["rows"], r["worst"], r["all_ok"])))

    def cones():
        out = []
        for D, side in sizes.grids:
            try:
                grid = lightcone.GridSpec(D=D, side=side, ell=CONE["ell"], depth=CONE["depth"])
                part = lightcone.build_partition(grid, CONE["r"])
                honest = lightcone.certify_independence(part)
                shrunk = lightcone.certify_independence(part, outer_shrink=1)
                counts = lightcone.shell_accounting(part)
                out.append((honest.passed, shrunk.passed, tuple(counts[:3])))
            except Exception as exc:
                out.append(exc)
        return out

    def cones_check(outcome):
        verdicts = []
        r = CONE["r"]
        for (D, side), res in zip(sizes.grids, outcome):
            if isinstance(res, Exception):
                verdicts.append(f"grid {D}x{side}: {type(res).__name__}: {res}")
                continue
            outer = 2 * r + 2 * CONE["ell"] ** CONE["depth"]
            q = (side // outer) ** D
            cu = q * (2 * r) ** D
            honest, shrunk, counts = res
            ok = honest and not shrunk and counts == (cu, side ** D - cu, q)
            verdicts.append(_verdict(ok, f"grid {D}x{side}: {res}"))
        return verdicts

    jobs.append(Job("lightcone", len(sizes.grids), cones, cones_check, _plain))

    feas_ref = refs["feasibility"]

    def feas_check(outcome):
        code, text = outcome
        if code != 0:
            return [f"feasibility exited {code}"]
        r = json.loads(text)["result"]
        ok = r == feas_ref
        ok &= r["budget"]["residual"] >= 0 and r["shell_floor"]["residual"] >= 0
        return [_verdict(ok, f"feasibility {r} against {feas_ref}")]

    jobs.append(Job("cli.feasibility", 1, lambda: cli_call(lib.cli, FEASIBILITY_ARGV),
                    feas_check, lambda o: (o[0], json.loads(o[1])["result"])))

    entropy_argv = ["entropy", "--in", str(inputs["csv"]), "--mi", "X", "Y", "--given", "Z"]

    def entropy_check(outcome):
        code, text = outcome
        if code != 0:
            return [f"entropy exited {code}"]
        v = json.loads(text)["result"]["conditional_collision_mi"]
        return [_verdict(_within(v, inputs["cmi"], 1e-12), f"entropy {v} != {inputs['cmi']}")]

    jobs.append(Job("cli.entropy", 1, lambda: cli_call(lib.cli, entropy_argv), entropy_check,
                    lambda o: (o[0], json.loads(o[1])["result"])))
    return jobs


WORKLOADS = {
    "certify": (certify_inputs, certify_jobs),
    "montecarlo": (montecarlo_inputs, montecarlo_jobs),
    "exact": (exact_inputs, exact_jobs),
}
