"""Command-line interface: subcommands, exit codes, report reproducibility."""

import csv
import hashlib
import io
import json
import math
from pathlib import Path
import re
import shlex
import time
from unittest import mock

import numpy as np
import pytest

from oracles import collision_entropy_given, csv_text, json_text, random_joint, strict_json
from otmbench import cli
from otmbench.collinfo import JointDistribution, collision_mi
from otmbench.errors import InvariantViolationError
from otmbench.lightcone import find_feasible_params
from otmbench.protocol import leakage_experiment


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def strip_meta(payload):
    d = json.loads(payload)
    d.pop("meta", None)
    return d


def test_parse_eps_forms():
    assert cli.parse_eps("0.25") == 0.25
    assert cli.parse_eps("2^-20") == 2.0**-20
    assert cli.parse_eps("2^-1") == 0.5
    with pytest.raises(Exception):
        cli.parse_eps("junk")


def test_unknown_subcommand_is_input_error(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_INPUT


def test_missing_required_argument_is_input_error(capsys):
    assert cli.main(["feasibility", "--D", "2"]) == cli.EXIT_INPUT


def test_qrac_table(capsys):
    code, out = run(["qrac-table"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    entries = payload["result"]["table"]
    assert len(entries) == 8
    want = math.cos(math.pi / 8) ** 2
    for row in entries:
        assert row["p_success"] == pytest.approx(want, abs=1e-12)


def test_feasibility_matches_library(capsys):
    code, out = run(
        ["feasibility", "--D", "1", "--ell", "2", "--d", "1",
         "--eps1", "2^-10", "--eps2", "2^-10"],
        capsys,
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    res = payload["result"]
    w = find_feasible_params(2**-10, 2**-10, ell=2, depth=1, D=1)
    assert res["r"] == w.r
    assert res["n"] == w.n
    assert res["budget"]["residual"] >= 0.0
    assert res["shell_floor"]["residual"] >= 0.0


def test_feasibility_readme_payload_is_pinned(capsys):
    # sha256 of json.dumps(result, sort_keys=True) for the README call
    code, out = run(["feasibility", "--D", "2", "--ell", "2", "--d", "2",
                     "--eps1", "2^-20", "--eps2", "2^-20"], capsys)
    assert code == cli.EXIT_OK
    text = json.dumps(json.loads(out)["result"], sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "eb216988c50fed03abd611fb4bc8c0cfc3f5acf1efcadd46f60b51e25d2d1454")


def test_entropy_subcommand_matches_library(tmp_path, capsys):
    d = random_joint(("X", "Y"), (3, 2), seed=8)
    path = tmp_path / "dist.csv"
    path.write_text(csv_text(d))
    code, out = run(["entropy", "--in", str(path), "--mi", "X", "Y"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["collision_mi"] == pytest.approx(
        collision_mi(d, ("X",), ("Y",)), abs=1e-12
    )


def _conditional_joint():
    # the slice Z = 3 has no mass, so the conditional figures drop its terms
    table = np.random.default_rng(5).dirichlet(np.ones(24)).reshape(2, 3, 4)
    table[:, :, 3] = 0.0
    return JointDistribution(("X", "Y", "Z"), table / table.sum())


@pytest.mark.parametrize("args, key, want", [
    (["--mi", "X", "Y", "--given", "Z"], "conditional_collision_mi",
     lambda d: collision_entropy_given(d, "X", ("Z",))
     - collision_entropy_given(d, "X", ("Y", "Z"))),
    (["--entropy", "X", "--given", "Y", "Z"], "conditional_collision_entropy",
     lambda d: collision_entropy_given(d, "X", ("Y", "Z"))),
], ids=["mi-given", "entropy-given"])
def test_entropy_conditional_figures(args, key, want, tmp_path, capsys):
    d = _conditional_joint()
    path = tmp_path / "dist.csv"
    path.write_text(csv_text(d))
    code, out = run(["entropy", "--in", str(path), *args], capsys)
    assert code == cli.EXIT_OK
    result = json.loads(out)["result"]
    assert set(result) == {"variables", key}
    assert result["variables"] == ["X", "Y", "Z"]
    assert abs(result[key] - want(d)) <= 1e-12


def test_main_keeps_one_parser_and_no_flags_between_calls(tmp_path, capsys):
    d = _conditional_joint()
    path = tmp_path / "dist.csv"
    path.write_text(csv_text(d))
    entropy = ["entropy", "--in", str(path), "--mi", "X", "Y"]
    given = {"conditional_collision_mi": collision_entropy_given(d, "X", ("Z",))
             - collision_entropy_given(d, "X", ("Y", "Z"))}
    plain = {"collision_mi": collision_mi(d, ("X",), ("Y",))}
    out_file = tmp_path / "given.json"
    for argv, want, flag in ((["--out", str(out_file), *entropy, "--given", "Z"], given, ["Z"]),
                             (entropy, plain, None), (entropy + ["--given", "Z"], given, ["Z"])):
        code, out = run(argv, capsys)
        assert code == cli.EXIT_OK
        payload = json.loads(out or out_file.read_text())
        (key, value), = ((k, v) for k, v in payload["result"].items() if k != "variables")
        assert key in want and abs(value - want[key]) <= 1e-12, argv
        assert payload["config"]["given"] == flag
    bounds = ["bounds", "--coarse", "0.25", "--fine", "0.25"]
    for argv, quantity in ((bounds + ["--quantity", "total"], "total"), (bounds, "greater")):
        code, out = run(argv, capsys)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["config"]["quantity"] == payload["result"]["quantity"] == quantity
    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()


def test_entropy_json_input(tmp_path, capsys):
    d = random_joint(("A", "B"), (2, 2), seed=3)
    path = tmp_path / "dist.json"
    path.write_text(json_text(d))
    code, out = run(["entropy", "--in", str(path), "--entropy", "A"], capsys)
    assert code == cli.EXIT_OK
    assert "collision_entropy" in json.loads(out)["result"]


@pytest.mark.parametrize("text", [
    "X,prob\n1000000000000000,1.0\n",          # one axis of 10^15 cells
    "X,Y,prob\n0,0,0.5\n4096,4096,0.5\n",     # 4097^2 cells, just past 2^24
])
def test_entropy_refuses_oversized_table(text, tmp_path, capsys):
    path = tmp_path / "dist.csv"
    path.write_text(text)
    assert cli.main(["entropy", "--in", str(path), "--entropy", "X"]) == cli.EXIT_RESOURCE
    assert "Traceback" not in capsys.readouterr().err


def test_entropy_missing_file_is_input_error(capsys):
    assert cli.main(["entropy", "--in", "/no/such/file.csv", "--mi", "X", "Y"]) == (
        cli.EXIT_INPUT
    )


def test_leakage_csv_output(capsys):
    code, out = run(["leakage", "--m", "1", "--strategy", "0"], capsys)
    assert code == cli.EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    header, data = rows[0], rows[1]
    assert "ic_b0" in header and "total" in header
    row = dict(zip(header, data))
    rep = leakage_experiment(1, strategy=[0.0])
    assert float(row["ic_b0"]) == pytest.approx(rep.ic_b0, abs=1e-9)
    assert float(row["total"]) == pytest.approx(rep.total, abs=1e-9)
    assert row["greater_ok"] == "1"


def test_leakage_exhaustive_rows(capsys):
    code, out = run(
        ["leakage", "--m", "2", "--exhaustive", "--angles", "0,0.3926990816987241,0.7853981633974483"],
        capsys,
    )
    assert code == cli.EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 9  # header + 3^2 strategies


# sha256 of the CSV on stdout for the README leakage calls and one large sweep
_LEAKAGE_CSV_SHA256 = {
    ("--m", "2", "--exhaustive"):
        "0979f8f2140f10f3a3b269dfb644c8c75936c09ebab360daf2bbb72c70d35e14",
    ("--m", "3", "--exhaustive"):
        "0bcafd6fe9eb0877c4fae67b186cfbde40fafa8d8da0caf7959ce2eed253f61d",
    ("--m", "3", "--strategy", "0,0.3926991,0.7853982"):
        "ccfeeee0e2d2568ae6344c6850396cfd1755c88282a475610ed69f5701fa2e7d",
    # 3^9 = 19 683 rows
    ("--m", "9", "--exhaustive", "--angles", "0,0.5,1"):
        "ff76139cfba10e5702ddda091ab320b1e4cfa4808adbe18b8210f5ef32ef9dae",
}


@pytest.mark.parametrize("args", list(_LEAKAGE_CSV_SHA256), ids=" ".join)
def test_leakage_csv_is_pinned(args, capsys):
    code, out = run(["leakage", *args], capsys)
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == _LEAKAGE_CSV_SHA256[args]


def test_leakage_one_strategy_past_the_sweep_range(capsys):
    code, out = run(["leakage", "--m", "6", "--strategy", "0,0,0,0,0,0"], capsys)
    assert code == cli.EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2 and rows[1][0] == "0;0;0;0;0;0"


def test_leakage_resource_limit_exit(capsys):
    assert cli.main(["leakage", "--m", "9", "--exhaustive"]) == cli.EXIT_RESOURCE


def test_leakage_nonpositive_m_is_bad_input(capsys):
    assert cli.main(["leakage", "--m", "-2", "--exhaustive"]) == cli.EXIT_INPUT
    assert "resource limit" not in capsys.readouterr().err


def test_simulate_reports_and_reproduces(tmp_path, capsys):
    args = [
        "simulate", "--n", "6", "--k", "2", "--lam", "8",
        "--trials", "200", "--seed", "5", "--strategy", "mu0",
    ]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["--out", str(f1)] + args) == cli.EXIT_OK
    assert cli.main(["--out", str(f2)] + args) == cli.EXIT_OK
    a = strip_meta(f1.read_text())
    b = strip_meta(f2.read_text())
    assert a == b, "result payload must be reproducible run to run"
    res = a["result"]
    assert res["statistics"]["trials"] == 200
    assert 0.0 <= res["statistics"]["empirical_failure"] <= 1.0
    assert res["simulator"]["exact_sd"] <= res["simulator"]["lhl_bound"] + 1e-12
    assert res["transcript"]["success"] in (True, False)


def test_simulate_readme_payloads_pinned(tmp_path, capsys):
    # sha256 of each README invocation's result payload, recorded when
    # statistics.exact_failure became the correctly rounded coset-leader sum
    out = tmp_path / "run.json"
    assert cli.main(["--out", str(out), "simulate", "--n", "15", "--rate", "0.2",
                     "--alpha", "1", "--trials", "2000", "--seed", "7"]) == cli.EXIT_OK
    code, printed = run(["simulate", "--n", "6", "--k", "2", "--trials", "500",
                         "--strategy", "mu0"], capsys)
    assert code == cli.EXIT_OK
    digests = [hashlib.sha256(json.dumps(strip_meta(payload)["result"], sort_keys=True)
                              .encode()).hexdigest() for payload in (out.read_text(), printed)]
    assert digests == ["337e87dd00e85eaa774885378f6514af4358a8be4e48c9f9bbe713dd99938443",
                       "4ee260193df68eb2fce7e8f380469a78f8b0978a450835b2151953730b4c2fdd"]


def test_simulate_rejects_bad_rate(capsys):
    assert (
        cli.main(["simulate", "--n", "10", "--rate", "0.17", "--trials", "1"])
        == cli.EXIT_INPUT
    )


def test_simulate_refuses_more_message_bits_than_qubits(capsys):
    assert cli.main(["simulate", "--n", "3", "--k", "1", "--lam", "32"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: lam=32 gives 4 message bits, more than n=3\n"


def test_simulate_seed_is_any_integer(capsys):
    # every root hashes to 64-bit sub-stream seeds; a non-integer is bad input
    for seed in ("-3", str(2**70)):
        assert cli.main(["simulate", "--n", "6", "--k", "2", "--trials", "5",
                         "--seed", seed]) == cli.EXIT_OK
    capsys.readouterr()
    for seed in ("1.0", "1e3", "true", ""):
        assert cli.main(["simulate", "--n", "6", "--k", "2", "--trials", "5",
                         "--seed", seed]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: argument --seed") and "Traceback" not in err


def test_simulate_refuses_huge_lam_before_drawing_messages(capsys):
    with mock.patch.object(cli, "_coin_bits", wraps=cli._coin_bits) as draw:
        code = cli.main(["simulate", "--n", "6", "--k", "2", "--trials", "5",
                         "--lam", "8796093022208"])
        assert draw.call_count == 0
    assert code == cli.EXIT_INPUT
    assert "more than n=6" in capsys.readouterr().err


def test_bounds_small_run(tmp_path, capsys):
    out_file = tmp_path / "bounds.json"
    code = cli.main(
        ["--out", str(out_file), "bounds", "--quantity", "greater",
         "--coarse", "0.25", "--fine", "0.25"]
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out_file.read_text())
    res = payload["result"]
    assert res["corrected_bound"] >= res["raw_max"] - 1e-12
    assert res["quantity"] == "greater"
    assert "elapsed_s" in payload["meta"]
    assert "elapsed_s" not in res


# sha256 of json.dumps(result, sort_keys=True) for the README bounds call
_BOUNDS_PAYLOAD_SHA256 = {
    "greater": "3376dc9ea16a529145a7b5333f651d7b81a13bb65c403512053b298e7ab32fd0",
    "total": "2e3df99be2d7346164f4ec6d2e384347824b527d621fb0ea43968e193f00f675",
    "conditional": "203143d37cdc246169d24caca04788e8f0a57e8db45ca794dbcb211a40df341a",
}


@pytest.mark.parametrize("quantity", sorted(_BOUNDS_PAYLOAD_SHA256))
def test_bounds_readme_payload_is_pinned(quantity, capsys):
    code, out = run(["bounds", "--quantity", quantity, "--coarse", "0.05", "--fine", "0.005"],
                    capsys)
    assert code == cli.EXIT_OK
    result = json.loads(out)["result"]
    text = json.dumps(result, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _BOUNDS_PAYLOAD_SHA256[quantity]
    # exactly, with no tolerance: the benchmark's certify check reads it so
    assert result["raw_max"] <= result["corrected_bound"]


# the same digest for two other nets: a coarser one and a finer last level
_BOUNDS_NET_PAYLOAD_SHA256 = {
    ("0.1", "0.01", "greater"): "58f8a727b963e1f29dd07750394ae591365072b3da645124757252ab4fd58d9b",
    ("0.1", "0.01", "total"): "41ff8853a1b691ce52f63ca083a2d99b28a6870a18e1ab5951cc3a7ee440c914",
    ("0.1", "0.01", "conditional"): "ee8612c31e1db14d8b5862467385ae8d2b8352be4dfdaea128441c873165141c",
    ("0.05", "0.002", "greater"): "d7e4db6932c55de7f5bc2e8e2672c62e74d5c7a6350f9a793392212920c7dc95",
    ("0.05", "0.002", "total"): "fff907ec0ab27bc15d52d99934fdafa3c50a4a97631acde7ae2a8e13e7e36f11",
    ("0.05", "0.002", "conditional"): "1c44bee809de1d9bfa3dcf999fc221fb311d728a41d910c12d9c2c576821208d",
}


@pytest.mark.parametrize("coarse, fine, quantity", sorted(_BOUNDS_NET_PAYLOAD_SHA256))
def test_bounds_payload_is_pinned_on_other_nets(coarse, fine, quantity, capsys):
    code, out = run(["bounds", "--quantity", quantity, "--coarse", coarse, "--fine", fine],
                    capsys)
    assert code == cli.EXIT_OK
    result = json.loads(out)["result"]
    text = json.dumps(result, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _BOUNDS_NET_PAYLOAD_SHA256[coarse, fine, quantity]
    assert result["raw_max"] <= result["corrected_bound"]


def test_bounds_budget_exhaustion_partial_payload(tmp_path, capsys):
    # out of time, and refused at the flat-cell table before the net runs
    out_file = tmp_path / "partial.json"
    for flags in (["--coarse", "0.02", "--fine", "0.0025", "--time-budget", "1e-6"],
                  ["--coarse", "0.25", "--fine", "1e-5"]):
        code = cli.main(["--out", str(out_file), "bounds", *flags])
        assert code == cli.EXIT_RESOURCE
        payload = json.loads(out_file.read_text())
        assert payload["error"]["type"] == "resource"
        assert payload["result"]["complete"] is False
        assert payload["meta"]["elapsed_s"] >= 0


@pytest.mark.parametrize("flags", [
    ["--coarse", "0.25", "--fine", "1e-5"],
    ["--time-budget", "0"],
    ["--coarse", "0.001", "--fine", "0.001"],
], ids=" ".join)
def test_partial_bounds_report_is_standard_json(flags, capsys):
    # flat-cell table, time budget, net level: each stops before the net's
    # frontier exists, which is null, not Infinity; the all-measurement
    # bound needs no stage and is already reported
    code, out = run(["bounds", *flags], capsys)
    assert code == cli.EXIT_RESOURCE
    result = strict_json(out)["result"]
    assert result["complete"] is False and result["frontier_bound"] is None
    assert result["raw_max"] <= result["corrected_bound"] == result["slice_bound"]


@pytest.mark.parametrize("budget, code", [("inf", cli.EXIT_OK), ("-inf", cli.EXIT_RESOURCE)])
def test_non_finite_flag_is_echoed_as_text(budget, code, capsys):
    argv = ["bounds", "--coarse", "0.25", "--fine", "0.25", f"--time-budget={budget}"]
    got, out = run(argv, capsys)
    assert got == code
    report = strict_json(out)
    assert report["config"]["time_budget"] == budget
    assert report["result"]["complete"] is (code == cli.EXIT_OK)



@pytest.mark.parametrize("flags, code", [
    (["--time-budget", "nan"], cli.EXIT_INPUT),
    # the arc width went with the arcs: an unknown flag
    (["--slice-eps", "0.01"], cli.EXIT_INPUT),
])
def test_bounds_bad_numbers_exit_cleanly(flags, code, capsys):
    argv = ["bounds", "--coarse", "0.25", "--fine", "0.25"] + flags
    assert cli.main(argv) == code
    assert "Traceback" not in capsys.readouterr().err


# each subcommand's numeric flags, each set in turn to 0, -3, nan and inf;
# --rate replaces --k (the two are exclusive), --time-budget is appended
_BOUNDARY_BASE = (
    (["bounds", "--coarse", "0.25", "--fine", "0.25"],
     ["--coarse", "--fine", "--time-budget"]),
    (["simulate", "--n", "6", "--k", "2", "--lam", "8", "--trials", "20", "--strategy", "mu0"],
     ["--n", "--k", "--rate", "--lam", "--trials", "--strategy"]),
    (["feasibility", "--D", "1", "--ell", "2", "--d", "1", "--eps1", "0.01", "--eps2", "0.01"],
     ["--D", "--ell", "--d", "--eps1", "--eps2"]),
    (["leakage", "--m", "1", "--exhaustive", "--angles", "0,0.3"], ["--m", "--angles"]),
)


def _boundary_cases():
    for base, flags in _BOUNDARY_BASE:
        for flag in flags:
            for value in ("0", "-3", "nan", "inf"):
                argv = list(base)
                if flag == "--rate":
                    at = argv.index("--k")
                    argv[at:at + 2] = ["--rate", value]
                elif flag in argv:
                    argv[argv.index(flag) + 1] = value
                else:
                    argv += [flag, value]
                yield argv


@pytest.mark.parametrize("argv", [
    *_boundary_cases(),
    ["bounds", "--coarse", "5e-324", "--fine", "5e-324"],
    ["bounds", "--coarse", "0.001", "--fine", "0.001"],
    ["feasibility", "--D", "1", "--ell", "2", "--d", "1", "--eps1", "1e-320", "--eps2", "0.01"],
    ["feasibility", "--D", "1", "--ell", "2", "--d", "1", "--eps1", "10^400", "--eps2", "0.01"],
    ["feasibility", "--D", "1", "--ell", "2", "--d", "1", "--eps1=-8^0.5", "--eps2", "0.01"],
    ["feasibility", "--D", "1", "--ell", "2", "--d", "1", "--eps1", "0^-1", "--eps2", "0.01"],
    ["simulate", "--n", "62", "--k", "3", "--trials", "20", "--strategy", "mu0"],
    ["simulate", "--n", "6", "--k", "2", "--trials", "5", "--lam", "8796093022208"],
], ids=" ".join)
def test_cli_boundary_numbers_exit_cleanly(argv, capsys):
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_INVARIANT, cli.EXIT_RESOURCE,
                              cli.EXIT_INPUT)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("n, code", [(24, cli.EXIT_OK), (62, cli.EXIT_OK),
                                     (63, cli.EXIT_RESOURCE)])
def test_simulate_reads_up_to_packed_limit(n, code, capsys):
    # exact failure covers n <= 20; reads run while words pack into 62 bits
    assert cli.main(["simulate", "--n", str(n), "--k", "3", "--trials", "50"]) == code
    out, err = capsys.readouterr()
    if code == cli.EXIT_OK:
        stats = json.loads(out)["result"]["statistics"]
        assert stats["exact_failure"] is None and stats["trials"] == 50
    else:
        assert "62-bit" in err


@pytest.mark.parametrize("n, code", [(8, cli.EXIT_OK), (62, cli.EXIT_RESOURCE)])
def test_simulate_strategy_reach(n, code, capsys):
    # the exact simulator works on seed classes, so n = 8 at k = 3 fits;
    # at n = 62 the 2^62-seed pad table is refused before it is built
    start = time.perf_counter()
    argv = ["simulate", "--n", str(n), "--k", "3", "--trials", "20", "--strategy", "mu0"]
    assert cli.main(argv) == code
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    if code == cli.EXIT_OK:
        sim = json.loads(out)["result"]["simulator"]
        assert sim["exact_sd"] <= sim["lhl_bound"]
    else:
        assert "pad table" in err


def test_simulate_refuses_unpackable_n_before_building():
    start = time.perf_counter()
    assert cli.main(["simulate", "--n", "400000", "--k", "1", "--trials", "1"]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("flags", [
    ["--D", "1", "--ell", "2", "--d", "40"],
    ["--D", "1", "--ell", "2", "--d", "2000"],
    ["--D", "200", "--ell", "2", "--d", "1"],
    ["--D", "1", "--ell", "1000000", "--d", "1000"],
])
def test_feasibility_large_widths_finish(flags, capsys):
    start = time.perf_counter()
    code = cli.main(["feasibility", *flags, "--eps1", "0.01", "--eps2", "0.01"])
    assert code in (cli.EXIT_OK, cli.EXIT_RESOURCE)
    assert time.perf_counter() - start < 5.0
    assert "Traceback" not in capsys.readouterr().err


def test_simulate_refuses_trials_past_sampling_budget(capsys):
    start = time.perf_counter()
    argv = ["simulate", "--n", "15", "--k", "3", "--trials", "10000000000"]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert "sampling budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["entropy", "--in", "{csv}", "--mi", "X", "X"], "variable 'X' is named twice"),
    (["entropy", "--in", "{csv}", "--entropy", "X", "--given", "X"],
     "variable 'X' is named twice"),
    (["leakage", "--m", "2", "--exhaustive", "--angles", "inf,0"], "bad angle 'inf'"),
])
def test_bad_input_names_the_input(argv, message, tmp_path, capsys):
    path = tmp_path / "dist.csv"
    path.write_text(csv_text(random_joint(("X", "Y"), (2, 2), seed=1)))
    assert cli.main([a.format(csv=path) for a in argv]) == cli.EXIT_INPUT
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("prob", ["nan", "inf", "-0.5"])
def test_entropy_rejects_bad_probabilities(prob, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(f"X,Y,prob\n0,0,{prob}\n1,1,0.5\n")
    assert cli.main(["entropy", "--in", str(path), "--mi", "X", "Y"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("argv, fragment", [
    (["leakage", "--m", "2", "--strategy", "mu0,x"], "bad angle 'x'"),
    (["leakage", "--m", "2", "--strategy", ","], "strategy lists no angles"),
    (["leakage", "--m", "2", "--strategy", ""], "strategy lists no angles"),
    (["leakage", "--m", "2", "--exhaustive", "--angles", ""], "grid lists no angles"),
    (["leakage", "--m", "2", "--exhaustive", "--angles", " , "], "grid lists no angles"),
    (["entropy", "--in", "{csv}"], "give --mi or --entropy"),
    (["leakage", "--m", "2"], "give --strategy or --exhaustive"),
    (["leakage", "--m", "3", "--strategy", "mu0,mu1"], "strategy lists 2 angles, need 3"),
    (["leakage", "--m", "2", "--exhaustive", "--strategy", "0,0"],
     "give --strategy or --exhaustive, not both"),
    (["leakage", "--m", "2", "--strategy", "0,0", "--angles", "0,0.3"],
     "--angles is the grid of --exhaustive"),
])
def test_refusals_name_their_cause(argv, fragment, tmp_path, capsys):
    path = tmp_path / "joint.csv"
    path.write_text(csv_text(random_joint(("X", "Y"), (2, 2), seed=0)))
    argv = [a.format(csv=path) for a in argv]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(cli._CliError) as info:
        cli._RUNNERS[args.command](args)
    assert fragment in str(info.value)
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_invariant_violation_exits_2(monkeypatch, capsys):
    def broken(*args):
        raise InvariantViolationError("planted failure")
    monkeypatch.setattr(cli.lightcone, "find_feasible_params", broken)
    argv = ["feasibility", "--D", "1", "--ell", "2", "--d", "1", "--eps1", "0.1", "--eps2", "0.1"]
    assert cli.main(argv) == cli.EXIT_INVARIANT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "invariant violation: planted failure\n")


@pytest.mark.parametrize("argv", [
    ["qrac-table"],
    # the partial report of a run out of time goes through the same write
    ["bounds", "--coarse", "0.25", "--fine", "0.25", "--time-budget", "0"],
], ids=" ".join)
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_is_bad_input(argv, target, tmp_path, capsys):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
    assert cli.main(["--out", str(path), *argv]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err


def test_entropy_refuses_a_non_integer_json_size(tmp_path, capsys):
    # int() would read 2.7 as 2 and reshape the table to it
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({"variables": [{"name": "X", "size": 2.7},
                                              {"name": "Y", "size": 1}],
                                "table": [0.5, 0.5]}))
    assert cli.main(["entropy", "--in", str(path), "--mi", "X", "Y"]) == cli.EXIT_INPUT
    assert "size must be an integer, got 2.7" in capsys.readouterr().err


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every otmbench line of README's CLI block exits 0 and writes one
    standard-JSON report, or for leakage a CSV under the header README
    documents; the block shows every subcommand."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    header = re.search(r"`(strategy,[\w,]+)`", text).group(1)
    monkeypatch.chdir(tmp_path)
    joint = random_joint(("X", "Y", "Z"), (2, 3, 2), seed=0)
    (tmp_path / "joint.csv").write_text(csv_text(joint))
    commands = set()
    for line in block.splitlines():
        if not line.startswith("otmbench "):
            continue
        argv = shlex.split(line)[1:]
        args = cli.build_parser().parse_args(argv)
        commands.add(args.command)
        assert cli.main(argv) == cli.EXIT_OK, line
        out = capsys.readouterr().out
        if args.out:
            assert out == "", line
            out = Path(args.out).read_text()
        if args.command == "leakage":
            assert out.splitlines()[0] == header, line
        else:
            assert isinstance(strict_json(out), dict), line
    assert commands == set(cli._RUNNERS)
