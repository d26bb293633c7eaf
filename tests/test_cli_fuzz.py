"""Seeded CLI fuzz: every drawn command line ends in exit 0, 2, 3 or 4.

The argv are built from cli.build_parser()'s own actions, so a new flag is
fuzzed without editing this file (a flag of a new argparse type needs a
row in _PLAIN and _EDGE).  Each value comes from a table for its type;
distribution files come from the malformed ones in oracles, beside one
well-formed CSV and JSON file and one missing path.  Every report is read
as standard JSON, which has no Infinity or NaN.
"""

import argparse
import random
import time

import pytest

from oracles import MALFORMED_DISTRIBUTIONS, csv_text, json_text, random_joint, strict_json
from otmbench import cli

_SEED = 2026
_CASES = 400
_CALL_S = 1.0   # seconds any one call may take

# values a run can go on with, drawn 3 times in 4, and boundary values
_PLAIN = {
    int: ["1", "2", "3", "8"],
    float: ["0.25", "0.1", "0.5"],
    cli.parse_eps: ["2^-10", "0.01"],
    None: ["X", "Y", "Z", "mu0", "mid,mu1", "0.3"],
}
_NUMBERS = ["0", "-1", "62", "63", "9e307", "1e308", "inf", "nan", "5e-324", ""]
_EDGE = {
    int: _NUMBERS,
    float: _NUMBERS,
    cli.parse_eps: _NUMBERS + ["2^-1074", "10^400", "0^-1"],
    # empty and malformed names and angle lists
    None: ["", ",", " , ", "mu0,x", "inf,0", "nan", "1e309", "0.3,1e308"],
}
# --out, plain and boundary: stdout or a file; a directory, not writable
_OUT = (["", "report.json"], ["."])


def _options(parser, rng, by_dest) -> list:
    """Each required option, one option of each exclusive group and each
    other option with probability 1/2, with values from its dest's tables,
    its choices or its type's tables: plain 3 times in 4, else boundary."""
    groups = [g._group_actions for g in parser._mutually_exclusive_groups]
    picked = {rng.choice(g) for g in groups}     # one of each exclusive group
    argv = []
    for action in parser._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        if any(action in g for g in groups) and action not in picked:
            continue
        if not (action.required or action in picked) and rng.random() < 0.5:
            continue
        argv.append(rng.choice(action.option_strings))
        plain = rng.random() < 0.75
        if action.dest in by_dest:
            pool = by_dest[action.dest][not plain]
        elif action.choices is not None and plain:
            pool = [str(c) for c in action.choices]
        else:
            pool = (_PLAIN if plain else _EDGE)[action.type]
        nargs = action.nargs
        count = 1 if nargs is None else rng.randint(1, 2) if nargs == "+" else nargs
        argv += [rng.choice(pool) for _ in range(count)]
    return argv


def _write_inputs(folder):
    folder.mkdir()
    d = random_joint(("X", "Y", "Z"), (2, 3, 2), seed=0)
    (folder / "good.csv").write_text(csv_text(d))
    (folder / "good.json").write_text(json_text(d))
    for name, text in MALFORMED_DISTRIBUTIONS.items():
        (folder / name).write_text(text)
    return ([str(folder / "good.csv"), str(folder / "good.json")],
            [str(folder / name) for name in ["missing.csv", *MALFORMED_DISTRIBUTIONS]])


def test_fuzzed_argv_exit_cleanly(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    by_dest = {"infile": _write_inputs(tmp_path / "in"), "out": _OUT}
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    rng = random.Random(_SEED)
    for _ in range(_CASES):
        command = rng.choice(sorted(commands))
        argv = (_options(parser, rng, by_dest) + [command]
                + _options(commands[command], rng, by_dest))
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:    # it would end the command line in a traceback
            raise AssertionError(f"{argv} raised {exc!r}") from exc
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        report = tmp_path / "report.json"
        if report.exists():
            assert out == "", argv
            out = report.read_text()
            report.unlink()
        assert code in (cli.EXIT_OK, cli.EXIT_INVARIANT, cli.EXIT_RESOURCE,
                        cli.EXIT_INPUT), argv
        assert "Traceback" not in err, argv
        assert elapsed < _CALL_S, (argv, elapsed)
        if code == cli.EXIT_OK and command == "leakage":
            assert out.startswith("strategy,"), argv
        elif code == cli.EXIT_OK:
            assert isinstance(strict_json(out), dict), argv
        elif code == cli.EXIT_RESOURCE and command == "bounds":
            result = strict_json(out)["result"]
            assert isinstance(result, dict) and result["complete"] is False, argv
        else:
            # the other budget refusals, and every exit 2 and 4, report on
            # stderr alone
            assert out == "", argv


@pytest.mark.parametrize("name", sorted(MALFORMED_DISTRIBUTIONS))
def test_malformed_distribution_files_are_refused(name, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(MALFORMED_DISTRIBUTIONS[name])
    code = cli.main(["entropy", "--in", str(path), "--entropy", "X"])
    assert code in (cli.EXIT_RESOURCE, cli.EXIT_INPUT)
    assert "Traceback" not in capsys.readouterr().err
