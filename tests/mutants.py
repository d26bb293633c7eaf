"""A standing table of mutants: small breaks of the library that named
tests must catch.

Each row names a file of the repository, an exact text in it, the text
that replaces it, the test node ids that must all fail once it is
replaced, and why the break matters.  tests/test_mutants.py checks, in the
ordinary suite, that each old text still occurs exactly once, so a change
that rewrites the code must rewrite or retire its rows.

Run every row with

    python tests/mutants.py

It copies the repository's src/, tests/, perfbench/, pyproject.toml and
README.md to a temporary directory, checks that every listed test passes
there unchanged, then for each row applies the mutant to a fresh copy and
runs the row's tests in a subprocess.  It lists every survivor (a row
whose tests do not all fail) and exits 1 if there is one.
"""

from pathlib import Path
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Mutant(NamedTuple):
    file: str        # path from the repository root
    old: str         # occurs exactly once in file
    new: str
    kills: tuple     # test node ids that must all fail under the mutant
    reason: str


_POVM = "src/otmbench/povmsearch.py"
_IDENTITIES = "tests/test_povmsearch.py::test_slice_maxima_are_polynomial_identities"
_ROUNDING = "tests/test_povmsearch.py::test_bound_literals_round_the_maxima_up"
_SEEDS = "src/otmbench/seeds.py"
_PROTOCOL = "src/otmbench/protocol.py"
_QRAC = "src/otmbench/qrac.py"
_READS = "tests/test_protocol.py::test_reads_bytes_per_seed"
_SUCCESS = ("tests/test_qrac.py::test_success_table_all_eight_entries",
            "tests/test_acceptance.py::test_criterion_01_qrac_success_probabilities")
_COINS = "tests/test_seeds.py::test_coin_bits_match_generator_integers"
_HASHMIX = "t = (pool[src] ^ xa[i]) * _HASH_A[i + 1] & mask\n        "
_SWEEP = "tests/test_protocol.py::test_leakage_sweep_columns_match_eager_reports"
_ENTRY_ORDER = "tests/test_protocol.py::test_leakage_ignores_entry_order"
_ROWS = "tests/test_protocol.py::test_leakage_sweep_rows_read_as_a_tuple_of_reports"
_VIEW_EQ = ("return (self.m == other.m and self.labels == other.labels\n"
            "                and np.array_equal(self._figures, other._figures)\n"
            "                and np.array_equal(self._lesser, other._lesser))")


def _literal_rows(quantity, literal, down, up):
    old = f'"{quantity}": _Quantity({literal},'
    kills = (f"{_IDENTITIES}[{quantity}]", f"{_ROUNDING}[{quantity}]")
    return [
        Mutant(_POVM, old, old.replace(literal, down), kills,
               f"{quantity}'s bound one ulp below the maximum is no bound"),
        Mutant(_POVM, old, old.replace(literal, up), kills,
               f"{quantity}'s bound one ulp above the maximum is not the least"),
    ]


MUTANTS = [
    *_literal_rows("greater", "0.5849625007211562", "0.5849625007211561", "0.5849625007211563"),
    *_literal_rows("total", "0.6438561897747247", "0.6438561897747246", "0.6438561897747248"),
    *_literal_rows("conditional", "0.5849625007211562", "0.5849625007211561",
                   "0.5849625007211563"),
    Mutant(_POVM, "corrected_bound=max(_QUANTITY[quantity].bound, raw_max),",
           "corrected_bound=_QUANTITY[quantity].bound,",
           ("tests/test_povmsearch.py::test_search_payload_is_pinned_on_nets_past_one"
            "[0.3-0.1-greater]",
            "tests/test_povmsearch.py::test_corrected_bounds_are_the_exact_maxima",
            "tests/test_cli.py::test_bounds_readme_payload_is_pinned[greater]"),
           "raw_max reads above the exact bound, and the benchmark checks "
           "raw_max <= corrected_bound with no tolerance"),
    Mutant(_POVM, "term = np.where(keep, num / np.where(keep, d, 1.0), 0.0)",
           "term = np.where(keep, num * (1 / np.where(keep, d, 1.0)), 0.0)",
           ("tests/test_povmsearch.py::test_eval_family_matches_the_textbook_bits",),
           "dividing by a reciprocal moves the kernel's last bits off the textbook form's"),
    Mutant(_POVM, "cols.append(np.ascontiguousarray(num_rows.T))",
           "cols.append(num_rows.T)",
           ("tests/test_povmsearch.py::test_family_operands_are_contiguous_columns",),
           "the strided operand gives the same numbers on numpy's slow product path"),
    Mutant(_POVM, "if not 0.0 <= eps <= 1.0:", "if not 0.0 <= eps < math.inf:",
           ("tests/test_povmsearch.py::test_corner_correction_refuses_bad_eps",),
           "corners past width 1 overflow to inf and nan"),
    Mutant(_POVM, "frontier = max(-best[0], float(corr.max(initial=-np.inf)))",
           "frontier = max(-best[0], float(corr[lo:].max(initial=-np.inf)))",
           ("tests/test_povmsearch.py::test_net_level_order_never_reaches_the_report"
            "[0.05-0.005]",),
           "the frontier must bound every block of the last level, not its last one"),
    Mutant(_POVM, "if self.corrected_bound < self.raw_max:",
           "if self.corrected_bound < self.raw_max - 1e-12:",
           ("tests/test_povmsearch.py::test_bound_report_refuses_a_bound_below_raw_max",),
           "a corrected bound below raw_max bounds nothing the search attained"),
    Mutant(_POVM, "& ((a <= 1.0 + 1e-12) & (c <= 1.0 + 1e-12))", "& (c <= 1.0 + 1e-12)",
           ("tests/test_povmsearch.py::test_refinement_levels_match_the_dense_build",),
           "refinement children past a = 1 hold no POVM"),
    Mutant(_POVM, "np.searchsorted(values, values + eps)", "np.searchsorted(values, values)",
           ("tests/test_povmsearch.py::test_coarse_level_matches_the_dense_build[0.05]",
            "tests/test_povmsearch.py::test_deduplicated_corners_give_the_same_bits"
            "[0.05-0.005]"),
           "a corner at x + eps ranked as x is merged with the corner at x"),
    Mutant(_POVM, "if bits > room:", "if bits > 63:",
           ("tests/test_povmsearch.py::"
            "test_search_refuses_a_level_whose_corner_keys_could_pass_int64",),
           "keys past 63 bits wrap and merge corners that differ"),
    Mutant(_POVM, "shift = (m - 1).bit_length()", "shift = (m - 1).bit_length() - 1",
           ("tests/test_povmsearch.py::test_deduplicated_corners_give_the_same_bits"
            "[0.05-0.005]",),
           "places one bit short spill into the key and scramble the corner map"),
    Mutant(_POVM, "comp_index = index + m", "comp_index = index",
           ("tests/test_povmsearch.py::test_search_payload_is_pinned_on_nets_past_one"
            "[0.3-0.1-total]",),
           "the complement's box bound must read the complements' half of the stack"),
    Mutant(_POVM, "total += (t0 * t0 + t1 * t1) / den", "total += t0 * t0 / den + t1 * t1 / den",
           ("tests/test_povmsearch.py::test_family_sum_matches_the_looped_form",),
           "two divisions round differently from the looped form's one"),
    Mutant(_POVM, "flat.append(tuple(num_rows.ravel().tolist() + den_vecs[-1].tolist()))",
           "flat.append(tuple(num_rows.T.ravel().tolist() + den_vecs[-1].tolist()))",
           ("tests/test_povmsearch.py::test_family_rows_round_the_exact_states",
            "tests/test_povmsearch.py::test_family_operands_are_contiguous_columns"),
           "the family sum reads each numerator row whole from flat"),
    Mutant(_QRAC, "- np.array([0.0, math.pi / 4])[:, None, None]",
           "- np.array([math.pi / 4, 0.0])[:, None, None]",
           ("tests/test_qrac.py::test_readout_table_is_measure_prob", *_SUCCESS),
           "bit alpha is read in its own basis: 0 for b0, pi/4 for b1"),
    Mutant(_QRAC, "table[(b0, b1, alpha)] = p0 if want == 0 else 1.0 - p0",
           "table[(b0, b1, alpha)] = p0", _SUCCESS,
           "a read of bit 1 succeeds on outcome 1"),
    Mutant(_PROTOCOL, "p0 = READOUT_P0[alpha][instance.c0, instance.c1]",
           "p0 = READOUT_P0[alpha][instance.c1, instance.c0]",
           ("tests/test_protocol.py::test_otrm_read_word_matches_per_qubit_sampling",
            "tests/test_protocol.py::test_round_trip_bytes_pinned"),
           "the table is indexed by (b0, b1): c0 first"),
    Mutant(_PROTOCOL, "word = (rng.random(p0.shape) >= p0).astype(np.uint8)",
           "word = rng.random(p0.shape) >= p0",
           ("tests/test_protocol.py::test_round_trip_bytes_pinned",
            "tests/test_protocol.py::test_matched_reads_flip_at_the_channel_rate"),
           "a read hands out a uint8 word, not a bool one"),
    Mutant(_PROTOCOL, "code, p0 = codes[alpha], READOUT_P0[alpha]",
           "code, p0 = codes[alpha], READOUT_P0[1 - alpha]", (_READS,),
           "Monte-Carlo reads must measure in the basis of the string they decode"),
    Mutant(_PROTOCOL, "word = rng.random(bits0.shape) >= p0[bits0, bits1]",
           "word = rng.random(bits0.shape) >= p0[bits1, bits0]", (_READS,),
           "the table is indexed by (b0, b1): the first code's bit first"),
    Mutant(_PROTOCOL, "ranked[:, j] = per[order, j][np.sort(rank[idx], axis=1).T]",
           "ranked[:, j] = per[order, j][rank[idx].T]", (_SWEEP, _ENTRY_ORDER),
           "unsorted ranks add a strategy's values in entry order"),
    Mutant(_PROTOCOL, "return ranked.sum(axis=0)", "return ranked[::-1].sum(axis=0)",
           (_SWEEP,), "the float sort adds the sorted values from the smallest"),
    Mutant(_PROTOCOL, "row += len(self)", "row += len(self) - 1", (_ROWS,),
           "index -1 is the last row"),
    Mutant(_PROTOCOL, _VIEW_EQ, "return len(self) == len(other)", (_ROWS,),
           "sweeps of equal size but other figures or labels are not equal"),
    Mutant(_PROTOCOL, "*self._figures.tolist(), self._lesser.tolist()))",
           "*self._figures[::-1].tolist(), self._lesser.tolist()))",
           (_ROWS, _SWEEP,
            "tests/test_cli.py::test_leakage_csv_is_pinned[--m 9 --exhaustive --angles 0,0.5,1]"),
           "a row's fields take the figure columns in their order, ic_b0 first"),
    Mutant(_PROTOCOL, "quant.from_figures(self.ic_b0, self.ic_b1, self.cond_b0, self.cond_b1)",
           "quant.from_figures(self.ic_b0, self.ic_b1, self.cond_b1, self.cond_b1)",
           ("tests/test_protocol.py::test_leakage_sweep_reports_and_bounds", _SWEEP),
           "the conditional quantity reads both strings' conditional figures"),
    Mutant(_PROTOCOL, "cws = tuple(c.codewords for c in codes)",
           "cws = tuple(c.codewords for c in codes[::-1])",
           (_READS, "tests/test_cli.py::test_simulate_readme_payloads_pinned"),
           "qubit i of a sampled read encodes (code 0's bit, code 1's bit) in that order"),
    Mutant(_PROTOCOL, "return _ANGLES[self.c0, self.c1]", "return _ANGLES[self.c1, self.c0]",
           ("tests/test_protocol.py::test_otrm_prep_qubits_encode_codeword_pairs",
            "tests/test_protocol.py::test_round_trip_bytes_pinned"),
           "qubit i encodes the bit pair (c0[i], c1[i]) in that order"),
    Mutant("src/otmbench/collinfo.py", 'if "-" in ln and min(idx, default=0) < 0:',
           'if "-" in cells[0] and min(idx, default=0) < 0:',
           ("tests/test_collinfo.py::test_from_csv_reads_minus_signs_exactly",),
           "a negative index on a later axis wraps to the end of that axis"),
    Mutant(_SEEDS, _HASHMIX + "t = (t ^ t >> 16) & mask", _HASHMIX + "t = t ^ t >> 16",
           (_COINS,), "an unmasked xor-shift carries bits into the next lane"),
    Mutant(_SEEDS, "_LANE = 72", "_LANE = 64", (_COINS,),
           "64-bit lanes leave no room for a product's carries"),
    Mutant(_SEEDS, "_MIX_NEG_R = (1 << 32) - _MIX_MULT_R", "_MIX_NEG_R = _MIX_MULT_R", (_COINS,),
           "SeedSequence's mix subtracts the right-hand product"),
    Mutant(_SEEDS, "0 <= seed <= _M64:", "0 <= seed <= _M64 + 1:",
           ("tests/test_seeds.py::test_coin_bits_refuse_seeds_outside_the_kernel"
            "[0-18446744073709551616]",),
           "a seed of 2^64 spills out of its lane"),
    Mutant(_PROTOCOL, 'rng = np.random.default_rng(_check_int("seed", seed))',
           "rng = np.random.default_rng(seed)",
           ("tests/test_protocol.py::test_reads_refuse_non_integer_seeds[none]",
            "tests/test_protocol.py::test_reads_refuse_non_integer_seeds[bool]"),
           "a read seeded by None draws a fresh word each call, and True reads as 1"),
    Mutant("src/otmbench/f2codes.py", 'rng = np.random.default_rng(_check_int("seed", seed))',
           "rng = np.random.default_rng(seed)",
           ("tests/test_f2codes.py::test_code_draws_refuse_non_integer_seeds[none]",),
           "a code drawn from seed None differs from call to call"),
]

_COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
ROOT = Path(__file__).resolve().parents[1]


def _copy(dest: Path) -> Path:
    for name in _COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", "out", ".pytest_cache"))
        else:
            shutil.copy2(src, dest / name)
    return dest


def _failing(copy: Path, node_ids) -> set:
    """The node ids among these that fail or error in the copy."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *node_ids],
        cwd=copy, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        raise SystemExit(f"pytest could not run {node_ids}:\n{run.stdout}{run.stderr}")
    lines = run.stdout.splitlines()
    return {nid for nid in node_ids
            if any(line.split(" - ")[0] in (f"FAILED {nid}", f"ERROR {nid}") for line in lines)}


def main() -> int:
    every = sorted({nid for m in MUTANTS for nid in m.kills})
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy(Path(tmp) / "clean")
        broken = _failing(clean, every)
        if broken:
            print(f"tests that fail with no mutant: {sorted(broken)}")
            return 1
        survivors = []
        for i, m in enumerate(MUTANTS):
            copy = _copy(Path(tmp) / f"m{i}")
            path = copy / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"row {i}: old text occurs {text.count(m.old)} times in {m.file}")
                return 1
            path.write_text(text.replace(m.old, m.new))
            missed = set(m.kills) - _failing(copy, m.kills)
            status = "killed" if not missed else f"SURVIVED {sorted(missed)}"
            print(f"row {i} ({m.file}: {m.new!r}): {status}")
            if missed:
                survivors.append(i)
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
