"""The mutant table stays aimed at code and tests that exist."""

from pathlib import Path
import re

from mutants import MUTANTS, ROOT


def test_each_mutant_old_text_occurs_once():
    for m in MUTANTS:
        assert m.file.startswith("src/"), m
        assert (ROOT / m.file).read_text().count(m.old) == 1, m
        assert m.new != m.old and m.kills and m.reason, m


def test_each_mutant_names_tests_that_exist():
    for m in MUTANTS:
        for nid in m.kills:
            path, name = nid.split("::")
            func = re.match(r"\w+", name).group(0)
            assert f"def {func}(" in Path(ROOT / path).read_text(), nid
