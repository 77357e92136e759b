"""The mutation gate's table (`tests/run_mutants.py`) against the
sources: every mutant's old text occurs exactly once in its file, its
replacement differs, and its test files exist, so a source edit that
moves a mutant's text fails here instead of leaving the table stale.
The mutants themselves run outside tier-1: `python3 tests/run_mutants.py`.
"""

import pytest

from run_mutants import MUTANTS, PACKAGE, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests and all((ROOT / t).is_file() for t in mutant.tests)
