"""The pinned mutant set of tests/mutants.py still applies to the source.

The harness itself runs outside the tier-1 tests (about 70 s); this keeps
its list honest: a refactor that moves or rewrites a snippet fails here
until the list is updated.
"""

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_snippet_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert (ROOT / mutant.selection[0]).is_file()


def test_mutant_names_are_unique_and_equivalents_are_listed():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    assert set(EQUIVALENT) <= set(names)
