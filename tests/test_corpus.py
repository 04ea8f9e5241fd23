"""The differential corpus (``tests/data/corpus.py``): every seeded case
still has the outcome pinned in ``tests/data/corpus.json``.

A case that differs prints its input and both outcomes. After a change
to an outcome on purpose, regenerate the file with
``PYTHONPATH=src python tests/data/corpus.py`` and review its diff.
"""

import importlib.util
import json
from itertools import groupby

import pytest

from conftest import REPO_ROOT

_SPEC = importlib.util.spec_from_file_location("corpus", REPO_ROOT / "tests" / "data" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)

PINNED = {record["id"]: record
          for record in json.loads(corpus.CORPUS_PATH.read_text(encoding="utf-8"))}
CATEGORIES = {category: list(cases) for category, cases in groupby(
    corpus.cases(), key=lambda case: case[0].rsplit("/", 1)[0])}


def test_the_corpus_holds_every_case_once():
    ids = [case_id for cases in CATEGORIES.values() for case_id, _, _ in cases]
    assert len(ids) == len(set(ids)) == len(PINNED)
    assert set(ids) == set(PINNED)


@pytest.mark.parametrize("category", CATEGORIES)
def test_corpus_outcomes_are_unchanged(category):
    differing = []
    for case_id, value, run in CATEGORIES[category]:
        now = corpus.record(case_id, value, run)
        if now != PINNED.get(case_id):
            differing.append(f"{case_id}\n  input:  {corpus.describe_input(value)[:400]!r}\n"
                             f"  pinned: {PINNED.get(case_id)}\n  now:    {now}")
    assert not differing, f"{len(differing)} case(s) differ:\n" + "\n".join(differing[:5])
