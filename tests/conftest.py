from collections import Counter

import pytest

from bookcoref import metrics
from bookcoref.formats import write_jsonl
from bookcoref.synthetic import make_reference_corpus


@pytest.fixture(scope="session")
def gold_corpus():
    """The calibrated three-book stand-in corpus (deterministic, seed 13)."""
    return make_reference_corpus()


@pytest.fixture(scope="session")
def gold_jsonl(gold_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "gold.jsonl"
    write_jsonl(gold_corpus, str(path))
    return str(path)


@pytest.fixture
def solver_calls(monkeypatch):
    """A Counter whose ``"solver"`` entry counts the calls of CEAF-phi4's
    assignment solver while the test runs."""
    calls = Counter()
    real = metrics.linear_sum_assignment

    def counting(*args, **kwargs):
        calls["solver"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "linear_sum_assignment", counting)
    return calls
