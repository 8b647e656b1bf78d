"""One doc table per scorer: a ``QueryScorer`` opens ``doc_meta`` once, and
its index and its page lookups share the one sorted id array."""

import pyarrow.dataset as pa_ds
import pytest

from uci_searchengine_ray.pipelines.search import QueryScorer


@pytest.fixture
def doc_meta_opens(monkeypatch):
    """The ``pyarrow.dataset.dataset`` calls that open ``doc_meta``."""
    calls = []
    real = pa_ds.dataset

    def counting(source, *args, **kwargs):
        if "doc_meta" in str(source):
            calls.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(pa_ds, "dataset", counting)
    return calls


@pytest.mark.parametrize("mode, with_snippets", [
    ("bm25_wand", True),
    ("bm25_wand", False),
    ("reference", True),
    ("reference", False),
])
def test_scorer_reads_doc_meta_once(built_index, doc_meta_opens, mode,
                                    with_snippets):
    scorer = QueryScorer(built_index, mode=mode, with_snippets=with_snippets)
    env = scorer.search("return self value")
    assert env["total_results"] > 0 and env["results"]
    assert len(doc_meta_opens) == 1
    if with_snippets:
        assert scorer.docstore.ids is scorer.index.docs.ids
        assert all(r["url"] for r in env["results"])
