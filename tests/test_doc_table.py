"""One doc table per scorer: a ``QueryScorer`` opens each ``doc_meta`` file
once, and its index and its page lookups share the one sorted id array."""

import glob
import os

import pyarrow.parquet as pq
import pytest

from uci_searchengine_ray.pipelines.search import QueryScorer


@pytest.fixture
def doc_meta_opens(monkeypatch):
    """The paths of the ``pq.ParquetFile`` opens under ``doc_meta``."""
    calls = []
    real = pq.ParquetFile.__init__

    def counting(self, source, *args, **kwargs):
        if "doc_meta" in str(source):
            calls.append(str(source))
        real(self, source, *args, **kwargs)

    monkeypatch.setattr(pq.ParquetFile, "__init__", counting)
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
    files = glob.glob(os.path.join(built_index, "doc_meta", "*", "*.parquet"))
    assert files and sorted(doc_meta_opens) == sorted(files)
    if with_snippets:
        assert scorer.docstore.ids is scorer.index.docs.ids
        assert all(r["url"] for r in env["results"])
