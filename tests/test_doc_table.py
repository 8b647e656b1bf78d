"""One doc table per scorer: a ``QueryScorer`` opens each ``doc_meta`` file
once, and its index and its page lookups share the one sorted id array.
The table's Arrow↔numpy helpers agree with pyarrow's own conversions."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from uci_searchengine_ray.pipelines.search import QueryScorer
from uci_searchengine_ray.state.docstore import (
    PAGE_COLUMNS, DocStore, int64_array, int64_view, string_array)


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


@pytest.mark.parametrize("col", [
    pa.array(np.arange(10, dtype=np.int64) * 7 - 20).slice(3, 4),
    pa.chunked_array([pa.array([5, -1], pa.int64()),
                      pa.array([2**62, 0, 3], pa.int64()).slice(1)]),
    pa.chunked_array([pa.array([9], pa.int64())]),
    pa.chunked_array([], pa.int64()),
    pa.array([], pa.int64()),
], ids=["sliced", "multi_chunk", "one_chunk", "no_chunks", "empty"])
def test_int64_view_matches_to_numpy(col):
    view = int64_view(col)
    assert view.dtype == np.int64
    np.testing.assert_array_equal(view, col.to_numpy())


def test_int64_view_is_read_only():
    view = int64_view(pa.array([1, 2, 3], pa.int64()))
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0] = 7


def test_int64_view_rejects_nulls_and_other_types():
    with pytest.raises(ValueError, match="null"):
        int64_view(pa.chunked_array([pa.array([1, None], pa.int64())]))
    with pytest.raises(TypeError, match="int64"):
        int64_view(pa.array([1, 2], pa.int32()))


def test_int64_array_round_trips():
    values = np.arange(12, dtype=np.int64)[::3]  # not contiguous
    arr = int64_array(values)
    assert arr.equals(pa.array(values))
    assert int64_array(np.empty(0, np.int64)).equals(pa.array([], pa.int64()))


@pytest.mark.parametrize("terms", [
    ["héllo", "日本語", "naïve"],
    ["", "x"],
    ["dup", "dup", "héllo", ""],
    [],
])
def test_string_array_matches_pa_array_in_is_in(terms):
    hay = pa.array(["héllo", "", "dup", "x", "日本語", "hello", "naïve",
                    "dupe", None])
    got = string_array(terms)
    assert got.equals(pa.array(terms, pa.string()))
    assert pc.is_in(hay, value_set=got).equals(
        pc.is_in(hay, value_set=pa.array(terms, pa.string())))


def test_fetch_spans_doc_meta_files(built_index):
    """A page whose rows sit in several ``doc_meta`` files comes back as
    those files store them."""
    files = sorted(glob.glob(os.path.join(built_index, "doc_meta", "*",
                                          "*.parquet")))
    assert len(files) > 1
    want = {}
    for f in files:
        rows = pq.read_table(f, columns=list(PAGE_COLUMNS)).to_pylist()
        want.update((r["doc_id"], r) for r in rows[::37])
    ids = list(want) + [12345]  # one id the store lacks
    got = DocStore(built_index).fetch(ids)
    assert got == want
    assert DocStore(built_index).fetch(ids, columns=("url",)) == {
        d: {"url": r["url"]} for d, r in want.items()}
