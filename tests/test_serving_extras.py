"""Per-shard index loading, quarantine listing, catalog-served queries."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.functions.hashing import term_shard
from uci_searchengine_ray.pipelines.index_build import build_index, load_stats
from uci_searchengine_ray.pipelines.search import PostingsIndex, score_reference
from uci_searchengine_ray.state.docstore import quarantine_listing


def test_shard_restricted_loading(built_index):
    stats = load_stats(built_index)
    n_shards = stats["num_shards"]
    full = PostingsIndex(built_index)
    part = PostingsIndex(built_index, shards=[0])
    # the restricted view holds exactly the terms hashed to shard 0
    expect = {t for t in full.terms() if term_shard(t, n_shards) == 0}
    assert set(part.terms()) == expect
    assert 0 < len(expect) < len(list(full.terms()))
    # dfs agree on the loaded subset (placement does not change postings)
    for t in list(expect)[:20]:
        assert part.df(t) == full.df(t)


def test_sharded_scatter_gather_union(built_index):
    """Scoring per shard and merging reproduces the full-index OR-union for
    single-term queries routed to their shard (partition-aware serving)."""
    stats = load_stats(built_index)
    full = PostingsIndex(built_index)
    term = "return"
    shard = term_shard(term, stats["num_shards"])
    view = PostingsIndex(built_index, shards=[shard])
    ids_a, sc_a = score_reference(full, term)
    ids_b, sc_b = score_reference(view, term)
    assert list(ids_a) == list(ids_b)
    import numpy as np

    np.testing.assert_allclose(sc_a, sc_b)


def test_quarantine_listing(ray_session, tmp_path):
    corpus = tmp_path / "qcorpus"
    corpus.mkdir()
    tbl = pa.table(
        {
            "repo": pa.array(["o/r"] * 4, pa.string()),
            "path": pa.array([f"f{i}.py" for i in range(4)], pa.string()),
            "commit": pa.array(["c"] * 4, pa.string()),
            "lang": pa.array(["py"] * 4, pa.string()),
            "content": pa.array(["ok text", None, "more words", None],
                                pa.large_string()),
        }
    )
    pq.write_table(tbl, str(corpus / "part-0.parquet"))
    snap = str(tmp_path / "qsnap")
    cfg = EngineConfig(mode="reference", ckpt_groups=1, num_shards=2)
    build_index(str(corpus), snap, cfg, mode="fresh")

    listed = quarantine_listing(snap)
    assert listed.num_rows == 2
    assert all(listed["failed"].to_pylist())
    ids = listed["doc_id"].to_pylist()
    assert ids == sorted(ids)
    # failed docs still count toward N (reference counts uncrawled stubs)
    assert load_stats(snap)["n_docs"] == 4
