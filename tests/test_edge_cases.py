"""Robustness edges: very large documents, empty corpora, empty-result
serving."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines.index_build import build_index, load_stats
from uci_searchengine_ray.pipelines.search import (
    PostingsIndex,
    score_bm25_taat,
    score_reference,
    search_one,
)

CFG = EngineConfig(ckpt_groups=1, num_shards=2, num_merge_groups=4,
                   tokenize_batch_size=4)


def _write(tmp_path, contents):
    n = len(contents)
    tbl = pa.table(
        {
            "repo": pa.array(["o/r"] * n), "path": pa.array([f"f{i}" for i in range(n)]),
            "commit": pa.array(["c"] * n), "lang": pa.array(["py"] * n),
            "content": pa.array(contents, pa.large_string()),
        }
    )
    d = tmp_path / "c"
    d.mkdir(exist_ok=True)
    pq.write_table(tbl, str(d / "p.parquet"))
    return str(d)


def test_huge_document(ray_session, tmp_path):
    """A multi-MB source file flows through tokenize/encode/serve intact."""
    big = ("def very_long_function_name x y z return value " * 120_000)  # ~5.5 MB
    # 3 docs so idf = ln(N/(df+1)) = ln(3/2) > 0 (with N=2 the reference's
    # own formula zeroes a df=1 term and the score>0 filter drops it)
    corpus = _write(tmp_path, [big, "tiny doc return", "other words"])
    snap = str(tmp_path / "i")
    build_index(corpus, snap, CFG, mode="fresh")
    stats = load_stats(snap)
    assert stats["n_docs"] == 3
    assert stats["total_tokens"] == 120_000 * 7 + 3 + 2
    idx = PostingsIndex(snap)
    ids, scores = score_reference(idx, "very_long_function_name")
    assert len(ids) == 1
    # 960k postings for one term in one doc → many blocks, all ascending
    assert idx.df("return") == 2


def test_empty_corpus_file(ray_session, tmp_path):
    corpus = _write(tmp_path, [])
    snap = str(tmp_path / "i0")
    build_index(corpus, snap, CFG, mode="fresh")
    stats = load_stats(snap)
    assert stats["n_docs"] == 0 and stats["n_terms"] == 0
    idx = PostingsIndex(snap)
    ids, _ = score_reference(idx, "anything")
    assert len(ids) == 0
    ids, _ = score_bm25_taat(idx, "anything")
    assert len(ids) == 0
    env = search_one(snap, "anything")
    assert env["total_results"] == 0 and env["results"] == []
    from uci_searchengine_ray.state.docstore import DocStore

    assert DocStore(snap).fetch([1, 2, 3]) == {}


def test_all_unindexable_corpus(ray_session, tmp_path):
    """Docs exist but none tokenize: N counts them, index is empty."""
    corpus = _write(tmp_path, ["", "!!! ...", "   "])
    snap = str(tmp_path / "i1")
    build_index(corpus, snap, CFG, mode="fresh")
    stats = load_stats(snap)
    assert stats["n_docs"] == 3 and stats["n_terms"] == 0
    assert stats["avgdl"] == 0.0


def test_store_content_false(ray_session, tmp_path):
    """Lake-scale forward store: metadata only, serving degrades gracefully."""
    from uci_searchengine_ray.state.docstore import DocStore

    corpus = _write(tmp_path, ["alpha beta gamma", "beta gamma delta", "x y"])
    snap = str(tmp_path / "inc")
    cfg = EngineConfig(ckpt_groups=1, num_shards=2, num_merge_groups=4,
                       store_content=False)
    build_index(corpus, snap, cfg, mode="fresh")
    idx = PostingsIndex(snap)
    ids, scores = score_reference(idx, "alpha")
    assert len(ids) == 1
    store = DocStore(snap)
    row = store.fetch(ids.tolist())[int(ids[0])]
    assert "content" not in row and row["title"]
    env = search_one(snap, "alpha", per_page=5)
    assert env["total_results"] == 1
    assert env["results"][0]["snippet"] == "..."  # no-content fallback


def _scan_fetch(snap, ids):
    """The doc_meta rows for ``ids`` straight from a filtered parquet scan."""
    import os

    import pyarrow.compute as pc
    import pyarrow.dataset as pa_ds

    tbl = pa_ds.dataset(os.path.join(snap, "doc_meta"), format="parquet").to_table(
        columns=["doc_id", "url", "title", "content"],
        filter=pc.field("doc_id").isin(ids),
    )
    return {r["doc_id"]: r for r in tbl.to_pylist()}


def test_docstore_fetch_matches_scan(built_index):
    """Resident lookups over a multi-group snapshot equal a filtered scan:
    random pages, ids the store lacks, duplicate ids and an empty page."""
    import glob
    import os
    import random

    import pyarrow.dataset as pa_ds

    from uci_searchengine_ray.state.docstore import DocStore

    assert len(glob.glob(os.path.join(built_index, "doc_meta", "group=*"))) > 1
    all_ids = pa_ds.dataset(
        os.path.join(built_index, "doc_meta"), format="parquet"
    ).to_table(columns=["doc_id"])["doc_id"].to_pylist()
    store = DocStore(built_index)
    rng = random.Random(7)
    missing = sorted({0, 1, -5, 2**62 + 3, max(all_ids) + 1} - set(all_ids))
    pages = [rng.sample(all_ids, 10) for _ in range(20)]
    pages += [
        rng.sample(all_ids, 4) + missing,   # ids absent from the store
        missing,                            # nothing found
        [all_ids[3]] * 3 + all_ids[5:8] + [all_ids[5]],  # duplicates
        [],
        all_ids,                            # the whole store
    ]
    for page in pages:
        assert store.fetch(page) == _scan_fetch(built_index, page)
    assert store.fetch([]) == {}
    row = store.fetch(all_ids[:1], columns=("title",))[all_ids[0]]
    assert list(row) == ["title"]
    with pytest.raises(KeyError):  # doc_meta has lang, but not resident
        store.fetch(all_ids[:1], columns=("doc_id", "lang"))


def test_config_drift_rejected_on_continue(ray_session, tmp_path):
    """Resuming with run-shaping knobs that differ from the pinned
    build_config must fail clearly, not merge incompatible runs."""
    import pytest

    from uci_searchengine_ray.config import EngineConfig
    from uci_searchengine_ray.pipelines.index_build import build_index
    from uci_searchengine_ray.sources.corpus import write_synthetic_corpus

    corpus = write_synthetic_corpus(str(tmp_path / "c"), n_docs=60, n_files=2)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, EngineConfig(mode="reference", num_merge_groups=4),
                mode="fresh")
    with pytest.raises(ValueError, match="config drift"):
        build_index(
            corpus, idx,
            EngineConfig(mode="reference", num_merge_groups=4,
                         store_positions=True),
            mode="continue",
        )
    with pytest.raises(ValueError, match="config drift"):
        build_index(corpus, idx,
                    EngineConfig(mode="code", num_merge_groups=4),
                    mode="rebuild")


def test_duplicate_doc_id_clear_error(ray_session, tmp_path):
    """Duplicate (repo, path, commit) identity fails with a diagnosable
    message, not a codec internal."""
    import pyarrow.parquet as pq
    import pytest

    from uci_searchengine_ray.config import EngineConfig
    from uci_searchengine_ray.pipelines.index_build import build_index
    from uci_searchengine_ray.sources.corpus import synthetic_corpus_table

    import pyarrow as pa

    tbl = synthetic_corpus_table(0, 30)
    dup = pa.concat_tables([tbl, tbl.slice(0, 1)])  # repeat one identity
    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(dup, str(d / "part-0.parquet"))
    with pytest.raises(Exception, match="duplicate doc_id"):
        build_index(str(d), str(tmp_path / "i"),
                    EngineConfig(mode="reference"), mode="fresh")


def test_catalog_register_same_second_collisions(tmp_path):
    from uci_searchengine_ray.sources.catalog import SnapshotCatalog

    cat = SnapshotCatalog(str(tmp_path / "cat"))
    names = []
    for i in range(3):
        src = tmp_path / f"snap{i}"
        src.mkdir()
        (src / "stats.json").write_text("{}")
        names.append(cat.register("snap", str(src), move=True))
    assert len(set(names)) == 3  # three distinct names, nothing nested
    listed = {d["name"] for d in cat.list()}
    assert set(names) <= listed


def _merge_run(term: str, ids):
    """One RUN_SCHEMA row dict for a term's (tf=1, dl=1) posting run."""
    import numpy as np

    from uci_searchengine_ray.functions import codecs

    ids = np.asarray(ids, dtype=np.int64)
    starts = np.array([0], dtype=np.int64)
    ones = np.ones(len(ids), dtype=np.int64)
    return {
        "term": term,
        "merge_key": 0,
        "range_bucket": 0,
        "n": len(ids),
        "tf_sum": len(ids),
        "ids_enc": codecs.varbyte_encode_segments(
            codecs.delta_encode_segments(ids, starts), starts
        )[0],
        "tfs_enc": codecs.varbyte_encode_segments(ones, starts)[0],
        "dls_enc": codecs.varbyte_encode_segments(ones, starts)[0],
        "pos_enc": b"",
    }


def test_duplicate_doc_id_on_block_boundary_rejected():
    """A duplicate landing EXACTLY on a block boundary must still raise.

    delta_encode_segments resets its ascending check at block starts, so
    before the explicit within-term validation this exact layout (merged
    postings [0..127, 127, 129] with block_size=128: positions 127/128
    straddle the boundary) was silently accepted — emitting blocks with
    last_doc(i) == first_doc(i+1) that break WAND/TAAT bit-identity."""
    import pyarrow as pa
    import pytest

    from uci_searchengine_ray.stages.postings import RUN_SCHEMA, make_merge_shard

    merge = make_merge_shard(
        n_docs=200, avgdl=1.0, block_size=128, num_shards=1, k1=1.2, b=0.75
    )
    rows = [
        _merge_run("t", list(range(128))),          # docs 0..127
        _merge_run("t", [127, 129]),                # 127 again → boundary dup
    ]
    group = pa.Table.from_pylist(rows, schema=RUN_SCHEMA)
    with pytest.raises(ValueError, match="duplicate doc_id 127"):
        merge(group)
    # same inputs without the duplicate merge cleanly into 2 blocks
    rows_ok = [
        _merge_run("t", list(range(128))),
        _merge_run("t", [128, 129]),
    ]
    out = merge(pa.Table.from_pylist(rows_ok, schema=RUN_SCHEMA))
    assert out.num_rows == 2
    assert out["first_doc"].to_pylist() == [0, 128]
    assert out["last_doc"].to_pylist() == [127, 129]
