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

CFG = EngineConfig(ckpt_groups=1)


@pytest.fixture
def four_doc_batches(monkeypatch):
    """Tokenize batches of at most four docs (the planner's row bound)."""
    from uci_searchengine_ray.pipelines import index_build

    monkeypatch.setattr(index_build, "batch_rows", lambda rows, ncpu: 4)


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


def test_huge_document(ray_session, tmp_path, four_doc_batches):
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


def test_empty_corpus_file(ray_session, tmp_path, four_doc_batches):
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
    from uci_searchengine_ray.state.docstore import DocStore, quarantine_listing

    assert DocStore(snap).fetch([1, 2, 3]) == {}
    # the failed-urls listing of a snapshot without doc_meta files is empty
    assert quarantine_listing(snap).to_pylist() == []


def test_doc_missing_from_doc_meta_fails_loudly(ray_session, tmp_path, monkeypatch,
                                                 four_doc_batches):
    """Fault injection: a doc_meta file rewritten without one row leaves
    postings whose ordinals no longer line up with the snapshot's doc list.
    Any query raises naming doc_meta, instead of scoring postings onto a
    neighbouring doc or serving a page row of the wrong one: the doc
    table's count check fires before any page fetch."""
    import glob

    from uci_searchengine_ray.pipelines.search import QueryScorer, score_bm25_wand
    from uci_searchengine_ray.state.docstore import DocStore

    corpus = _write(tmp_path, ["alpha shared", "beta shared", "gamma shared"])
    snap = str(tmp_path / "i")
    build_index(corpus, snap, CFG, mode="fresh")
    path = sorted(glob.glob(f"{snap}/doc_meta/**/*.parquet", recursive=True))[0]
    meta = pq.read_table(path)
    victim = meta["doc_id"][0].as_py()
    pi = PostingsIndex(snap)
    term = next(
        t for t in ("alpha", "beta", "gamma")
        if victim in pi.docs.ids[pi.postings(t)[0]].tolist()
    )
    pq.write_table(meta.slice(1), path)
    with pytest.raises(ValueError, match="doc_meta holds 2 docs"):
        score_bm25_taat(PostingsIndex(snap), f"{term} shared")
    with pytest.raises(ValueError, match="doc_meta"):
        score_bm25_wand(PostingsIndex(snap), "shared", top_k=1)
    with pytest.raises(ValueError, match="doc_meta"):
        score_reference(PostingsIndex(snap), term)
    fetched = []
    monkeypatch.setattr(DocStore, "fetch",
                        lambda self, ids, *a: fetched.append(ids) or {})
    with pytest.raises(ValueError, match="doc_meta holds 2 docs"):
        QueryScorer(snap, mode="bm25_wand").search(f"{term} shared")
    with pytest.raises(ValueError, match="doc_meta holds 2 docs"):
        QueryScorer(snap).search(term)
    assert fetched == []


def test_all_unindexable_corpus(ray_session, tmp_path, four_doc_batches):
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
    cfg = EngineConfig(ckpt_groups=1, store_content=False)
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
    build_index(corpus, idx, EngineConfig(mode="reference"),
                mode="fresh")
    with pytest.raises(ValueError, match="config drift"):
        build_index(
            corpus, idx,
            EngineConfig(mode="reference",
                         store_positions=True),
            mode="continue",
        )
    with pytest.raises(ValueError, match="config drift"):
        build_index(corpus, idx,
                    EngineConfig(mode="code"),
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


def _one_identity_in_two_files(tmp_path):
    """A corpus of two files, 3 docs each, where the third doc of the first
    file and the first doc of the second share one (repo, path, commit)
    identity; their contents share no term."""
    from uci_searchengine_ray.sources.corpus import synthetic_corpus_table

    tbl = synthetic_corpus_table(0, 6)
    twin = tbl.slice(2, 1).set_column(
        tbl.schema.get_field_index("content"), "content",
        pa.array(["zzqx_twin_only"], tbl.schema.field("content").type))
    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(tbl.slice(0, 3), str(d / "part-0.parquet"))
    pq.write_table(pa.concat_tables([twin, tbl.slice(3, 2)]),
                   str(d / "part-1.parquet"))
    return str(d)


@pytest.mark.parametrize("batch_size", [3, 1])
def test_duplicate_doc_id_across_batches_clear_error(ray_session, tmp_path,
                                                     monkeypatch, batch_size):
    """One identity in two tokenize batches fails the build.  In 3-doc
    batches the doc table holds the id twice; in 1-doc batches both
    batches name their files after it, so one would replace the other and
    lose a doc."""
    from uci_searchengine_ray.pipelines import index_build

    corpus = _one_identity_in_two_files(tmp_path)
    monkeypatch.setattr(index_build, "batch_rows", lambda rows, ncpu: batch_size)
    cfg = EngineConfig(mode="reference", ckpt_groups=1)
    with pytest.raises(ValueError, match="duplicate doc_id -?[0-9]+ in two corpus batches"):
        build_index(corpus, str(tmp_path / "i"), cfg, mode="fresh")


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


def _merge_run(term: str, ids, positional: bool = False):
    """One merge-input row dict (``RUN_SCHEMA`` plus its ``batch``) for a
    term's (tf=1) posting run of batch 0; with ``positional``, each
    posting's one position is 0."""
    import numpy as np

    from uci_searchengine_ray.functions import codecs

    ids = np.asarray(ids, dtype=np.int64)
    ones = np.ones(len(ids), dtype=np.int64)
    (ids_enc,), (tfs_enc,), (pos_enc,) = codecs.encode_postings(
        ids, ones, [0], ones - 1 if positional else None
    )
    return {
        "term": term,
        "merge_key": 0,
        "n": len(ids),
        "ids_enc": ids_enc,
        "tfs_enc": tfs_enc,
        "pos_enc": pos_enc,
        "batch": 0,
    }


def _merge_schema():
    import pyarrow as pa

    from uci_searchengine_ray.stages.postings import RUN_SCHEMA

    return RUN_SCHEMA.append(pa.field("batch", pa.int32()))


def test_duplicate_doc_id_on_block_boundary_rejected():
    """A duplicate landing EXACTLY on a block boundary must still raise.

    The encoder resets its ascending check at block starts, so
    before the explicit within-term validation this exact layout (merged
    postings [0..127, 127, 129] with block_size=128: positions 127/128
    straddle the boundary) was silently accepted — emitting two blocks that
    both hold doc 127, a doc the scorer would count twice.  The runs are of
    one batch of 130 docs whose ranks are their own ordinals."""
    import numpy as np
    import pyarrow as pa
    import pytest

    from uci_searchengine_ray.functions import codecs
    from uci_searchengine_ray.stages.postings import make_merge_shard

    merge = make_merge_shard(block_size=128)
    ordinals = np.arange(130)
    rows = [
        _merge_run("t", list(range(128))),          # docs 0..127
        _merge_run("t", [127, 129]),                # 127 again → boundary dup
    ]
    group = pa.Table.from_pylist(rows, schema=_merge_schema())
    with pytest.raises(ValueError, match="duplicate doc ordinal 127"):
        merge(group, ordinals, [0, 130])
    # same inputs without the duplicate merge cleanly into 2 blocks
    rows_ok = [
        _merge_run("t", list(range(128))),
        _merge_run("t", [128, 129]),
    ]
    group_ok = pa.Table.from_pylist(rows_ok, schema=_merge_schema())
    out = merge(group_ok, ordinals, [0, 130])
    assert out.num_rows == 2
    assert [codecs.decode_ids(b).tolist() for b in out["doc_ids"].to_pylist()] == [
        list(range(128)), [128, 129]
    ]
    # a run rank past its batch's doc count has no ordinal
    with pytest.raises(ValueError, match="doc rank 129 of a batch of 129 docs"):
        merge(group_ok, ordinals[:-1], [0, 129])


def test_merge_rejects_mixed_positional_runs_and_passes_empty_groups():
    """A block's positions must cover all of its postings or none, so a
    merge group mixing positional and non-positional runs is refused; an
    empty group merges to an empty block table."""
    import numpy as np
    import pyarrow as pa
    import pytest

    from uci_searchengine_ray.functions import codecs
    from uci_searchengine_ray.stages.postings import (
        BLOCK_SCHEMA, make_merge_shard)

    merge = make_merge_shard(block_size=4)
    ordinals, offsets = np.arange(10), [0, 10]
    mixed = pa.Table.from_pylist(
        [_merge_run("t", [1, 3], positional=True), _merge_run("t", [5])],
        schema=_merge_schema(),
    )
    with pytest.raises(ValueError, match="mixes positional and non-positional"):
        merge(mixed, ordinals, offsets)
    both = pa.Table.from_pylist(
        [_merge_run("t", [1, 3], positional=True),
         _merge_run("t", [5], positional=True)],
        schema=_merge_schema(),
    )
    positions = merge(both, ordinals, offsets)["positions"]
    assert len(positions) == 1
    assert [p.tolist() for p in codecs.decode_positions(positions, [1, 1, 1])] == [
        [0], [0], [0]]
    assert merge(_merge_schema().empty_table(), ordinals, offsets).equals(
        BLOCK_SCHEMA.empty_table())
