"""Cluster-real storage abstraction tests (VERDICT r1 item #1): the full
build → resume → query path must work through a GENERIC ``pyarrow.fs``
filesystem — not the POSIX fast path.

The stand-in for an object store is ``PyFileSystem(FSSpecHandler(local))``
registered under a custom ``mockfs://`` scheme: pyarrow treats it as a fully
generic (non-LocalFileSystem) filesystem, so the code takes the object-store
branches everywhere (no ``glob``/``os.replace``/POSIX rename; per-row manifest
objects; direct-write + manifest-commit protocol), while files still land on
disk where a second process (a Ray worker) can see them.
"""

import numpy as np
import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines.index_build import build_index, load_stats
from uci_searchengine_ray.pipelines.search import (
    PostingsIndex,
    score_bm25_taat,
    score_reference,
    search_one,
)
from uci_searchengine_ray.sources.corpus import write_synthetic_corpus
from uci_searchengine_ray.state import manifest, storage

N_DOCS = 240


@pytest.fixture(scope="module")
def mockfs_scheme(tmp_path_factory):
    """Register mockfs:// → fsspec-wrapped local FS rooted at a tmp dir."""
    rootdir = str(tmp_path_factory.mktemp("mockfs_root"))

    def resolver(uri: str):
        import fsspec
        from pyarrow import fs as pafs

        rel = uri.split("://", 1)[1]
        return (
            pafs.PyFileSystem(pafs.FSSpecHandler(fsspec.filesystem("file"))),
            rootdir + "/" + rel,
        )

    storage.register_scheme("mockfs", resolver)
    return rootdir


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fs_corpus"))
    write_synthetic_corpus(d, n_docs=N_DOCS, n_files=4)
    return d


def test_generic_fs_is_not_local(mockfs_scheme):
    fs, path = storage.resolve("mockfs://x/y")
    assert not storage.is_local(fs)
    assert path.endswith("/x/y")


def test_build_and_query_through_generic_fs(
    ray_session, mockfs_scheme, corpus, tmp_path
):
    cfg = EngineConfig(mode="reference", block_size=32,
                      ckpt_groups=2)
    local_idx = str(tmp_path / "idx_local")
    build_index(corpus, local_idx, cfg, mode="fresh")
    remote_idx = "mockfs://snapshots/idx_a"
    build_index(corpus, remote_idx, cfg, mode="fresh")

    # identical stats + identical search results local vs generic-fs snapshot
    sl, sr = load_stats(local_idx), load_stats(remote_idx)
    assert sl == sr
    pl, pr = PostingsIndex(local_idx), PostingsIndex(remote_idx)
    for q in ["return value", "the self", "x", "zzz_nothing"]:
        il, cl = score_reference(pl, q)
        ir, cr = score_reference(pr, q)
        assert np.array_equal(il, ir)
        assert np.allclose(cl, cr, rtol=0, atol=0)
        il, cl = score_bm25_taat(pl, q)
        ir, cr = score_bm25_taat(pr, q)
        assert np.array_equal(il, ir) and np.array_equal(cl, cr)

    # snippet/doc-store path (DocStore over generic fs)
    out = search_one(remote_idx, "return value", per_page=3)
    assert out["total_results"] > 0 and out["results"][0]["snippet"]

    # manifest lives as per-row objects (no JSONL append on object stores)
    fs, root = storage.resolve(remote_idx)
    rows_dir = storage.join(root, "_manifest", "rows")
    assert storage.ls_files(fs, rows_dir, suffix=".json")
    assert not storage.exists(
        fs, storage.join(root, "_manifest", "manifest.jsonl")
    )
    assert manifest.completed(remote_idx, "postings") == {"all"}


def test_resume_noop_and_rebuild_through_generic_fs(
    ray_session, mockfs_scheme, corpus
):
    import time

    cfg = EngineConfig(mode="reference", block_size=32,
                      ckpt_groups=2)
    idx = "mockfs://snapshots/idx_resume"
    build_index(corpus, idx, cfg, mode="fresh")
    stats1 = load_stats(idx)

    # continue on a finished build = manifest no-op (fast, same stats)
    t0 = time.perf_counter()
    build_index(corpus, idx, cfg, mode="continue")
    assert time.perf_counter() - t0 < 5.0
    assert load_stats(idx) == stats1

    # rebuild redoes the merge from kept runs; results identical
    build_index(corpus, idx, cfg, mode="rebuild")
    assert load_stats(idx) == stats1
    p = PostingsIndex(idx)
    ids, scores = score_reference(p, "return value")
    assert len(ids) > 0


def test_partial_build_resumes_missing_groups(
    ray_session, mockfs_scheme, corpus
):
    """Crash-mid-build simulation on the generic fs: drop one group's
    manifest row + outputs, resume, and get identical final stats."""
    cfg = EngineConfig(mode="reference", block_size=32,
                      ckpt_groups=2)
    idx = "mockfs://snapshots/idx_partial"
    build_index(corpus, idx, cfg, mode="fresh")
    stats1 = load_stats(idx)

    fs, root = storage.resolve(idx)
    # simulate a crash after group=0: remove group=1 outputs + its row +
    # the postings stage (as if the job died before the merge)
    rows = [
        r
        for r in manifest.read_rows(idx)
        if not (
            r.get("stage") == "runs" and r.get("partition") == "group=1"
        )
        and r.get("stage") != "postings"
    ]
    storage.rm_tree(fs, storage.join(root, "_manifest"))
    for r in rows:
        manifest.append_row(idx, r)
    storage.rm_tree(fs, storage.join(root, "runs", "group=1"))
    storage.rm_tree(fs, storage.join(root, "doc_meta", "group=1"))
    storage.rm_tree(fs, storage.join(root, "postings"))

    build_index(corpus, idx, cfg, mode="continue")
    assert load_stats(idx) == stats1


def test_incremental_ingest_through_generic_fs(
    ray_session, mockfs_scheme, tmp_path
):
    """Grown corpus + mode=continue on the generic fs (exercises the per-row
    manifest drop/rewrite path): result equals a fresh full build."""
    import pyarrow.parquet as pq

    from uci_searchengine_ray.pipelines.search import (
        PostingsIndex,
        score_reference,
    )
    from uci_searchengine_ray.sources.corpus import synthetic_corpus_table

    cfg = EngineConfig(mode="reference", block_size=32,
                      ckpt_groups=3)
    cdir = str(tmp_path / "corpus")
    write_synthetic_corpus(cdir, n_docs=160, n_files=4)
    idx = "mockfs://snapshots/idx_incr"
    build_index(cdir, idx, cfg, mode="fresh")
    assert load_stats(idx)["n_docs"] == 160

    pq.write_table(synthetic_corpus_table(160, 220), f"{cdir}/part-90.parquet")
    build_index(cdir, idx, cfg, mode="continue")
    s2 = load_stats(idx)
    assert s2["n_docs"] == 220

    full = str(tmp_path / "idx_full")
    build_index(cdir, full, cfg, mode="fresh")
    s3 = load_stats(full)
    assert (s2["n_docs"], s2["total_tokens"], s2["n_terms"]) == (
        s3["n_docs"], s3["total_tokens"], s3["n_terms"]
    )
    a, b = PostingsIndex(idx), PostingsIndex(full)
    for q in ["return value", "the self"]:
        ia, ca = score_reference(a, q)
        ib, cb = score_reference(b, q)
        assert np.array_equal(ia, ib) and np.array_equal(ca, cb)


@pytest.mark.parametrize("where", ["local", "mockfs"])
def test_drop_stage_partitions_keeps_other_rows_in_order(
    mockfs_scheme, tmp_path, where
):
    """Dropping one runs partition out of three rewrites the manifest once:
    the other rows (both stages) survive, in their original order."""
    idx = (
        str(tmp_path / "m")
        if where == "local"
        else f"mockfs://manifests/{tmp_path.name}"
    )
    rows = [
        {"stage": "runs", "partition": "group=0", "status": "done", "docs": 1},
        {"stage": "postings", "partition": "all", "status": "done"},
        {"stage": "runs", "partition": "group=1", "status": "done", "docs": 2},
        {"stage": "runs", "partition": "group=2", "status": "done", "docs": 3},
    ]
    for r in rows:
        manifest.append_row(idx, r)
    manifest.drop_stage(idx, "runs", partitions=["group=1"])
    assert manifest.read_rows(idx) == [rows[0], rows[1], rows[3]]
    assert manifest.completed(idx, "runs") == {"group=0", "group=2"}
    # without partitions= the whole stage goes
    manifest.drop_stage(idx, "runs")
    assert manifest.read_rows(idx) == [rows[1]]


@pytest.mark.parametrize("where", ["local", "mockfs"])
def test_parquet_rows_recursive_on_path_or_uri(mockfs_scheme, tmp_path, where):
    import pyarrow as pa
    import pyarrow.parquet as pq

    uri = (
        str(tmp_path / "t")
        if where == "local"
        else f"mockfs://rows/{tmp_path.name}"
    )
    fs, root = storage.resolve(uri)
    for sub, n in (("a=0", 3), ("a=1/b=2", 5)):
        d = storage.join(root, sub)
        storage.makedirs(fs, d)
        pq.write_table(
            pa.table({"x": list(range(n))}),
            storage.join(d, "part-0.parquet"),
            filesystem=fs,
        )
    assert storage.parquet_rows(uri) == 8
    assert storage.parquet_rows(root, fs) == 8
    assert storage.parquet_rows(storage.join(uri, "a=1/b=2/part-0.parquet")) == 5
