"""Incremental ingest: mode=continue with a grown corpus rebuilds only the
groups whose membership changed, re-merges, and matches a fresh full build
(the reference's mode=continue semantics at index level)."""

import glob
import os
import shutil

import pyarrow.dataset as pa_ds
import pyarrow.parquet as pq
import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.sources.corpus import synthetic_corpus_table
from uci_searchengine_ray.state import manifest

CFG = EngineConfig(mode="reference", block_size=16, ckpt_groups=4)


def _write_files(out_dir, n_files, docs_per_file):
    os.makedirs(out_dir, exist_ok=True)
    for f in range(n_files):
        lo = f * docs_per_file
        pq.write_table(
            synthetic_corpus_table(lo, lo + docs_per_file),
            os.path.join(out_dir, f"part-{f:05d}.parquet"),
        )


def _digest(path, skip=()):
    import hashlib

    import pyarrow.compute as pc
    import pyarrow.dataset as pa_ds

    tbl = pa_ds.dataset(
        os.path.join(path, "postings"), format="parquet", partitioning="hive"
    ).to_table().drop_columns(list(skip))
    idx = pc.sort_indices(tbl, sort_keys=[("term", "ascending"), ("block_id", "ascending")])
    tbl = tbl.take(idx).select(sorted(tbl.column_names))
    h = hashlib.sha256()
    for batch in tbl.to_batches():
        for col in batch.columns:
            h.update(str(col.to_pylist()).encode())
    return h.hexdigest()


def test_incremental_ingest_matches_fresh(ray_session, tmp_path):
    corpus = str(tmp_path / "corpus")
    _write_files(corpus, n_files=6, docs_per_file=40)

    inc = str(tmp_path / "inc")
    build_index(corpus, inc, CFG, mode="fresh")
    rows_before = {
        str(r["partition"]): r for r in manifest.stage_metrics(inc, "runs")
    }

    # corpus grows by two files → continue
    _write_files(corpus, n_files=8, docs_per_file=40)
    build_index(corpus, inc, CFG, mode="continue")

    # groups whose membership did not change were NOT rebuilt (docs equal,
    # manifest row identical), changed ones were
    rows_after = {
        str(r["partition"]): r for r in manifest.stage_metrics(inc, "runs")
    }
    unchanged = [
        p for p in rows_before
        if rows_before[p].get("inputs") == rows_after.get(p, {}).get("inputs")
    ]
    changed = [p for p in rows_after if p not in unchanged]
    assert changed, "new files must land in at least one group"
    assert unchanged, "hash grouping must keep some groups untouched"

    # result identical to a fresh build over the full corpus
    fresh = str(tmp_path / "fresh")
    build_index(corpus, fresh, CFG, mode="fresh")
    assert _digest(inc) == _digest(fresh)

    from uci_searchengine_ray.pipelines.index_build import load_stats

    assert load_stats(inc)["n_docs"] == 8 * 40


def test_stale_postings_detected_by_fingerprint(ray_session, tmp_path):
    corpus = str(tmp_path / "c2")
    _write_files(corpus, n_files=4, docs_per_file=30)
    snap = str(tmp_path / "s2")
    build_index(corpus, snap, CFG, mode="fresh")

    # simulate: a group re-ran (different docs count) but the process died
    # before re-merging — postings row still says done with old fingerprint
    rows = manifest.read_rows(snap)
    runs = [r for r in rows if r["stage"] == "runs"]
    victim = runs[0]
    manifest.drop_stage(snap, "runs")
    for r in runs:
        if r is victim:
            r = dict(r, tokens=r["tokens"] + 1)  # content changed marker
        manifest.append_row(snap, r)

    build_index(corpus, snap, CFG, mode="continue")
    # continue must have re-merged: postings fingerprint matches current runs
    post = manifest.stage_metrics(snap, "postings")
    assert post and "runs_fp" in post[-1]


def test_shrunk_corpus_drops_stale_groups(ray_session, tmp_path):
    """mode=continue after FILE REMOVAL must not double-count: a prior
    checkpoint group left empty (or out of range) by the new hash
    assignment is reconciled away — stats and postings match a fresh build
    of the shrunk corpus byte-for-byte."""
    from uci_searchengine_ray.pipelines.index_build import load_stats

    corpus = str(tmp_path / "corpus")
    _write_files(corpus, n_files=4, docs_per_file=50)
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, CFG, mode="fresh")
    n_full = load_stats(idx)["n_docs"]
    assert n_full == 200

    # remove three files: group count min(4, 1) = 1 reshuffles everything
    for f in sorted(os.listdir(corpus))[1:]:
        os.remove(os.path.join(corpus, f))
    build_index(corpus, idx, CFG, mode="continue")
    st = load_stats(idx)
    assert st["n_docs"] == 50  # not 50 + stale groups

    fresh = str(tmp_path / "idx_fresh")
    build_index(corpus, fresh, CFG, mode="fresh")
    assert _digest(idx) == _digest(fresh)
    assert load_stats(fresh) == st


def test_plan_sizes_groups_and_keys_from_corpus():
    from uci_searchengine_ray.pipelines.index_build import plan_build

    assert plan_build(8_000, 4) == (1, 64)
    assert plan_build(500_000, 4) == (4, 64)
    assert plan_build(1_000_000, 32) == (3, 128)
    assert plan_build(10_000_000, 32) == (4, 1280)
    assert plan_build(0, 4) == (1, 64)


def test_grown_corpus_keeps_pinned_counts(ray_session, tmp_path, monkeypatch):
    """With ckpt_groups=None, continue adopts the group and key counts
    pinned by the first build, even when the grown corpus would plan
    others: unchanged groups are not rebuilt, the run key layout stays
    mergeable, and the index equals a fresh build."""
    import json

    from uci_searchengine_ray.pipelines import index_build

    corpus = str(tmp_path / "corpus")
    _write_files(corpus, n_files=6, docs_per_file=40)
    inc = str(tmp_path / "inc")
    monkeypatch.setattr(index_build, "plan_build", lambda rows, ncpu: (3, 64))
    derived = EngineConfig(mode="reference", block_size=16)
    build_index(corpus, inc, derived, mode="fresh")
    rows_before = {
        str(r["partition"]): r for r in manifest.stage_metrics(inc, "runs")
    }
    assert len(rows_before) == 3

    # the grown corpus plans other counts, as one past 1M docs would
    _write_files(corpus, n_files=8, docs_per_file=40)
    monkeypatch.setattr(index_build, "plan_build", lambda rows, ncpu: (1, 100))
    build_index(corpus, inc, derived, mode="continue")

    with open(os.path.join(inc, "build_config.json")) as f:
        pinned = json.load(f)
    assert (pinned["ckpt_groups"], pinned["num_merge_groups"]) == (3, 64)
    assert index_build.load_stats(inc)["num_merge_groups"] == 64
    rows_after = {
        str(r["partition"]): r for r in manifest.stage_metrics(inc, "runs")
    }
    assert set(rows_after) == set(rows_before)
    assert any(rows_after[p] == rows_before[p] for p in rows_before)
    keys = set(pa_ds.dataset(
        glob.glob(os.path.join(inc, "runs", "*", "*.parquet"))
    ).to_table(columns=["merge_key"])["merge_key"].to_pylist())
    assert keys and max(keys) < 64

    fresh = str(tmp_path / "fresh")
    build_index(corpus, fresh, derived, mode="fresh")
    # block merge keys follow the key count (64 pinned here, 100 planned
    # for the fresh build); every other column is the same index
    assert _digest(inc, skip=["merge_key"]) == _digest(fresh, skip=["merge_key"])
    assert index_build.load_stats(inc)["n_docs"] == 8 * 40
