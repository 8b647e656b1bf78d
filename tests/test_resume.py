"""Checkpoint/resume lineage: kill after k groups, resume, final shard bytes
identical to an uninterrupted build (FIXTURES.md §5, SURVEY.md §5 item 4)."""

import glob
import hashlib
import json
import os

import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.state import manifest

CFG = EngineConfig(mode="reference", block_size=16, num_shards=4, num_merge_groups=8,
                   ckpt_groups=4)


def _dir_digest(path: str) -> dict:
    """Map of relative parquet path -> content hash of its logical rows.

    Parquet bytes can differ across writes (metadata timestamps), so hash the
    *data*: every file's table rows, canonically ordered.
    """
    import pyarrow.dataset as pa_ds

    out = {}
    for sub in ("postings", "term_stats"):
        ds = pa_ds.dataset(os.path.join(path, sub), format="parquet",
                           partitioning="hive" if sub == "postings" else None)
        tbl = ds.to_table()
        cols = sorted(tbl.column_names)
        keys = ["term", "block_id"] if sub == "postings" else ["term"]
        import pyarrow.compute as pc
        idx = pc.sort_indices(tbl, sort_keys=[(k, "ascending") for k in keys])
        tbl = tbl.take(idx).select(cols)
        h = hashlib.sha256()
        for batch in tbl.to_batches():
            for col in batch.columns:
                h.update(str(col.to_pylist()).encode())
        out[sub] = h.hexdigest()
    return out


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    from uci_searchengine_ray.sources.corpus import write_synthetic_corpus

    return write_synthetic_corpus(
        str(tmp_path_factory.mktemp("rcorpus") / "c"), n_docs=300, n_files=8
    )


def test_resume_identical_to_uninterrupted(ray_session, corpus, tmp_path_factory):
    base = tmp_path_factory.mktemp("resume")
    full = str(base / "full")
    part = str(base / "part")

    build_index(corpus, full, CFG, mode="fresh")

    # simulated kill: build, then delete the outputs + manifest rows of two
    # groups and all of phase 2 (as if the job died mid-phase-1)
    build_index(corpus, part, CFG, mode="fresh")
    rows = [r for r in manifest.read_rows(part) if r["stage"] == "runs"]
    # hash-based file grouping may leave some of the 4 groups empty
    assert 2 <= len(rows) <= 4
    survivors = {rows[0]["partition"]}
    # rewrite manifest with only 2 completed groups, drop phase-2 row
    os.remove(os.path.join(part, "_manifest", "manifest.jsonl"))
    for r in rows:
        if r["partition"] in survivors:
            manifest.append_row(part, r)
    import shutil
    for r in rows:
        if r["partition"] not in survivors:
            shutil.rmtree(os.path.join(part, "runs", r["partition"]))
            shutil.rmtree(os.path.join(part, "doc_meta", r["partition"]))
    for sub in ("postings", "term_stats"):
        shutil.rmtree(os.path.join(part, sub))
    os.remove(os.path.join(part, "stats.json"))

    build_index(corpus, part, CFG, mode="continue")

    assert _dir_digest(full) == _dir_digest(part)
    # manifest now complete again
    assert len(manifest.completed(part, "runs")) == len(rows)
    assert manifest.completed(part, "postings") == {"all"}


def test_rebuild_mode_redoes_merge_only(ray_session, corpus, tmp_path_factory):
    snap = str(tmp_path_factory.mktemp("rb") / "s")
    build_index(corpus, snap, CFG, mode="fresh")
    d1 = _dir_digest(snap)
    runs_files = sorted(
        glob.glob(os.path.join(snap, "runs", "**", "*.parquet"), recursive=True)
    )
    assert runs_files
    mtimes = {f: os.path.getmtime(f) for f in runs_files}
    build_index(corpus, snap, CFG, mode="rebuild")
    assert _dir_digest(snap) == d1
    # phase-1 outputs untouched (no re-tokenize)
    assert {f: os.path.getmtime(f) for f in runs_files} == mtimes


def test_rebuild_merges_runs_in_older_nested_layout(
    ray_session, corpus, tmp_path_factory
):
    """Snapshots from older builds keep each run file one directory deeper
    (runs/group=G/merge_key=M/range_bucket=0/).  A rebuild over that layout
    merges the same runs into value-identical postings and term_stats."""
    import shutil

    snap = str(tmp_path_factory.mktemp("nested") / "s")
    build_index(corpus, snap, CFG, mode="fresh")
    d1 = _dir_digest(snap)
    runs_files = glob.glob(
        os.path.join(snap, "runs", "*", "merge_key=*", "*.parquet")
    )
    assert runs_files
    for f in runs_files:
        sub = os.path.join(os.path.dirname(f), "range_bucket=0")
        os.makedirs(sub, exist_ok=True)
        shutil.move(f, os.path.join(sub, os.path.basename(f)))
    # ...and pinned two more keys in build_config.json
    bc = os.path.join(snap, "build_config.json")
    with open(bc) as fh:
        pinned = json.load(fh)
    pinned.update(doc_id_bits=63, doc_range_buckets=1)
    with open(bc, "w") as fh:
        json.dump(pinned, fh)
    build_index(corpus, snap, CFG, mode="rebuild")
    assert _dir_digest(snap) == d1
