"""Checkpoint/resume lineage: kill after k groups, resume, final shard bytes
identical to an uninterrupted build (FIXTURES.md §5, SURVEY.md §5 item 4)."""

import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.state import manifest

CFG = EngineConfig(mode="reference", block_size=16, ckpt_groups=4)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tables(path: str) -> dict:
    """postings and doc_meta of a snapshot as canonically
    sorted tables (row order and file layout are not part of the index)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pa_ds

    out = {}
    for sub, keys in (("postings", ["term", "block_id"]), ("doc_meta", ["doc_id"])):
        tbl = pa_ds.dataset(
            os.path.join(path, sub), format="parquet",
            partitioning="hive" if sub == "postings" else None,
        ).to_table()
        idx = pc.sort_indices(tbl, sort_keys=[(k, "ascending") for k in keys])
        out[sub] = tbl.take(idx).select(sorted(tbl.column_names)).combine_chunks()
    return out


def _assert_same_index(got: str, want: str) -> None:
    a, b = _tables(got), _tables(want)
    for sub in a:
        assert a[sub].equals(b[sub]), sub
    from uci_searchengine_ray.pipelines.index_build import load_stats

    sa, sb = load_stats(got), load_stats(want)
    assert [sa[k] for k in ("n_docs", "avgdl", "n_terms")] == [
        sb[k] for k in ("n_docs", "avgdl", "n_terms")
    ]


def _dir_digest(path: str) -> dict:
    """Map of snapshot subdir -> content hash of its logical rows.

    Parquet bytes can differ across writes (metadata timestamps), so hash the
    *data*: every file's table rows, canonically ordered.
    """
    import pyarrow.compute as pc
    import pyarrow.dataset as pa_ds

    out = {}
    for sub in ("postings",):
        tbl = pa_ds.dataset(os.path.join(path, sub), format="parquet",
                            partitioning="hive").to_table()
        cols = sorted(tbl.column_names)
        idx = pc.sort_indices(tbl, sort_keys=[("term", "ascending"),
                                              ("block_id", "ascending")])
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
    for r in rows:
        if r["partition"] not in survivors:
            shutil.rmtree(os.path.join(part, "runs", r["partition"]))
            shutil.rmtree(os.path.join(part, "doc_meta", r["partition"]))
    shutil.rmtree(os.path.join(part, "postings"))
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
    # the (term, df) table older builds wrote next to the postings
    os.makedirs(os.path.join(snap, "term_stats"))
    build_index(corpus, snap, CFG, mode="rebuild")
    assert _dir_digest(snap) == d1
    assert not os.path.exists(os.path.join(snap, "term_stats"))
    # phase-1 outputs untouched (no re-tokenize)
    assert {f: os.path.getmtime(f) for f in runs_files} == mtimes


@pytest.mark.parametrize("mode", ["continue", "rebuild"])
def test_older_run_format_is_retokenized(ray_session, corpus, tmp_path_factory, mode):
    """Snapshots from builds before the pinned ``run_format`` hold runs of
    hashed doc ids in ``runs/group=G/merge_key=M/`` dirs.  ``continue``
    and ``rebuild`` re-derive those groups from the corpus: the snapshot
    ends equal to a fresh build, with one runs file per doc_meta file and
    no key dir."""
    from older_runs import to_hashed_id_runs

    base = tmp_path_factory.mktemp("older_runs")
    fresh, snap = str(base / "fresh"), str(base / "snap")
    build_index(corpus, fresh, CFG, mode="fresh")
    shutil.copytree(fresh, snap)
    to_hashed_id_runs(snap)
    assert glob.glob(os.path.join(snap, "runs", "*", "merge_key=*"))

    build_index(corpus, snap, CFG, mode=mode)
    _assert_same_index(snap, fresh)
    assert not glob.glob(os.path.join(snap, "runs", "*", "merge_key=*"))

    def stems(sub, prefix):
        return sorted(os.path.relpath(f, os.path.join(snap, sub))
                      .replace(prefix, "") for f in glob.glob(
                          os.path.join(snap, sub, "*", prefix + "*.parquet")))

    assert stems("runs", "runs-") == stems("doc_meta", "meta-") != []
    with open(os.path.join(snap, "build_config.json")) as fh:
        assert json.load(fh)["run_format"] == 2
    assert manifest.stage_metrics(snap, "runs") == manifest.stage_metrics(
        fresh, "runs")


def test_continue_ignores_crashed_group_dirs(ray_session, corpus, tmp_path_factory):
    """A group that crashed mid-write leaves staged ``.tmp`` dirs (local
    filesystems) without a manifest row.  ``continue`` — here with a
    different group count, which re-homes every doc — must neither merge
    those runs nor serve those doc_meta rows: the result equals a fresh
    build and no orphan dir survives."""
    base = tmp_path_factory.mktemp("orphan")
    snap = str(base / "s")
    build_index(corpus, snap, CFG, mode="fresh")
    rows = [r for r in manifest.read_rows(snap) if r["stage"] == "runs"]
    assert len(rows) > 2
    last = rows[-1]["partition"]
    for sub in ("runs", "doc_meta"):
        d = os.path.join(snap, sub, last)
        os.rename(d, d + ".tmp")
    manifest.drop_stage(snap, "runs", partitions=[last])
    manifest.drop_stage(snap, "postings")
    shutil.rmtree(os.path.join(snap, "postings"))
    os.remove(os.path.join(snap, "stats.json"))

    two = EngineConfig(mode="reference", block_size=16, ckpt_groups=2)
    build_index(corpus, snap, two, mode="continue")

    fresh = str(base / "fresh")
    build_index(corpus, fresh, CFG, mode="fresh")
    _assert_same_index(snap, fresh)
    parts = manifest.completed(snap, "runs")
    for sub in ("runs", "doc_meta"):
        assert set(os.listdir(os.path.join(snap, sub))) == parts

    from uci_searchengine_ray.state.docstore import DocStore

    ids = _tables(fresh)["doc_meta"]["doc_id"].to_pylist()
    assert len(DocStore(snap).fetch(ids)) == len(ids) == 300


def _committed_group(manifest_path: str) -> bool:
    if not os.path.exists(manifest_path):
        return False
    with open(manifest_path) as f:
        return '"stage": "runs"' in f.read()


_KILLED_BUILD = r"""
import sys

import ray

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from uci_searchengine_ray.config import EngineConfig, configure_data_context

configure_data_context()
from uci_searchengine_ray.pipelines.index_build import build_index

build_index(sys.argv[1], sys.argv[2],
            EngineConfig(mode="reference", block_size=16,
                         ckpt_groups=4),
            mode="fresh")
"""


def test_resume_after_sigkill(ray_session, corpus, tmp_path_factory):
    """A real crash: a build process with its own Ray cluster is killed with
    SIGKILL as soon as its first checkpoint group commits.  ``continue``,
    with the same group count and with the derived (pinned) one, produces
    the index of an uninterrupted build."""
    base = tmp_path_factory.mktemp("kill")
    killed = str(base / "killed")
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    log = base / "build.log"
    mf = os.path.join(killed, "_manifest", "manifest.jsonl")
    with open(log, "w") as f:
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILLED_BUILD, corpus, killed],
            stdout=f, stderr=subprocess.STDOUT, env=env, cwd=REPO,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 240
            while not _committed_group(mf):
                assert proc.poll() is None, log.read_text()[-4000:]
                assert time.monotonic() < deadline, "no group committed"
                time.sleep(0.02)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    fresh = str(base / "fresh")
    build_index(corpus, fresh, CFG, mode="fresh")
    assert proc.returncode == -signal.SIGKILL
    assert manifest.completed(killed, "postings") == set()
    assert len(manifest.completed(killed, "runs")) < len(
        manifest.completed(fresh, "runs"))
    for name, cfg in (("same", CFG), ("derived", EngineConfig(
            mode="reference", block_size=16))):
        snap = str(base / name)
        shutil.copytree(killed, snap)
        build_index(corpus, snap, cfg, mode="continue")
        _assert_same_index(snap, fresh)
        assert len(manifest.completed(snap, "runs")) == len(
            manifest.completed(fresh, "runs"))


def test_rebuild_keeps_groups_of_pin_without_group_count(
    ray_session, corpus, tmp_path_factory
):
    """Snapshots from older builds pin ``num_merge_groups`` but not
    ``ckpt_groups``.  A ``rebuild`` with the derived (default) group count
    recovers the recorded count from the runs manifest: no run file is
    rewritten, and the pin gains the recovered count."""
    snap = str(tmp_path_factory.mktemp("oldpin") / "s")
    build_index(corpus, snap, CFG, mode="fresh")
    d1 = _dir_digest(snap)
    bc = os.path.join(snap, "build_config.json")
    with open(bc) as fh:
        pinned = json.load(fh)
    del pinned["ckpt_groups"]
    with open(bc, "w") as fh:
        json.dump(pinned, fh)
    runs_files = sorted(
        glob.glob(os.path.join(snap, "runs", "**", "*.parquet"), recursive=True)
    )
    mtimes = {f: os.path.getmtime(f) for f in runs_files}
    n_groups = len(manifest.completed(snap, "runs"))
    assert n_groups > 1

    build_index(corpus, snap, EngineConfig(mode="reference", block_size=16),
                mode="rebuild")
    assert {f: os.path.getmtime(f) for f in runs_files} == mtimes
    assert len(manifest.completed(snap, "runs")) == n_groups
    assert _dir_digest(snap) == d1
    with open(bc) as fh:
        assert json.load(fh)["ckpt_groups"] >= n_groups


def test_noop_continue_reads_no_footers(
    ray_session, corpus, tmp_path_factory, monkeypatch
):
    """``continue`` on a finished build is a manifest no-op: it neither
    scans the corpus's parquet footers nor queries the cluster."""
    from uci_searchengine_ray.pipelines import index_build

    snap = str(tmp_path_factory.mktemp("noop") / "s")
    build_index(corpus, snap, CFG, mode="fresh")
    d1 = _dir_digest(snap)

    def boom(*a, **k):
        raise AssertionError("no footer scan or cluster query expected")

    monkeypatch.setattr(index_build.storage, "parquet_rows", boom)
    monkeypatch.setattr(index_build.storage, "parquet_row_groups", boom)
    monkeypatch.setattr(index_build.ray, "cluster_resources", boom)
    for cfg in (CFG, EngineConfig(mode="reference", block_size=16)):
        build_index(corpus, snap, cfg, mode="continue")
    assert _dir_digest(snap) == d1
