"""End-to-end index build pipeline (SURVEY.md §7 steps 1-3).

Dataflow (all Ray Data, streaming, zero-copy Arrow batches):

  phase 1 — per checkpoint group of input files (lineage unit, resumable):
    plan_batches(footers) → (file, row range) slices per batch, cut in file
      order at a row bound or a byte budget, so every run writes the same bytes
    one task per batch: read its row groups (pruned columns) → adapt_batches
      → TokenizeEncodeRuns(mode)  → runs/group=G/runs-{stem}.parquet
                                    doc_meta/group=G/meta-{stem}.parquet
                                    one summary row per batch
        ONE pass over the corpus produces both outputs: fused tokenize →
        TF-combine → run-encode emits one compressed run row per term per
        batch, and each task writes its batch's doc-meta file and runs file
        (stem = first doc id and doc count; idempotent names).  Runs name
        docs by their rank among the batch's sorted ids and are sorted by
        merge key, one row group per phase-2 key range: these files ARE
        the phase-1→2 exchange — a disk-backed shuffle with no sort.  The
        build takes the group's counts from the summary rows.
    manifest row: {stage: runs, partition: G, docs, tokens, run_files,
                   run_bytes}

  phase 2 — global merge (runs are compressed, ~3 B/posting):
    build_index maps each batch's sorted ids to global ordinals once
    (``state.docstore.batch_ordinals``, their one definition) and ray.puts
    the flat array; one task per CPU scans its key range from every runs
    file (row-group statistics prune the rest) and merges it key by key
    (runs are co-located by key: no groupby, no sort) → one postings file
    per task, ``part-{task}-{block}``, one row group per key (a query reads
    its term's key's row groups).  A block row's df is its term's df: no
    term table, no vocabulary in the driver (VERDICT r1 item #2).
    stats.json holds N / avgdl / total_tokens / n_terms (block-0 rows).
    One merge key's postings must fit one worker.  ``functions.codecs``
    alone encodes and decodes the payloads; this module moves them opaque.

The build sizes itself (``plan_build``, ``batch_rows``): at most one footer
scan of the corpus and one cluster-resource query per build give the
checkpoint-group count, the merge-key count and the tokenize batches.  The
group and key counts are pinned in build_config.json, and
``continue``/``rebuild`` adopt them, so incremental ingest keeps group
membership and the run key layout.

Build modes mirror the reference's crawl modes (routes.py:133-219):
  fresh    — wipe the snapshot dir, build everything
  continue — resume: skip checkpoint groups present in the manifest
             (the `_reconstruct_queue` / mode=continue analog)
  rebuild  — keep phase-1 outputs (doc_meta, runs), redo the merge + stats
             (the `recrawl` analog: re-derive, keep raw material)

A snapshot whose build_config.json lacks the pinned ``run_format`` holds
runs of hashed doc ids under ``merge_key=M/`` dirs; ``continue`` and
``rebuild`` drop its runs manifest rows, so those groups are re-tokenized
from the corpus — one merge path, not two.

Output layout is a portable snapshot directory (the analog of the reference's
one-SQLite-file-per-database artifact, connection.py:36-40): copy the dir,
point query actors at it.  ALL snapshot I/O goes through the ``pyarrow.fs``
abstraction in ``state.storage``, so ``index_dir`` (and ``corpus_path``) may
be local paths or URIs (s3://, gs://, registered fsspec schemes) — the
multi-node cluster layout the north rule requires.  On local filesystems the
commit protocol is tmp-dir + atomic rename; on object stores, direct write
with the manifest row as the commit point (see state/storage.py docstring).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import posixpath
from collections import Counter
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pa_ds
import pyarrow.parquet as pq

import ray.data
from ray.data.datasource import FilenameProvider

from ..config import EngineConfig
from ..state import manifest, storage
# load_stats stays importable from here; the doc table's module owns it so
# serving reads stats.json without importing this Ray pipeline
from ..state.docstore import SNAPSHOT_FORMAT, batch_ordinals, load_stats  # noqa: F401
from ..stages.postings import (
    RUN_SCHEMA, TokenizeEncodeRuns, key_ranges, make_merge_shard)

STAGE_RUNS = "runs"
STAGE_POSTINGS = "postings"
# build_config.json "run_format": 2 = one runs file per tokenize batch,
# docs as batch ranks; a pin without it holds runs of hashed doc ids
# under merge_key=M/ dirs
RUN_FORMAT = 2


# uncompressed read-column bytes (parquet footers) one tokenize batch may
# hold; 8192 docs of ~2.5 KB source are ~20 MB, so it binds past ~8 KB/doc
BATCH_BYTES = 64 << 20


def plan_build(rows: int, ncpu: int) -> Tuple[int, int]:
    """(checkpoint groups, merge keys) for a corpus of ``rows`` docs on
    ``ncpu`` CPUs.  Groups: one, unless each of up to four groups fills a
    full task wave of 8192-doc batches (every group is a sequential Dataset
    job, so small groups are pure orchestration cost).  Keys: 64, or 128
    per 1M docs past 500k docs — the 1M-doc adversarial build's 128 keys
    (~7.8k docs per key, BASELINE.md) is the one per-key size measured."""
    groups = min(4, max(1, rows // (8192 * ncpu)))
    keys = max(64, -(-rows * 128 // 1_000_000))
    return groups, keys


def batch_rows(rows: int, ncpu: int) -> int:
    """Tokenize batch row bound for a ``rows``-doc checkpoint group: one
    task wave per group (fewest runs files for phase 2), in [1024, 8192]."""
    return max(1024, min(8192, -(-rows // ncpu)))


def plan_batches(footers, max_rows: int, max_bytes: int = BATCH_BYTES) -> list:
    """A group's tokenize batches, lists of ``(file, lo, hi)`` row slices in
    file order, from ``(file, [(rows, bytes)] per row group)``; a row costs
    its row group's mean bytes.  A batch closes at ``max_rows`` rows or
    before it passes ``max_bytes``; one row over the budget is a batch."""
    batches, cur, rows, size = [], {}, 0, 0  # cur: file -> (lo, hi)
    for path, groups in footers:
        at = 0
        for n, nbytes in groups:
            per, end = -(-nbytes // max(n, 1)), at + n
            while at < end:
                take = min(max_rows - rows, end - at)
                if per or size > max_bytes:
                    take = min(take, (max_bytes - size) // max(per, 1))
                if take <= 0 and rows:
                    batches.append(cur)
                    cur, rows, size = {}, 0, 0
                    continue
                take = max(take, 1)
                cur[path] = (cur.get(path, (at,))[0], at + take)
                rows, size, at = rows + take, size + take * per, at + take
    return [[(f, lo, hi) for f, (lo, hi) in b.items()] for b in batches + [cur] if b]


def _read_rows(fs, path: str, lo: int, hi: int, columns) -> pa.Table:
    """Rows ``[lo, hi)`` of a parquet file, read from the row groups that
    hold them in record batches of ``hi - lo`` rows, so that the groups'
    other rows are dropped as they are decoded."""
    pf = pq.ParquetFile(path, filesystem=fs)
    starts = np.cumsum([0] + [pf.metadata.row_group(i).num_rows
                              for i in range(pf.num_row_groups)])
    groups = np.flatnonzero((starts[:-1] < hi) & (starts[1:] > lo)).tolist()
    at, parts = int(starts[groups[0]]), []
    for rb in pf.iter_batches(hi - lo, row_groups=groups, columns=columns):
        parts.append(rb.slice(max(lo - at, 0), hi - max(lo, at)))  # clamped
        at += rb.num_rows
        if at >= hi:
            break
    return pa.Table.from_batches(parts)


def _input_files(corpus_path: str) -> Tuple["object", List[str]]:
    """(filesystem, file list) for a corpus path/URI (file or directory)."""
    cfs, cpath = storage.resolve(corpus_path)
    info = cfs.get_file_info(cpath)
    from pyarrow import fs as pafs

    if info.type == pafs.FileType.Directory:
        files = storage.ls_files(cfs, cpath, suffix=".parquet", recursive=False)
    elif info.type == pafs.FileType.File:
        files = [cpath]
    else:
        raise FileNotFoundError(f"no corpus at {corpus_path}")
    if not files:
        raise FileNotFoundError(f"no parquet files under {corpus_path}")
    return cfs, files


def _file_hash(path: str) -> int:
    digest = hashlib.md5(os.path.basename(path).encode(), usedforsecurity=False).digest()
    return int.from_bytes(digest[:4], "big")


def _groups_of(files: Sequence[str], n_groups: int) -> List[List[str]]:
    """Stable file→group assignment by file-name hash.

    Hashing (not position) keeps existing files in their groups when new
    input files appear, so incremental ingest (`mode=continue` with a grown
    corpus) only rebuilds the groups whose membership actually changed —
    the reference's mode=continue re-derives exactly the missing work the
    same way (routes.py:158-188)."""
    n_groups = max(1, min(n_groups, len(files)))
    groups: List[List[str]] = [[] for _ in range(n_groups)]
    for f in files:
        groups[_file_hash(f) % n_groups].append(f)
    return groups


def _recorded_group_count(run_rows: List[dict]) -> Optional[int]:
    """Group count of a snapshot whose build_config.json predates the pinned
    ``ckpt_groups``: the smallest count whose hash assignment puts every
    input file of the runs manifest in its recorded group (None if none
    does), so resuming such a snapshot re-tokenizes nothing."""
    placed = [(int(str(r["partition"]).split("=", 1)[1]), _file_hash(f))
              for r in run_rows for f in r.get("inputs", [])]
    top = max((g + 1 for g, _ in placed), default=1)
    for n in range(top, top + len(placed)):
        if all(h % n == g for g, h in placed):
            return n
    return None


class _TaskFileNames(FilenameProvider):
    """``part-{task}-{block}.parquet``: the same name in every build."""

    def get_filename_for_block(self, block, write_uuid, task_index, block_index):
        return f"part-{task_index:05d}-{block_index:05d}.parquet"


def _task_per_item(items: list, fn):
    """``fn`` over ``items``, one task (and block) per item: both phases."""
    tasks = ray.data.from_items(items, override_num_blocks=max(1, len(items)))
    return tasks.map_batches(fn, batch_format="pyarrow", batch_size=None)


def _count_rows(fs, dir_path: str, flt) -> int:
    files = storage.ls_files(fs, dir_path, suffix=".parquet")
    if not files:
        return 0
    return pa_ds.dataset(files, format="parquet", filesystem=fs).count_rows(filter=flt)


def _runs_file(root: str, meta_file: str) -> str:
    """The runs file written beside a doc_meta file (same group, same
    stem)."""
    group = posixpath.basename(posixpath.dirname(meta_file))
    stem = posixpath.basename(meta_file)[len("meta-"):]
    return storage.join(root, STAGE_RUNS, group, "runs-" + stem)


def _scan_key_range(fs, run_files: List[str], lo: int, hi: int) -> pa.Table:
    """Every run of merge keys ``[lo, hi)`` in one filtered scan of the runs
    files, sorted by merge_key, with each run's ``batch``: the index of its
    file in ``run_files``."""
    batch_of = {f: i for i, f in enumerate(run_files)}
    # the given schema spares the factory a first-file read
    scan = pa_ds.dataset(run_files, schema=RUN_SCHEMA, format="parquet",
                         filesystem=fs).scanner(
        filter=(pc.field("merge_key") >= lo) & (pc.field("merge_key") < hi))
    parts, batch = [], []
    for tagged in scan.scan_batches():
        parts.append(tagged.record_batch)
        batch.append(np.full(tagged.record_batch.num_rows,
                             batch_of[tagged.fragment.path], np.int32))
    tbl = pa.Table.from_batches(parts, schema=scan.projected_schema)
    tbl = tbl.append_column("batch", pa.array(
        np.concatenate(batch) if batch else np.empty(0, np.int32)))
    return tbl.take(np.argsort(tbl["merge_key"].to_numpy(), kind="stable"))


def build_index(
    corpus_path: str,
    index_dir: str,
    cfg: Optional[EngineConfig] = None,
    mode: str = "fresh",
    adapt_batches=None,
    read_columns: Optional[List[str]] = None,
) -> str:
    """Build (or resume) an index snapshot at ``index_dir`` (path or URI).
    Returns index_dir."""
    cfg = cfg or EngineConfig()
    if mode not in ("fresh", "continue", "rebuild"):
        raise ValueError(f"unknown build mode {mode!r}")

    fs, root = storage.resolve(index_dir)
    if mode == "fresh" and storage.exists(fs, root):
        storage.rm_tree(fs, root)
    storage.makedirs(fs, root)
    if mode == "rebuild":
        # term_stats/ is what older builds wrote next to the postings
        for sub in (STAGE_POSTINGS, "term_stats"):
            storage.rm_tree(fs, storage.join(root, sub))
        manifest.drop_stage(index_dir, STAGE_POSTINGS)

    cfs, files = _input_files(corpus_path)
    # the footer scan and the cluster-resource query run at most once per
    # build, and only when a count must be planned or a stage (re)built — a
    # no-op continue on a finished build reads neither
    footers = functools.cache(lambda: {
        f: storage.parquet_row_groups(f, cfs, read_columns) for f in files})
    rows_of = lambda paths: sum(n for f in paths for n, _ in footers()[f])  # noqa: E731
    ncpu = functools.cache(lambda: int(ray.cluster_resources().get("CPU", 0)) or 32)

    # the knobs that change the RUN FORMAT are pinned at first build
    # (build_config.json): a store_positions flip would merge blocks whose
    # position payloads cover only some postings.  The group and key counts
    # are adopted from the pin, so a grown corpus keeps its group membership
    # and run key layout; an explicit ckpt_groups wins (the reconcile below
    # re-homes what it reshuffles), and a pin without one takes the count
    # the runs manifest records, so no recorded group is re-tokenized.
    bc_path = storage.join(root, "build_config.json")
    prior_cfg = {}
    if mode != "fresh" and storage.exists(fs, bc_path):
        prior_cfg = storage.read_json(fs, bc_path)
    shaping = {"mode": cfg.mode, "store_positions": bool(cfg.store_positions)}
    drift = {k: (prior_cfg[k], v) for k, v in shaping.items()
             if prior_cfg.get(k, v) != v}
    if drift:
        raise ValueError(
            f"mode={mode!r} with run-shaping config drift vs the pinned "
            f"build_config.json {drift} — use mode='fresh' to rebuild "
            "with the new settings"
        )
    run_rows = manifest.stage_metrics(index_dir, STAGE_RUNS)
    # keys this build does not pin (older snapshots) are kept as they were
    pinned = {**prior_cfg, **shaping}
    if cfg.ckpt_groups is not None:
        pinned["ckpt_groups"] = cfg.ckpt_groups
    elif "ckpt_groups" not in pinned and (recorded := _recorded_group_count(run_rows)):
        pinned["ckpt_groups"] = recorded
    if not {"ckpt_groups", "num_merge_groups"} <= pinned.keys():
        planned = plan_build(rows_of(files), ncpu())
        pinned = {"ckpt_groups": planned[0], "num_merge_groups": planned[1], **pinned}
    if run_rows and prior_cfg.get("run_format") != RUN_FORMAT:
        # runs of an older format are re-derived from the corpus, not merged
        # by a second path: without their rows every group re-tokenizes
        manifest.drop_stage(index_dir, STAGE_RUNS)
        run_rows = []
    pinned["run_format"] = RUN_FORMAT
    storage.write_json(fs, bc_path, pinned)
    n_groups, n_keys = pinned["ckpt_groups"], pinned["num_merge_groups"]

    groups = _groups_of(files, n_groups)
    prior_inputs = {str(r["partition"]): sorted(r.get("inputs", [])) for r in run_rows}

    # stale-partition reconcile (incremental ingest): a prior group that has
    # NO files under the current hash assignment (file deletions, or a
    # different group count reshuffling membership) would otherwise keep its
    # manifest row while its docs are also rebuilt into their new groups —
    # double-counting them in phase 2 and in n_docs.  Its dirs go with the
    # orphan sweep before phase 2.
    current_parts = {f"group={gid}" for gid, gf in enumerate(groups) if gf}
    stale = [p for p in prior_inputs if p not in current_parts]
    if stale:
        manifest.drop_stage(index_dir, STAGE_RUNS, partitions=stale)
    done = manifest.completed(index_dir, STAGE_RUNS)

    # ---- phase 1: fused tokenize→encode runs, per checkpoint group ----
    for gid, gfiles in enumerate(groups):
        if not gfiles:
            continue  # hash grouping can leave a group empty on tiny inputs
        part = f"group={gid}"
        current_inputs = sorted(os.path.basename(f) for f in gfiles)
        if part in done and prior_inputs.get(part) == current_inputs:
            continue
        if part in done:
            # incremental ingest: this group's membership changed (new input
            # files) — drop its manifest row and rebuild it from scratch
            manifest.drop_stage(index_dir, STAGE_RUNS, partitions=[part])

        # doc_meta and runs are written per batch from INSIDE the tokenize
        # tasks (idempotent deterministic file names), so the corpus is read
        # once per group for both outputs and no second Dataset job runs
        meta_staged = storage.StagedDir(fs, storage.join(root, "doc_meta", part))
        runs_staged = storage.StagedDir(fs, storage.join(root, STAGE_RUNS, part))
        for staged in (meta_staged, runs_staged):
            storage.makedirs(fs, staged.path)  # stays empty at zero docs

        # planned from the footers, so no batch depends on task timing
        plan = plan_batches([(f, footers()[f]) for f in gfiles],
                            batch_rows(rows_of(gfiles), ncpu()))
        # fused tokenize→TF-combine→run-encode: NO shuffle in phase 1; only
        # the summary rows enter the object store.  Stateless TASKS, not an
        # actor pool: the stage's compiled regexes are module-level (tasks
        # measured 13s → 5s against a pool on a 20k-doc build)
        encode = TokenizeEncodeRuns(
            cfg.mode, n_keys, fs, meta_staged.path, runs_staged.path,
            key_starts=[lo for lo, _ in key_ranges(n_keys, ncpu())],
            store_positions=cfg.store_positions, store_content=cfg.store_content)

        def tokenize_batches(items):
            for i in items["batch"].to_pylist():
                batch = pa.concat_tables([_read_rows(cfs, *s, read_columns) for s in plan[i]],
                                         promote_options="permissive")
                # the input-shape adapter (driver `documents` rows → corpus shape)
                yield encode(adapt_batches(batch) if adapt_batches else batch)

        summaries = _task_per_item(
            [{"batch": i} for i in range(len(plan))], tokenize_batches).take_all()
        # two batches share a file stem (first doc id, doc count) only when
        # one identity is in both — and the later write replaced the other
        dup = next((stem for stem, n in Counter(
            r["stem"] for r in summaries).items() if n > 1), None)
        if dup is not None:
            raise ValueError(
                f"duplicate doc_id {dup.rsplit('-', 1)[0]} in two corpus "
                "batches — document identity is stable_doc_id(repo, path, "
                "commit); the same natural key appears more than once in "
                "the input"
            )
        runs_staged.commit()
        meta_staged.commit()
        manifest.append_row(
            index_dir,
            {
                "stage": STAGE_RUNS,
                "partition": part,
                "status": "done",
                "inputs": [os.path.basename(f) for f in gfiles],
                "docs": sum(r["docs"] for r in summaries),
                "tokens": sum(r["tokens"] for r in summaries),
                "run_files": len(summaries),
                "run_bytes": sum(r["run_bytes"] for r in summaries),
            },
        )

    # ---- orphan sweep: a runs/ or doc_meta/ child without a manifest row
    # (a crashed group's staged .tmp dir, a partial object-store write, a
    # stale group) must never reach the merge or the doc store ----
    rows = manifest.stage_metrics(index_dir, STAGE_RUNS)
    parts = sorted({str(r["partition"]) for r in rows})
    for sub in (STAGE_RUNS, "doc_meta"):
        for d in storage.ls_dirs(fs, storage.join(root, sub)):
            if posixpath.basename(d) not in parts:
                storage.rm_tree(fs, d)

    # ---- global stats (A3/A4): N and avgdl from the manifest's batch counts ----
    n_docs = sum(r["docs"] for r in rows)
    total_tokens = sum(r["tokens"] for r in rows)
    avgdl = total_tokens / n_docs if n_docs else 0.0

    # postings validity = fingerprint over the exact runs-stage state; a crash
    # between a group rebuild and the re-merge leaves a stale-but-"done"
    # postings row, which this catches on the next continue
    runs_fp = hashlib.sha256(
        json.dumps(
            sorted(
                (str(r["partition"]), r["docs"], r["tokens"], sorted(r.get("inputs", [])))
                for r in rows
            ),
            default=list,
        ).encode()
    ).hexdigest()
    post_rows = manifest.stage_metrics(index_dir, STAGE_POSTINGS)
    if post_rows and post_rows[-1].get("runs_fp") != runs_fp:
        manifest.drop_stage(index_dir, STAGE_POSTINGS)
        for sub in (STAGE_POSTINGS, "term_stats"):  # as in rebuild above
            storage.rm_tree(fs, storage.join(root, sub))

    # ---- phase 2: merge runs → blocks → postings parquet (NO shuffle:
    # runs are already sorted by key).  Every batch's ranks map to ordinals
    # once, here; one task per CPU takes a key range, scans it from every
    # runs file once and yields each key's blocks — no vocabulary aggregate
    # in this process. ----
    if "all" not in manifest.completed(index_dir, STAGE_POSTINGS):
        merge = make_merge_shard(block_size=cfg.block_size)
        meta_files, offsets, ordinals = batch_ordinals(index_dir)
        run_files = [_runs_file(root, f) for f in meta_files]
        ordinals_ref = ray.put(ordinals)

        def merge_keys(batch):
            if not run_files:
                return
            ordinals = ray.get(ordinals_ref)
            for lo, hi in zip(batch["lo"].to_pylist(), batch["hi"].to_pylist()):
                runs = _scan_key_range(fs, run_files, lo, hi)
                if runs.num_rows == 0:
                    continue
                keys = runs["merge_key"].to_numpy()
                cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
                for start, end in zip([0, *cuts], [*cuts, len(keys)]):
                    out = merge(runs.slice(start, end - start), ordinals, offsets)
                    yield out.add_column(1, "merge_key", pa.array(
                        [int(keys[start])] * out.num_rows, pa.int32()))

        # one key range per task, the ranges phase 1 cut row groups at
        blocks = _task_per_item(
            [{"lo": lo, "hi": hi} for lo, hi in key_ranges(n_keys, ncpu())], merge_keys)
        postings_staged = storage.StagedDir(fs, storage.join(root, STAGE_POSTINGS))
        # "overwrite" (of the fresh staged dir) allows names without a uuid
        blocks.write_parquet(postings_staged.path, filesystem=fs,
                             filename_provider=_TaskFileNames(), mode="overwrite")
        postings_staged.commit()

        n_terms = _count_rows(fs, postings_staged.final, pc.field("block_id") == 0)
        stats = {
            "format": SNAPSHOT_FORMAT,
            "n_docs": n_docs,
            "total_tokens": total_tokens,
            "avgdl": avgdl,
            "n_terms": n_terms,
            "mode": cfg.mode,
            "block_size": cfg.block_size,
            "num_merge_groups": n_keys,
            "store_positions": cfg.store_positions,
            "bm25_k1": cfg.bm25_k1,
            "bm25_b": cfg.bm25_b,
        }
        storage.write_json(fs, storage.join(root, "stats.json"), stats)
        manifest.append_row(
            index_dir,
            {
                "stage": STAGE_POSTINGS,
                "partition": "all",
                "status": "done",
                "n_terms": n_terms,
                "n_docs": n_docs,
                "runs_fp": runs_fp,
            },
        )
    return index_dir
