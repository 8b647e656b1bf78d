"""Per-partition lineage manifest — the rebuild's checkpoint/resume state.

Replaces the reference's ``CrawlerState`` row + ``_reconstruct_queue`` anti-join
(models.py:162-179; crawler.py:509-547) and the ``mode=continue`` branch
(routes.py:158-188): instead of re-deriving a frontier from un-crawled rows,
the build records one append-only row per completed partition (checkpoint
group / stage) with its metrics, and resume = input partitions − completed
partitions.

Storage is ``pyarrow.fs``-abstracted (``state.storage``): on a LOCAL
filesystem rows append to one fsync'd JSONL file (atomic at the line level);
on object stores — which have no append — each row is ONE immutable object
under ``_manifest/rows/`` (put-if-complete, the standard commit-marker
pattern), and a read lists + merges them in sequence order.  Either way, a
row is written only AFTER its partition's outputs are fully in place, so a
row implies complete outputs.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Any, Dict, Iterable, List, Optional, Set

from . import storage


def append_row(index_dir: str, row: Dict[str, Any]) -> None:
    fs, root = storage.resolve(index_dir)
    mdir = storage.join(root, "_manifest")
    line = json.dumps(row, sort_keys=True)
    if storage.is_local(fs):
        os.makedirs(mdir, exist_ok=True)
        path = storage.join(mdir, "manifest.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
            f.flush()
            os.fsync(f.fileno())
    else:
        rows_dir = storage.join(mdir, "rows")
        storage.makedirs(fs, rows_dir)
        # seq keeps lexicographic read order ≈ append order; the unique
        # suffix makes concurrent appends collision-free (two writers that
        # count the same N both keep their row instead of one silently
        # overwriting the other's commit marker)
        seq = len(storage.ls_files(fs, rows_dir, suffix=".json"))
        suffix = f"{os.getpid():x}{uuid.uuid4().hex[:8]}"
        with fs.open_output_stream(
            storage.join(rows_dir, f"row-{seq:08d}-{suffix}.json")
        ) as f:
            f.write(line.encode("utf-8"))


def read_rows(index_dir: str) -> List[Dict[str, Any]]:
    fs, root = storage.resolve(index_dir)
    mdir = storage.join(root, "_manifest")
    rows: List[Dict[str, Any]] = []
    jsonl = storage.join(mdir, "manifest.jsonl")
    if storage.exists(fs, jsonl):
        with fs.open_input_stream(jsonl) as f:
            for line in f.read().decode("utf-8").splitlines():
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
    for p in storage.ls_files(fs, storage.join(mdir, "rows"), suffix=".json"):
        with fs.open_input_stream(p) as f:
            rows.append(json.loads(f.read().decode("utf-8")))
    return rows


def completed(index_dir: str, stage: str) -> Set[str]:
    return {
        str(r["partition"])
        for r in read_rows(index_dir)
        if r.get("stage") == stage and r.get("status") == "done"
    }


def stage_metrics(index_dir: str, stage: str) -> List[Dict[str, Any]]:
    return [
        r
        for r in read_rows(index_dir)
        if r.get("stage") == stage and r.get("status") == "done"
    ]


def drop_stage(
    index_dir: str, stage: str, partitions: Optional[Iterable[str]] = None
) -> None:
    """Remove the rows of one stage (rebuild mode) — or, with
    ``partitions``, only that stage's rows for those partitions — in one
    rewrite via tmp; every other row keeps its place and order."""
    fs, root = storage.resolve(index_dir)
    parts = None if partitions is None else {str(p) for p in partitions}
    keep = [
        r
        for r in read_rows(index_dir)
        if not (
            r.get("stage") == stage
            and (parts is None or str(r.get("partition")) in parts)
        )
    ]
    mdir = storage.join(root, "_manifest")
    if not storage.exists(fs, mdir):
        return
    if storage.is_local(fs):
        path = storage.join(mdir, "manifest.jsonl")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            for r in keep:
                f.write(json.dumps(r, sort_keys=True) + "\n")
        os.replace(tmp, path)
    else:
        storage.rm_tree(fs, storage.join(mdir, "rows"))
        for r in keep:
            append_row(index_dir, r)
