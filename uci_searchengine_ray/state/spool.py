"""Doc_id-sorted parquet spools and the ownership policy for directories a
command clears.

A spool is a parquet directory written sorted by ``doc_id``.  A pass that
streams documents in batches joins against it without a shuffle and without
a driver-side id set: each batch does ONE row-group-pruned read of the spool
(``doc_id ∈ [batch_min, batch_max]``) and maps the rows it gets back onto the
batch by binary search.  Two operators use it: ``strip_dup_spans`` (the
per-doc covered-token intervals) and ``export_pretraining`` (the keep-list
that the text join-back probes).

Pruning is only as good as the ids' locality.  Hashed 63-bit ids spread every
batch over the whole id range, so the read degrades to a full scan of the
spool, while the binary-search mapping keeps the join exact.  On a multi-node
cluster a spool must live on a filesystem every node sees.

``claim_dir`` is the one rule for directories a command empties before it
writes: a marker file proves the command wrote the directory before, and a
non-empty directory without the marker is refused instead of deleted.
"""

from __future__ import annotations

import os
import shutil
from typing import Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def claim_dir(path: str, marker: str, owner: str, keep: bool = False) -> None:
    """Take ownership of ``path`` for a writer named ``owner``: refuse a
    non-empty directory without ``marker`` (ValueError, nothing deleted),
    otherwise clear it (unless ``keep``, for a resumed run) and write the
    marker."""
    mpath = os.path.join(path, marker)
    if os.path.isdir(path) and os.listdir(path) and not os.path.exists(mpath):
        raise ValueError(
            f"{path!r} is non-empty and was not written by {owner} (no "
            f"{marker} marker); it would be cleared — pass an empty or new "
            "directory."
        )
    if not keep:
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    open(mpath, "w").close()


def write_doc_sorted(ds, path: str, schema: pa.Schema) -> None:
    """Write Dataset ``ds`` to ``path`` sorted by ``doc_id``.  An empty
    Dataset writes no part file, so one empty file of ``schema`` is written
    instead: the pruned reads then see a valid, empty spool."""
    ds.sort("doc_id").write_parquet(path)
    if not any(f.endswith(".parquet") for f in os.listdir(path)):
        pq.write_table(schema.empty_table(), os.path.join(path, "empty.parquet"))


def read_doc_range(
    path: str, ids: np.ndarray, columns: Sequence[str]
) -> Tuple[pa.Table, np.ndarray]:
    """Spool rows whose ``doc_id`` is in ``ids``, with ``columns``, and each
    row's index into ``ids``.  One pruned read of ``[min(ids), max(ids)]``;
    the range also holds rows of ids outside ``ids``, which the binary
    search drops.  Row order follows the spool's files, not the sort."""
    lo, hi = (int(ids.min()), int(ids.max())) if len(ids) else (0, -1)
    t = pq.read_table(
        path,
        columns=["doc_id", *columns],
        filters=[("doc_id", ">=", lo), ("doc_id", "<=", hi)],
    )
    kid = t["doc_id"].to_numpy(zero_copy_only=False)
    o = np.argsort(ids, kind="mergesort")
    sids = ids[o]
    p = np.clip(np.searchsorted(sids, kid), 0, max(len(sids) - 1, 0))
    hit = sids[p] == kid
    return t.filter(pa.array(hit)), o[p[hit]]
