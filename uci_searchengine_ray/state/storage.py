"""Snapshot storage abstraction over ``pyarrow.fs`` (VERDICT r1 item #1).

Round 1's index exchange (hive-partitioned run write → per-key merge read) and
snapshot layout assumed a shared POSIX filesystem: ``glob.glob`` listings,
``os.replace`` atomic renames, sidecar files written with ``open()``.  That
only works multi-node when ``index_dir`` is NFS-like.  This module routes every
snapshot I/O through a ``pyarrow.fs.FileSystem`` so an index can live on any
pyarrow-supported store (local disk, S3/GCS via ``s3://``/``gs://`` URIs, or
any fsspec filesystem registered via ``register_scheme``) — the cluster-real
requirement of the north rule (multi-node build over shared object storage).

Commit protocol (replaces blanket tmp-dir + rename):
  - LOCAL filesystems keep the round-1 semantics byte-for-byte: write to
    ``<dir>.tmp`` then atomically rename into place.
  - OBJECT STORES have no atomic directory rename, so staged dirs write
    DIRECTLY to the final path and the **manifest row is the commit point**
    (standard object-store job-commit pattern): a crash mid-write leaves no
    manifest row, and resume deletes + rebuilds the partition.  File-level
    writes use deterministic names, so a retried task overwrites its own
    output instead of duplicating it.

All filesystem handles are picklable (pyarrow guarantees this), so stages that
write sidecars from inside Ray tasks carry ``(fs, path)`` through the closure.
"""

from __future__ import annotations

import json
import os
import posixpath
import uuid
from typing import Callable, Dict, List, Tuple

from pyarrow import fs as pafs

# scheme -> resolver(uri) -> (FileSystem, path-within-fs).  Lets tests (and
# deployments with exotic stores) plug any fsspec filesystem in without
# touching pipeline code.
_SCHEMES: Dict[str, Callable[[str], Tuple[pafs.FileSystem, str]]] = {}


def register_scheme(
    scheme: str, resolver: Callable[[str], Tuple[pafs.FileSystem, str]]
) -> None:
    _SCHEMES[scheme] = resolver


def resolve(path: str) -> Tuple[pafs.FileSystem, str]:
    """Path or URI → (filesystem, in-filesystem path)."""
    if "://" in path:
        scheme = path.split("://", 1)[0]
        if scheme in _SCHEMES:
            return _SCHEMES[scheme](path)
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), os.path.abspath(path)


def is_local(fs: pafs.FileSystem) -> bool:
    return isinstance(fs, pafs.LocalFileSystem)


def join(*parts: str) -> str:
    """Join snapshot-internal path segments (posix separators on every fs)."""
    return posixpath.join(*parts)


def exists(fs: pafs.FileSystem, path: str) -> bool:
    return fs.get_file_info(path).type != pafs.FileType.NotFound


def makedirs(fs: pafs.FileSystem, path: str) -> None:
    fs.create_dir(path, recursive=True)


def rm_tree(fs: pafs.FileSystem, path: str) -> None:
    info = fs.get_file_info(path)
    if info.type == pafs.FileType.Directory:
        fs.delete_dir(path)
    elif info.type != pafs.FileType.NotFound:
        fs.delete_file(path)


def ls_files(
    fs: pafs.FileSystem, path: str, suffix: str = "", recursive: bool = True
) -> List[str]:
    """Sorted file paths under ``path`` (empty when the dir is absent)."""
    if not exists(fs, path):
        return []
    sel = pafs.FileSelector(path, recursive=recursive, allow_not_found=True)
    return sorted(
        f.path
        for f in fs.get_file_info(sel)
        if f.type == pafs.FileType.File and f.path.endswith(suffix)
    )


def ls_dirs(fs: pafs.FileSystem, path: str) -> List[str]:
    if not exists(fs, path):
        return []
    sel = pafs.FileSelector(path, recursive=False, allow_not_found=True)
    return sorted(
        f.path for f in fs.get_file_info(sel) if f.type == pafs.FileType.Directory
    )


def read_json(fs: pafs.FileSystem, path: str) -> dict:
    with fs.open_input_stream(path) as f:
        return json.loads(f.read().decode("utf-8"))


def write_json(fs: pafs.FileSystem, path: str, obj: dict) -> None:
    data = json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")
    with fs.open_output_stream(path) as f:
        f.write(data)


# pyarrow's parquet writer buffers a whole row group per column chunk and
# raises ArrowCapacityError past 2³¹−2 bytes in one chunk; cap groups at
# 1 GiB so >2 GiB-of-content batches (SURVEY §1.3 large_string corpora)
# write as several row groups in the same file instead of failing.  A
# SINGLE row wider than the soft cap still writes (its own row group) as
# long as it stays under the hard per-chunk/value limit below.
_RG_BYTE_CAP = 1 << 30
# parquet BYTE_ARRAY values (and writer column chunks) are int32-capped;
# keep a small margin for page headers/offsets
_VALUE_BYTE_CAP = (1 << 31) - (1 << 16)


def _row_group_slices(table) -> list:
    """(offset, length) row-group boundaries keeping every variable-width
    column's per-group bytes under ``_RG_BYTE_CAP``.  Returns a single
    full-table slice for the common small case (cheap: one nbytes probe)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    var_cols = [
        c
        for c in table.columns
        if pa.types.is_string(c.type)
        or pa.types.is_large_string(c.type)
        or pa.types.is_binary(c.type)
        or pa.types.is_large_binary(c.type)
    ]
    if not var_cols or all(c.nbytes <= _RG_BYTE_CAP for c in var_cols):
        return [(0, table.num_rows)]
    # conservative: bound the SUM of all var-width columns per group, which
    # bounds each individual column chunk a fortiori
    widths = np.zeros(table.num_rows, dtype=np.int64)
    for c in var_cols:
        # fill_null: quarantined rows carry NULL content (doc_meta
        # `failed` marker) and must count as 0 bytes, not poison the array
        w = pc.fill_null(pc.binary_length(c), 0).combine_chunks()
        widths += np.asarray(w, dtype=np.int64)
    over = widths > _VALUE_BYTE_CAP
    if over.any():
        i = int(np.argmax(over))
        raise ValueError(
            f"row {i}'s variable-width columns sum to {int(widths[i])} "
            "bytes — parquet BYTE_ARRAY values (and writer column chunks) "
            "are int32-length-capped (~2 GiB); shard the document before "
            "ingest"
        )
    slices, start, acc = [], 0, 0
    for i, w in enumerate(widths):
        # a single row between the soft cap and the hard cap becomes its
        # own row group (the close-then-accumulate below handles it)
        if acc + w > _RG_BYTE_CAP and i > start:
            slices.append((start, i - start))
            start, acc = i, 0
        acc += int(w)
    slices.append((start, table.num_rows - start))
    return slices


def parquet_rows(path: str, fs: pafs.FileSystem | None = None) -> int:
    """Row count of a parquet file or directory from FOOTER metadata only
    (zero data read; recursive over nested/hive layouts).  ``path`` is a
    path or URI, or an in-filesystem path when ``fs`` is given."""
    if fs is None:
        fs, path = resolve(path)
    if fs.get_file_info(path).type == pafs.FileType.Directory:
        files = ls_files(fs, path, suffix=".parquet")
    else:
        files = [path]
    return sum(n for f in files for n, _ in parquet_row_groups(f, fs))


def parquet_row_groups(path: str, fs: pafs.FileSystem, columns=None) -> list:
    """(rows, uncompressed bytes of ``columns``, all when None) of each row
    group of one parquet file, from its footer alone."""
    import pyarrow.parquet as pq

    md = pq.read_metadata(path, filesystem=fs)
    return [(rg.num_rows, sum(
        c.total_uncompressed_size for c in map(rg.column, range(rg.num_columns))
        if columns is None or c.path_in_schema.split(".")[0] in columns))
        for rg in map(md.row_group, range(md.num_row_groups))]


def write_table_idempotent(fs: pafs.FileSystem, table, dir_path: str,
                           name: str, row_group_starts=(), **pq_kwargs) -> int:
    """Write one parquet file with a deterministic name and return its
    size in bytes.  Local: tmp+rename (atomic).  Object store: direct put
    (single-object writes are atomic at the object level; deterministic
    names make retries idempotent).  A row group starts at each of
    ``row_group_starts`` (ascending row offsets; empty groups are
    skipped), and tables whose variable-width columns exceed ~1 GiB are
    written as multiple byte-bounded row groups (see
    ``_row_group_slices``)."""
    import pyarrow.parquet as pq

    def _write(path: str) -> None:
        cuts = [0, *row_group_starts, table.num_rows]
        slices = [(lo + off, length)
                  for lo, hi in zip(cuts, cuts[1:]) if hi > lo
                  for off, length in _row_group_slices(table.slice(lo, hi - lo))]
        if len(slices) <= 1:
            pq.write_table(table, path, filesystem=fs, **pq_kwargs)
            return
        with pq.ParquetWriter(
            path, table.schema, filesystem=fs,
            compression=pq_kwargs.pop("compression", "snappy"), **pq_kwargs
        ) as w:
            for off, length in slices:
                w.write_table(table.slice(off, length))

    final = join(dir_path, name)
    if is_local(fs):
        os.makedirs(dir_path, exist_ok=True)
        # per-writer unique tmp: two concurrent tasks may legitimately race
        # to write the same idempotent name (e.g. a retried task and its
        # still-running original) — a shared tmp path would interleave their
        # bytes; whichever rename lands last wins with a complete file
        tmp = join(dir_path, f".{name}.{os.getpid()}.{uuid.uuid4().hex[:8]}")
        _write(tmp)
        os.replace(tmp, final)
    else:
        _write(final)
    return fs.get_file_info(final).size


class StagedDir:
    """Stage-then-commit directory write (see module docstring).

    Usage::

        st = StagedDir(fs, final_dir)
        ds.write_parquet(st.path, filesystem=fs, ...)
        st.commit()          # local: rename .tmp → final; remote: no-op
    """

    def __init__(self, fs: pafs.FileSystem, final_dir: str):
        self.fs = fs
        self.final = final_dir
        if is_local(fs):
            self.path = final_dir.rstrip("/") + ".tmp"
            rm_tree(fs, self.path)
            rm_tree(fs, final_dir)
        else:
            rm_tree(fs, final_dir)
            self.path = final_dir

    def commit(self) -> None:
        # a zero-row Dataset write creates no dir at all — materialize it so
        # downstream listings see an empty-but-valid stage output
        if not exists(self.fs, self.path):
            makedirs(self.fs, self.path)
        if is_local(self.fs):
            os.replace(self.path, self.final)
