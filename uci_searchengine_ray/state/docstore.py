"""The doc table: the one owner of a snapshot's doc ordinals and page rows.

A doc's *ordinal* is its rank among the snapshot's ascending ``doc_meta``
ids, and this module alone defines it: the phase-2 merge maps each tokenize
batch's doc ranks to ordinals through ``batch_ordinals``, posting blocks
store them, and ``DocStore`` (through ``read_doc_meta``) holds the ids and
token lengths by ordinal that scorers read.

The reference reads ``Document`` rows back from SQLite for snippets and titles
(search.py:92-111).  Here ``DocStore`` reads the page-serving columns of
``doc_meta`` (``doc_id``, ``url``, ``title`` and, when the snapshot stores
it, ``content``) once and keeps them resident in file order behind the one
permutation.  A page lookup is then a binary search of the sorted ids plus
one Arrow ``take``: O(page · log N) per query, not O(N).

A predicate pushed into the parquet scan (``doc_id ∈ {...}``) cannot do this:
doc ids are 63-bit stable hashes (``functions.hashing.stable_doc_id``), so every
row group's min/max statistics span the whole id range, nothing is pruned, and
each query would decompress all of ``doc_meta``.

Every read here opens each listed file once with ``pyarrow.parquet``; the
module imports neither ``pyarrow.dataset`` nor Ray, so a serving process
(``server.SearchServer``) loads neither.  Arrow and numpy meet only through
buffers (``int64_view``, ``int64_array``, ``string_array``): pyarrow imports
pandas on ``Array.to_numpy``, ``pa.array``, ``pa.scalar``,
``Schema.empty_table`` and ``Table.take(<ndarray>)``, and serving never needs
it.  The module also owns the snapshot's ``stats.json`` (``load_stats``) and
the format the readers accept (``SNAPSHOT_FORMAT``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.tokenize import DOC_META_SCHEMA
from . import storage

# the columns a result page needs; only these are held resident
PAGE_COLUMNS = ("doc_id", "url", "title", "content")
# stats.json "format": 2 = block doc_ids are doc ordinals and blocks carry
# no doc lengths; snapshots without the field hold hashed ids + doc_lens
SNAPSHOT_FORMAT = 2


def load_stats(index_dir: str) -> dict:
    """The snapshot's ``stats.json``."""
    fs, root = storage.resolve(index_dir)
    return storage.read_json(fs, storage.join(root, "stats.json"))


def int64_view(col) -> np.ndarray:
    """A read-only numpy view of an int64 Arrow column without nulls (one
    chunk is viewed in place, several are concatenated first).  Raises
    TypeError on another type and ValueError on nulls."""
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    if col.type != pa.int64():
        raise TypeError(f"expected an int64 column, got {col.type}")
    if col.null_count:
        raise ValueError(f"int64 column has {col.null_count} nulls")
    if len(col):
        view = np.frombuffer(col.buffers()[1], dtype=np.int64,
                             count=len(col), offset=col.offset * 8)
    else:
        view = np.empty(0, np.int64)
    view.flags.writeable = False
    return view


def int64_array(values: np.ndarray) -> pa.Array:
    """An int64 Arrow array over the buffer of ``values`` (copied only if it
    is not contiguous int64)."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    return pa.Array.from_buffers(pa.int64(), len(values),
                                 [None, pa.py_buffer(values)])


def string_array(values: Sequence[str]) -> pa.Array:
    """An Arrow string array of ``values`` (UTF-8 bytes, byte offsets)."""
    data = [v.encode() for v in values]
    offsets = np.zeros(len(data) + 1, np.int32)
    np.cumsum([len(b) for b in data], out=offsets[1:])
    return pa.Array.from_buffers(
        pa.string(), len(data),
        [None, pa.py_buffer(offsets), pa.py_buffer(b"".join(data))])


def _doc_meta_files(index_dir: str):
    """(filesystem, the snapshot's ``doc_meta`` files in sorted order)."""
    fs, root = storage.resolve(index_dir)
    return fs, storage.ls_files(fs, storage.join(root, "doc_meta"),
                                suffix=".parquet")


def _read_columns(fs, path: str, columns: Sequence[str]) -> pa.Table:
    """``columns`` of one parquet file that it stores, in one open."""
    with pq.ParquetFile(path, filesystem=fs) as f:
        return f.read(columns=[c for c in columns
                               if c in f.schema_arrow.names])


def read_doc_meta(index_dir: str, columns: Sequence[str]) -> Tuple[pa.Table, np.ndarray]:
    """(rows, order): the snapshot's ``doc_meta`` rows in file order, one
    chunk per column, and the stable permutation that sorts them by
    ``doc_id``.  ``columns`` must include ``doc_id``; those the snapshot
    does not store (``content`` on a ``store_content=False`` build) are
    left out.  A snapshot without ``doc_meta`` files has no rows."""
    fs, files = _doc_meta_files(index_dir)
    if files:
        rows = pa.concat_tables([_read_columns(fs, f, columns) for f in files])
    else:
        rows = pa.Table.from_batches([], DOC_META_SCHEMA)
        rows = rows.select([c for c in columns if c in rows.column_names])
    # one chunk per column: a take from a chunked column concatenates all
    # of its chunks first, an O(N) copy on every fetch
    rows = rows.combine_chunks()
    return rows, np.argsort(int64_view(rows["doc_id"]), kind="stable")


def find_ordinals(sorted_ids: np.ndarray, doc_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(ordinals, found): each of ``doc_ids``' position in the ascending
    ``sorted_ids``, and whether it is there (a missing id's ordinal names
    a neighbour)."""
    ords = np.searchsorted(sorted_ids, doc_ids)
    found = ords < len(sorted_ids)
    found[found] = sorted_ids[ords[found]] == doc_ids[found]
    return ords, found


def batch_ordinals(index_dir: str) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """(files, offsets, ordinals): the snapshot's ``doc_meta`` files (one
    per tokenize batch) and, concatenated in that order, the ordinals of
    each file's ascending doc ids, so file i's rank k is ordinal
    ``ordinals[offsets[i] + k]``.  Raises ValueError naming a doc id that
    two files share: both would hold one ordinal."""
    fs, files = _doc_meta_files(index_dir)
    per_file = [np.sort(int64_view(_read_columns(fs, f, ["doc_id"])["doc_id"]))
                for f in files]
    flat = np.concatenate(per_file) if per_file else np.empty(0, np.int64)
    ids = np.sort(flat)
    dup = np.flatnonzero(ids[1:] == ids[:-1])
    if len(dup):
        raise ValueError(
            f"duplicate doc_id {int(ids[dup[0]])} in two corpus batches — "
            "document identity is stable_doc_id(repo, path, commit); the "
            "same natural key appears more than once in the input"
        )
    offsets = np.concatenate(([0], np.cumsum([len(a) for a in per_file])))
    return files, offsets.astype(np.int64), find_ordinals(ids, flat)[0]


def quarantine_listing(index_dir: str, limit: int = 1000):
    """Failed-document listing (SURVEY §2.6 K4; reference routes.py:411-416
    lists failed URLs ordered, limit 1000): doc_meta rows flagged failed
    (null content at ingest), in doc_id order, bounded."""
    rows, order = read_doc_meta(index_dir, ("doc_id", "url", "title", "failed"))
    order = int64_array(order)
    failed = pc.indices_nonzero(rows["failed"].take(order))[:limit]
    return rows.take(order.take(failed))


class DocStore:
    """One snapshot's doc table, read from ``doc_meta`` once: ``ids``
    ascending (``ids[k]`` is the doc of ordinal k), ``lens`` (token lengths
    by ordinal) and, with ``pages``, the page columns ``fetch`` serves, kept
    in file order (``_order`` maps an ordinal to its row, so the strings are
    never sorted).  Raises ValueError unless ``doc_meta`` holds exactly the
    ``n_docs`` of stats.json: every ordinal past a missing doc would name
    its neighbour.
    """

    def __init__(self, index_dir: str, pages: bool = True):
        rows, self._order = read_doc_meta(
            index_dir, ("doc_len", *PAGE_COLUMNS) if pages else ("doc_id", "doc_len"))
        n_docs = load_stats(index_dir)["n_docs"]
        if rows.num_rows != n_docs:
            raise ValueError(
                f"index {index_dir!r}: doc_meta holds {rows.num_rows} docs, "
                f"stats.json counts {n_docs}; the snapshot is inconsistent"
            )
        self.ids = int64_view(rows["doc_id"])[self._order]
        self.lens = int64_view(rows["doc_len"])[self._order]
        self._table = rows.drop_columns(["doc_len"])
        # content is optional in the store (EngineConfig.store_content=False
        # at lake scale); callers get rows without it and degrade gracefully
        self._absent = set(PAGE_COLUMNS) - set(self._table.column_names)

    def fetch(self, doc_ids: Iterable[int], columns=PAGE_COLUMNS) -> Dict[int, dict]:
        """``{doc_id: row}`` for the requested ids found in the store; ids
        the store lacks are left out.  ``columns`` the snapshot does not
        store (``content`` on a ``store_content=False`` build) are left out
        of the rows; other columns outside ``PAGE_COLUMNS`` raise KeyError."""
        cols = [c for c in columns if c not in self._absent]
        want = np.unique(np.fromiter(doc_ids, dtype=np.int64))
        ords, found = find_ordinals(self.ids, want)
        rows = self._table.select(cols).take(
            int64_array(self._order[ords[found]]))
        return dict(zip(want[found].tolist(), rows.to_pylist()))
