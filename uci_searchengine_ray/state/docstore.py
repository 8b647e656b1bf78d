"""Forward document store: point lookups of document rows by doc_id.

The reference reads ``Document`` rows back from SQLite for snippets and titles
(search.py:92-111).  Here the store is the ``doc_meta`` parquet of the index
snapshot.  ``DocStore`` reads its page-serving columns (``doc_id``, ``url``,
``title`` and, when the snapshot stores it, ``content``) once, when it is
built, and keeps them resident in input order next to a doc_id-sorted
permutation.  A page lookup is then a binary search of the sorted ids plus one
Arrow ``take``: O(page · log N) per query, not O(N).

A predicate pushed into the parquet scan (``doc_id ∈ {...}``) cannot do this:
doc ids are 63-bit stable hashes (``functions.hashing.stable_doc_id``), so every
row group's min/max statistics span the whole id range, nothing is pruned, and
each query would decompress all of ``doc_meta``.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np
import pyarrow.compute as pc
import pyarrow.dataset as pa_ds

# the columns a result page needs; only these are held resident
PAGE_COLUMNS = ("doc_id", "url", "title", "content")


def quarantine_listing(index_dir: str, limit: int = 1000):
    """Failed-document listing (SURVEY §2.6 K4; reference routes.py:411-416
    lists failed URLs ordered, limit 1000): doc_meta rows flagged failed
    (null content at ingest), deterministic order, bounded."""
    from . import storage

    fs, root = storage.resolve(index_dir)
    ds = pa_ds.dataset(
        storage.join(root, "doc_meta"), format="parquet", filesystem=fs
    )
    tbl = ds.to_table(
        columns=["doc_id", "url", "title", "failed"],
        filter=pc.field("failed") == True,  # noqa: E712 — pyarrow expression
    )
    idx = pc.sort_indices(tbl, sort_keys=[("doc_id", "ascending")])
    return tbl.take(idx).slice(0, limit)


class DocStore:
    """Resident page-serving columns of one snapshot's ``doc_meta``.

    The table stays in input order; ``_ids`` holds the doc ids sorted and
    ``_order`` maps each sorted position back to its table row, so no second
    (sorted) copy of the strings is ever made.  Memory is O(N) per store.
    """

    def __init__(self, index_dir: str):
        from . import storage

        fs, root = storage.resolve(index_dir)
        dataset = pa_ds.dataset(
            storage.join(root, "doc_meta"), format="parquet", filesystem=fs
        )
        # content is optional in the store (EngineConfig.store_content=False
        # at lake scale); callers get rows without it and degrade gracefully
        self._absent = set(PAGE_COLUMNS) - set(dataset.schema.names)
        # one chunk per column: a take from a chunked column concatenates
        # all of its chunks first, an O(N) copy on every fetch
        self._table = dataset.to_table(
            columns=[c for c in PAGE_COLUMNS if c not in self._absent]
        ).combine_chunks()
        # a snapshot without doc_meta files has no doc_id column: empty store
        ids = (
            np.empty(0, np.int64)
            if "doc_id" in self._absent
            else self._table.column("doc_id").to_numpy()
        )
        self._order = np.argsort(ids, kind="stable")
        self._ids = ids[self._order]

    def fetch(self, doc_ids: Iterable[int], columns=PAGE_COLUMNS) -> Dict[int, dict]:
        """``{doc_id: row}`` for the requested ids found in the store; ids
        the store lacks are left out.  ``columns`` the snapshot does not
        store (``content`` on a ``store_content=False`` build) are left out
        of the rows; other columns outside ``PAGE_COLUMNS`` raise KeyError."""
        cols = [c for c in columns if c not in self._absent]
        want = np.unique(np.fromiter(doc_ids, dtype=np.int64))
        if not len(want) or not len(self._ids):
            return {}
        pos = np.searchsorted(self._ids, want)
        found = self._ids[np.minimum(pos, len(self._ids) - 1)] == want
        rows = self._table.select(cols).take(self._order[pos[found]])
        return dict(zip(want[found].tolist(), rows.to_pylist()))
