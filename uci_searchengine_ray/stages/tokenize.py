"""Tokenize / explode / doc-meta map_batches stages.

Rebuild of the reference's per-document tokenize + TF-count path
(crawler.py:426-432, tokenizer.py:5-21 — SURVEY.md §2.2 M3-M6, §2.5 A1) as
batch transforms over zero-copy Arrow:

  - ``TokenizeExplode`` — callable class (actor pool): corpus batch in →
    exploded ``(term, doc_id, tf, doc_len)`` Arrow batch out.  The per-doc TF
    combine (A1) happens inside the batch, so each (term, doc_id) pair is
    globally unique afterwards — no combine shuffle is ever needed.  The regex
    is compiled once per actor in ``__init__``.
  - ``doc_meta_batch`` — stateless: corpus batch in → doc-meta rows out
    (doc_id, url, title, lang, n_chars, content_sha256).  Mirrors the
    reference's document upsert fields (crawler.py:209-237: url, title,
    content) plus the sha256 invariant (input_hint).  The index build passes
    the token lengths it already counted, so content is tokenized exactly
    once per document, and the doc ids it already computed; the ``doc_len``
    column is the one copy of a doc's length, which the scorers read by doc
    ordinal.

Empty/punctuation-only docs produce zero postings but still get a doc-meta row
(N counts them, matching reference search.py:85 which counts uncrawled stubs).
"""

from __future__ import annotations

from collections import Counter
from typing import List

import numpy as np
import pyarrow as pa

from ..functions.hashing import content_sha256_batch, stable_doc_id
from ..functions.tokenizer import TOKENIZERS
from ..functions.urltools import canonical_doc_url

POSTINGS_RAW_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("tf", pa.int32()),
        ("doc_len", pa.int32()),
    ]
)

DOC_META_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("url", pa.string()),
        ("title", pa.string()),
        ("lang", pa.string()),
        ("n_chars", pa.int64()),
        # token count under the build's tokenizer mode, the one copy of a
        # doc's length (scorers read it by doc ordinal)
        ("doc_len", pa.int64()),
        ("content_sha256", pa.string()),
        ("failed", pa.bool_()),
        # forward store: the reference keeps full content in the documents
        # table (models.py:74) and reads it back for snippets/tf
        # (search.py:92,103); doc_meta is that store, parquet-compressed.
        # state/docstore.py alone reads it as the doc table that defines
        # doc ordinals; serving looks page rows up by ordinal: the ids are
        # hashes, so row-group statistics could never prune a scan
        ("content", pa.large_string()),
    ]
)


def _batch_doc_ids(batch: pa.Table) -> List[int]:
    """doc_id column if present (driver testdata), else the deterministic
    stable id from (repo, path, commit) — the no-global-sort scale path
    (SURVEY.md §7 hard part 2)."""
    if "doc_id" in batch.column_names:
        return batch["doc_id"].to_pylist()
    return [
        stable_doc_id(r, p, c)
        for r, p, c in zip(
            batch["repo"].to_pylist(),
            batch["path"].to_pylist(),
            batch["commit"].to_pylist(),
        )
    ]


class TokenizeExplode:
    """Stateful tokenize stage for ``map_batches(..., concurrency=N)``."""

    def __init__(self, mode: str = "reference"):
        # once per actor: resolve + bind the tokenizer (compiled regexes)
        self._tokenize = TOKENIZERS[mode]

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = _batch_doc_ids(batch)
        contents = batch["content"].to_pylist()

        terms: List[str] = []
        out_doc: List[int] = []
        tfs: List[int] = []
        dls: List[int] = []
        tokenize = self._tokenize
        for doc_id, content in zip(doc_ids, contents):
            if not content:
                continue
            toks = tokenize(content)
            if not toks:
                continue
            dl = len(toks)
            freq = Counter(toks)
            terms.extend(freq.keys())
            tfs.extend(freq.values())
            out_doc.extend([doc_id] * len(freq))
            dls.extend([dl] * len(freq))

        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "doc_id": pa.array(out_doc, pa.int64()),
                "tf": pa.array(np.asarray(tfs, dtype=np.int32)),
                "doc_len": pa.array(np.asarray(dls, dtype=np.int32)),
            },
            schema=POSTINGS_RAW_SCHEMA,
        )


def doc_meta_batch(batch: pa.Table, doc_lens=None, doc_ids=None) -> pa.Table:
    if doc_ids is None:  # standalone use: the ids the batch implies
        doc_ids = _batch_doc_ids(batch)
    contents = batch["content"].to_pylist()
    if doc_lens is None:  # standalone use: reference-mode token count
        from ..functions.tokenizer import TOKENIZERS

        doc_lens = [len(TOKENIZERS["reference"](c or "")) for c in contents]
    urls = [
        canonical_doc_url(r, p, c)
        for r, p, c in zip(
            batch["repo"].to_pylist(),
            batch["path"].to_pylist(),
            batch["commit"].to_pylist(),
        )
    ]
    titles = batch["path"].to_pylist()  # title := path (SURVEY §2.2 M1 analog)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "url": pa.array(urls, pa.string()),
            "title": pa.array(titles, pa.string()),
            "lang": batch["lang"].cast(pa.string()),
            "n_chars": pa.array(
                np.asarray([len(c or "") for c in contents], dtype=np.int64)
            ),
            "doc_len": pa.array(np.asarray(doc_lens, dtype=np.int64)),
            "content_sha256": pa.array(
                content_sha256_batch([c or "" for c in contents]), pa.string()
            ),
            # quarantine marker (reference M16 crawler.py:317-354 analog):
            # null content = a fetch that failed; it stays in the corpus
            # (N counts it) but is flagged, never dropped
            "failed": pa.array([c is None for c in contents], pa.bool_()),
            "content": batch["content"].cast(pa.large_string()),
        },
        schema=DOC_META_SCHEMA,
    )
