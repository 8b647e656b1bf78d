"""End-to-end training-data curation: language filter → quality filter →
exact dedup → curated corpus listing.

The composition a pretraining-data pipeline runs before tokenization, built
from this repo's own kernels (functions/textstats.py, functions/hashing.py)
as ONE streaming pass plus one hash-partitioned groupby:

  read documents → map_batches: lang-ID + quality metrics + sha256,
      filter rows vectorized (keep docs whose predicted language matches
      the declared one, with enough tokens and a sane stopword ratio)
  → groupby(content_sha256): keep the lowest doc_id per distinct content

Thresholds are part of the operator contract (mirrored in the DuckDB
oracle, __ray_entry__.oracle_sql()["curate"]); the stopword ratio is
compared after round-6 like the lang_quality gate so engine and oracle
agree on boundary values.

At 100 TB: stage 1 is embarrassingly parallel and emits only the 5-column
survivor projection (no text) into the shuffle; the dedup groupby
exchanges ~40 B/doc.  Near-dup pruning (minhash/simhash/embedding) chains
after this exact pass via the stages/dedup.py pipelines.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..functions.rounding import sql_round


def curate_filter_batch(
    batch: pa.Table,
    min_tokens: int = 30,
    max_stopword_ratio: float = 0.15,
) -> tuple:
    """The curate filter kernel over one batch: lang-ID + quality metrics +
    sha256, vectorized keep mask.  Returns ``(projection, keep)`` where
    ``projection`` is the already-FILTERED no-text survivor table
    (doc_id, lang, n_tokens, n_chars, content_sha256) and ``keep`` the
    boolean mask over the input rows — so callers needing the surviving
    TEXTS (the fused export pass) can slice them without a second scan."""
    from ..functions.hashing import content_sha256_batch
    from ..functions.textstats import predict_lang, quality_stats

    texts = [t or "" for t in batch["text"].to_pylist()]
    langs = batch["lang"].to_pylist()
    preds, n_tok, n_chars, stop_r = [], [], [], []
    for t in texts:
        preds.append(predict_lang(t))
        qs = quality_stats(t)
        n_tok.append(qs["n_tokens"])
        n_chars.append(qs["n_chars"])
        stop_r.append(qs["stopword_ratio"])
    n_tok = np.asarray(n_tok, dtype=np.int64)
    n_chars = np.asarray(n_chars, dtype=np.int64)
    stop_r = sql_round(np.asarray(stop_r, dtype=np.float64), 6)
    keep = (
        (n_tok >= min_tokens)
        & (stop_r <= max_stopword_ratio)
        & np.asarray([p == l for p, l in zip(preds, langs)], dtype=bool)
    )
    out = pa.table(
        {
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_chars": pa.array(n_chars, pa.int64()),
            "content_sha256": pa.array(
                content_sha256_batch(texts), pa.string()
            ),
        }
    ).filter(pa.array(keep))
    return out, keep


def curate(
    sf_dir: str,
    min_tokens: int = 30,
    max_stopword_ratio: float = 0.15,
) -> "ray.data.Dataset":
    """Curated corpus listing: (doc_id, lang, n_tokens, n_chars) of docs
    that pass lang + quality filters, one survivor per distinct content."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )

    def filter_stage(batch: pa.Table) -> pa.Table:
        return curate_filter_batch(batch, min_tokens, max_stopword_ratio)[0]

    from ..stages.dedup import min_doc_winner_indices
    from ..stages.keyed import BUCKETS, bucket_groups

    def keep_first(group: pa.Table) -> pa.Table:
        """Per sha-bucket: min-doc_id winner per distinct content, ONE
        lexsort + segment pass (a map_groups call per sha group is a
        Python call per distinct content — the slow path)."""
        cols = ["doc_id", "lang", "n_tokens", "n_chars"]
        idx = min_doc_winner_indices(
            group["content_sha256"].to_pylist(),
            group["doc_id"].to_numpy(zero_copy_only=False),
        )
        return group.select(cols).take(pa.array(idx))

    return bucket_groups(
        ds.map_batches(filter_stage, batch_format="pyarrow", zero_copy_batch=True),
        "content_sha256",
        BUCKETS,
        keep_first,
    )
