"""Training-data export: the final step of the curation chain — curated
keep-list (lang/quality filters + exact dedup, pipelines/curation.py) minus
benchmark-contaminated docs (pipelines/cleaning.py:decontaminate), assigned
to deterministic output shards, written as hive-partitioned parquet.

Ray-Data-first shape:
- the keep-list is computed entirely from no-text projections (curate's
  survivor rows are ~32 B/doc; the shuffle never carries text);
- the CONTAMINATED id set is broadcast (``ray.put``) — it is small by
  nature (bounded by the eval-benchmark gram overlap, not the corpus);
- shard = Knuth multiplicative hash of doc_id (the same stateless primitive
  as ``analysis.sample_documents``) — no coordination, join-stable,
  recomputable by any worker;
- the text join-back for the WRITE path avoids both a text shuffle and a
  driver-side id set: the keep-list is written as a doc_id-sorted spool
  (``state/spool.py``, the same format as ``strip_dup_spans``' interval
  spool), and a task pass over ``documents`` does ONE row-group-pruned
  read per batch (``doc_id ∈ [batch_min, batch_max]``) for membership;
- every per-batch stage runs as stateless Ray Data tasks, not an actor
  pool: it holds only a path or the broadcast object ref;
- output is partitioned ``shard=K/`` parquet, so a failed export rerun can
  skip finished shards; ``out_dir`` carries an ownership marker, so an
  export never clears a directory it did not write.

The per-shard summary (shard, n_docs, n_tokens, n_chars) is the driver-gated
query (``__ray_entry__.oracle_sql()["export_shards"]``).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Sum

EXPORT_SHARDS = 8
_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(1 << 32)


def _shard_of(ids: np.ndarray, n_shards: int) -> np.ndarray:
    h = ((ids.astype(np.uint64) % _M32) * _KNUTH) % _M32
    return (h % np.uint64(n_shards)).astype(np.int64)


def keep_list(
    sf_dir: str, n_shards: int = EXPORT_SHARDS
) -> "ray.data.Dataset":
    """(doc_id, lang, n_tokens, n_chars, shard) for every exported doc:
    curate survivors minus contaminated docs, minus the eval split itself
    (a training export never emits the held-out split).

    FUSED pass: the curate metrics (lang-ID, quality, sha256) and the
    decontaminate gram-membership check run in ONE text scan (the eval-gram
    set is broadcast; grams are hashed only for curate survivors — losers
    never need a contamination verdict).  Semantics are identical to the
    curate→decontaminate composition: the sha-dedup groupby still runs over
    ALL survivors including eval docs (an eval doc can WIN a sha group and
    thereby knock out its training-side duplicates), and the eval /
    contaminated filters apply to the winner row after the groupby, exactly
    as the unfused chain filtered winners.  Separately running
    ``curate(sf_dir)`` + ``decontaminate(sf_dir)`` costs two full text
    scans plus a driver-collected contaminated-id set; the fused pass costs
    one scan and ships one extra boolean through the ~40 B/doc sha shuffle
    (measured 18.9 s → ~12 s at 60k docs)."""
    from .cleaning import (
        DECON_EVAL_MOD,
        DECON_NGRAM,
        collect_eval_grams,
        shared_gram_counts,
    )
    from .curation import curate_filter_batch

    ref = ray.put(collect_eval_grams(sf_dir))

    def fused_filter(batch: pa.Table) -> pa.Table:
        proj, keep = curate_filter_batch(batch)
        ids = proj["doc_id"].to_numpy(zero_copy_only=False)
        is_eval = ids % DECON_EVAL_MOD == 0
        texts = [
            t or "" for t, k in zip(batch["text"].to_pylist(), keep) if k
        ]
        train_texts = [t for t, e in zip(texts, is_eval) if not e]
        shared = shared_gram_counts(train_texts, ray.get(ref), DECON_NGRAM)
        bad = np.zeros(len(ids), dtype=bool)
        bad[~is_eval] = shared > 0
        return proj.append_column("drop", pa.array(is_eval | bad))

    def keep_first(group: pa.Table) -> pa.Table:
        """Per sha-bucket: min-doc_id winner per distinct content, ONE
        lexsort + segment pass (see curation.curate)."""
        cols = ["doc_id", "lang", "n_tokens", "n_chars", "drop"]
        idx = min_doc_winner_indices(
            group["content_sha256"].to_pylist(),
            group["doc_id"].to_numpy(zero_copy_only=False),
        )
        return group.select(cols).take(pa.array(idx))

    def finalize(batch: pa.Table) -> pa.Table:
        out = batch.filter(pc.invert(batch["drop"])).drop_columns(["drop"])
        sh = _shard_of(
            out["doc_id"].to_numpy(zero_copy_only=False), n_shards
        )
        return out.append_column("shard", pa.array(sh, pa.int64()))

    from ..stages.dedup import min_doc_winner_indices
    from ..stages.keyed import BUCKETS, bucket_groups

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    return bucket_groups(
        docs.map_batches(
            fused_filter, batch_format="pyarrow", zero_copy_batch=True
        ),
        "content_sha256",
        BUCKETS,
        keep_first,
    ).map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


def export_shards_summary(
    sf_dir: str, n_shards: int = EXPORT_SHARDS
) -> "ray.data.Dataset":
    """Per-shard export manifest: (shard, n_docs, n_tokens, n_chars)."""
    return (
        keep_list(sf_dir, n_shards)
        .groupby("shard")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("n_chars", alias_name="n_chars"),
        )
    )


_COMPLETE = "_COMPLETE"
_EXPORT_MARKER = ".uciray_export"
_KEEP_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("lang", pa.string()),
        ("n_tokens", pa.int64()),
        ("n_chars", pa.int64()),
        ("shard", pa.int64()),
    ]
)


class _TextJoin:
    """Membership + shard lookup: one pruned read of the doc_id-sorted
    keep-list per batch; rows of the ``skip`` shards are dropped."""

    def __init__(self, kl: str, skip: frozenset):
        self.kl = kl
        self.skip = np.asarray(sorted(skip), dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..state.spool import read_doc_range

        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        kt, row = read_doc_range(self.kl, ids, ["shard"])
        sh = kt["shard"].to_numpy(zero_copy_only=False)
        keep = ~np.isin(sh, self.skip)
        row, sh = row[keep], sh[keep]
        o = np.argsort(row)  # back to batch order
        out = batch.take(pa.array(row[o]))
        return out.append_column("shard", pa.array(sh[o], pa.int64()))


def export_pretraining(
    sf_dir: str, out_dir: str, n_shards: int = EXPORT_SHARDS,
    resume: bool = False,
) -> dict:
    """Write the export: ``out_dir/keeplist/`` (doc_id-sorted keep-list
    parquet) then ``out_dir/data/shard=K/`` (full rows incl. text).

    The text pass never shuffles: each batch does one row-group-pruned
    membership read of the sorted keep-list.  Returns {shards, docs}.

    ``out_dir`` is owned through a ``.uciray_export`` marker: a fresh
    export clears a directory only if a previous export wrote it, and
    refuses any other non-empty directory.

    Resumable at SHARD granularity: each finished ``shard=K`` dir gets a
    ``_COMPLETE`` marker.  With ``resume=True`` (which also needs the
    ``.uciray_export`` marker on a non-empty ``out_dir``) a rerun (a)
    deletes shard dirs that lack the marker (a crashed run's partial files
    — rewriting them from scratch is the only duplicate-safe choice, since
    write_parquet appends), (b) skips every marked shard's rows in the
    join pass (their docs never leave the filter), and (c) rewrites the
    keep-list only if absent.  A fully-finished export rerun is a no-op
    over ``data/``.
    """
    import shutil

    from ..state.spool import claim_dir, write_doc_sorted
    from ..state.storage import parquet_rows

    claim_dir(out_dir, _EXPORT_MARKER, "a previous export_pretraining run",
              keep=resume)
    kl_dir = os.path.join(out_dir, "keeplist")
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)

    done_shards: set = set()
    if resume:
        for name in os.listdir(data_dir):
            p = os.path.join(data_dir, name)
            if not (name.startswith("shard=") and os.path.isdir(p)):
                continue
            if os.path.exists(os.path.join(p, _COMPLETE)):
                done_shards.add(int(name.split("=", 1)[1]))
            else:
                shutil.rmtree(p)  # partial files from a crashed run

    if not (resume and os.path.isdir(kl_dir) and os.listdir(kl_dir)):
        os.makedirs(kl_dir, exist_ok=True)
        write_doc_sorted(keep_list(sf_dir, n_shards), kl_dir, _KEEP_SCHEMA)

    if len(done_shards) < n_shards:
        docs = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet")
        )
        joined = docs.map_batches(
            _TextJoin(kl_dir, frozenset(done_shards)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        joined.write_parquet(data_dir, partition_cols=["shard"])
        for name in os.listdir(data_dir):
            p = os.path.join(data_dir, name)
            if name.startswith("shard=") and os.path.isdir(p):
                open(os.path.join(p, _COMPLETE), "w").close()

    return {
        "shards": n_shards,
        "docs": parquet_rows(data_dir),
        "data_dir": data_dir,
        "skipped_shards": sorted(done_shards),
    }
