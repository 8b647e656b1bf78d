"""Deterministic distributed sampling + packing for training-data mixtures.

Operators a pretraining pipeline needs beyond the Bernoulli primitive
(analysis.sample_documents):

- ``stratified_sample``: exactly n docs per group (lang), chosen by Knuth
  hash rank — the global per-group smallest-n is contained in the union of
  per-batch per-group smallest-n, so a vectorized map-side candidate cut
  feeds a tiny per-group merge: the shuffle carries at most
  O(batches · groups · n) rows regardless of corpus size.
- ``token_budget_mix``: per-lang greedy selection in hash order until a
  token budget is reached (the "sample 30B tokens of code, 10B of wiki"
  mixture step).
- ``pack_sequences``: assign every doc its (seq_id, seq_offset) position in
  the packed fixed-length training-sequence stream (docs straddle sequence
  boundaries, standard packed-pretraining layout) — deterministic in
  (hash, doc_id) order.

The latter two need a per-group PREFIX SUM in a deterministic global order
— an operator Ray Data lacks.  ``running_total`` implements it scale-safe
as a bucketed two-pass: the uniform 32-bit hash space is cut into fixed
ranges, pass 1 aggregates per-(group, bucket) sums (a groups×buckets table
— tiny — reduced to exclusive offsets on the driver and broadcast), pass 2
orders WITHIN each bucket only and adds the bucket's offset.  No global
sort, no driver-side data pass.

All operators are hash-deterministic (no RNG state), join-stable and
resumable: any worker can recompute membership from the key alone.
Oracles: __ray_entry__.oracle_sql()["stratified_sample" |
"token_budget_mix" | "pack_sequences"] (QUALIFY row_number / windowed SUM
OVER the same (hash, doc_id) order).
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(1 << 32)


def _hash32(ids: np.ndarray) -> np.ndarray:
    """((doc_id mod 2^32) * 2654435761) mod 2^32 — the repo-wide stateless
    sampling hash (HUGEINT-mirrorable in SQL)."""
    return ((ids.astype(np.uint64) % _M32) * _KNUTH) % _M32


def _group_ranks(keys: np.ndarray, h: np.ndarray, ids: np.ndarray):
    """(order, ranks): lexsort by (key, h, id) and rank within each key run.
    Vectorized — no Python loop over rows."""
    order = np.lexsort((ids, h, keys))
    k_sorted = keys[order]
    starts = np.flatnonzero(
        np.r_[True, k_sorted[1:] != k_sorted[:-1]]
    )
    run_id = np.cumsum(np.r_[True, k_sorted[1:] != k_sorted[:-1]]) - 1
    ranks = np.arange(len(keys), dtype=np.int64) - starts[run_id]
    return order, ranks


def stratified_sample(
    sf_dir: str, n_per_group: int = 40, group_col: str = "lang"
) -> "ray.data.Dataset":
    """Exactly min(n, |group|) docs per group: the n smallest (hash, doc_id)
    keys.  Output: (doc_id, lang, n_chars, sample_rank)."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", group_col, "n_chars"],
    )

    def candidate_cut(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = _hash32(ids)
        keys = batch[group_col].dictionary_encode().combine_chunks()
        kcodes = np.asarray(
            keys.indices.to_numpy(zero_copy_only=False), dtype=np.int64
        )
        order, ranks = _group_ranks(kcodes, h, ids)
        keep = np.sort(order[ranks < n_per_group])
        return batch.take(pa.array(keep))

    def per_group(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        h = _hash32(ids)
        order = np.lexsort((ids, h))[:n_per_group]
        out = group.take(pa.array(order))
        return out.append_column(
            "sample_rank",
            pa.array(np.arange(len(order), dtype=np.int64)),
        )

    return (
        ds.map_batches(candidate_cut, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby(group_col)
        .map_groups(per_group, batch_format="pyarrow")
    )


TOKEN_BUDGET = 20_000
SEQ_LEN = 512
MIX_BUCKETS = 64


def _tokens_and_hash(batch: pa.Table) -> pa.Table:
    """(doc_id, lang, n_tokens, h, bucket) — n_tokens = the repo tokenizer's
    token count (``tokenize_reference``, Unicode ``\\w+``).  Hot path: one
    vectorized RE2 scan counting [a-z0-9_]+ runs, which equals the
    reference count on ASCII text; rows containing non-ASCII (where a
    non-ASCII word char would split or vanish under the ASCII class) fall
    back to the exact Python tokenizer, so every operator in the engine
    reports the same per-doc token count regardless of script."""
    from ..functions.tokenizer import tokenize_reference

    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    texts = pc.fill_null(batch["text"], "")
    n_tok = pc.count_substring_regex(
        pc.utf8_lower(texts), pattern="[a-z0-9_]+"
    ).cast(pa.int64())
    ascii_mask = pc.string_is_ascii(texts).to_numpy(zero_copy_only=False)
    if not ascii_mask.all():
        n_np = n_tok.to_numpy(zero_copy_only=False).copy()
        for i in np.flatnonzero(~ascii_mask):
            n_np[i] = len(tokenize_reference(texts[int(i)].as_py()))
        n_tok = pa.array(n_np, pa.int64())
    h = _hash32(ids)
    bucket = (h // np.uint64((1 << 32) // MIX_BUCKETS)).astype(np.int64)
    bucket = np.minimum(bucket, MIX_BUCKETS - 1)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "n_tokens": n_tok,
            "h": pa.array(h.astype(np.int64)),
            "bucket": pa.array(bucket),
        }
    )


def _token_base(sf_dir: str) -> "ray.data.Dataset":
    """Materialized NO-TEXT projection (5 narrow columns, ~40 B/doc —
    ~0.04% of the input at 100 TB, spillable): both prefix-sum passes
    consume it; without this the text read + tokenize scan would run
    twice."""
    return (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "lang", "text"],
        )
        .map_batches(_tokens_and_hash, batch_format="pyarrow",
                     zero_copy_batch=True)
        .materialize()
    )


def running_total(
    base: "ray.data.Dataset",
    value_col: str,
    group_col: Optional[str] = None,
    stop_after: Optional[int] = None,
) -> "ray.data.Dataset":
    """Per-group INCLUSIVE running total of ``value_col`` in (h, doc_id)
    order, as a new ``cum`` column — the distributed ordered-prefix-sum
    primitive Ray Data lacks.

    ``base`` must carry doc_id, h, bucket (see ``_tokens_and_hash``).
    Scale shape: pass 1 is a (group, bucket) Sum groupby whose result is
    groups×MIX_BUCKETS rows — collected ONCE on the driver (tiny by
    construction), turned into exclusive bucket offsets, broadcast via
    ray.put.  Pass 2 groups by the same composite key and sorts only
    WITHIN a bucket (corpus/MIX_BUCKETS rows per task; raise MIX_BUCKETS
    with corpus size).  With ``stop_after``, buckets whose offset already
    meets it emit zero rows (valid when the consumer keeps only
    cum − value < stop_after)."""
    keys = ([group_col] if group_col else []) + ["bucket"]

    sums = (
        base.select_columns(keys + [value_col])
        .groupby(keys)
        .aggregate(Sum(value_col, alias_name="bsum"))
        .take_all()
    )
    # exclusive offsets: each group's bucket sums, added up in bucket order
    offsets: dict = {}
    run: dict = {}
    for r in sorted(sums, key=lambda r: r["bucket"]):
        g, b = (r[group_col] if group_col else None), int(r["bucket"])
        offsets[(g, b) if group_col else b] = run.get(g, 0)
        run[g] = run.get(g, 0) + int(r["bsum"])
    off_ref = ray.put(offsets)

    def add_cum(group: pa.Table) -> pa.Table:
        offs = ray.get(off_ref)  # local plasma lookup after the first get
        bucket = int(group["bucket"][0].as_py())
        key = (group[group_col][0].as_py(), bucket) if group_col else bucket
        off = offs.get(key, 0)
        if stop_after is not None and off >= stop_after:
            return group.slice(0, 0).append_column(
                "cum", pa.array([], pa.int64())
            )
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        h = group["h"].to_numpy(zero_copy_only=False)
        vals = group[value_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))
        cum = off + np.cumsum(vals[order])
        out = group.take(pa.array(order))
        return out.append_column("cum", pa.array(cum.astype(np.int64)))

    return base.groupby(keys).map_groups(add_cum, batch_format="pyarrow")


def token_budget_mix(
    sf_dir: str, budget: int = TOKEN_BUDGET
) -> "ray.data.Dataset":
    """Per-lang greedy selection in (hash, doc_id) order until the running
    token total reaches ``budget`` (the doc that crosses the line is kept:
    keep ⇔ cum_before < budget).  Output: (doc_id, lang, n_tokens,
    cum_tokens) with cum_tokens the inclusive per-lang running total."""
    cum = running_total(
        _token_base(sf_dir), "n_tokens", group_col="lang",
        stop_after=budget,
    )

    def finish(batch: pa.Table) -> pa.Table:
        c = batch["cum"].to_numpy(zero_copy_only=False)
        tok = batch["n_tokens"].to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array((c - tok) < budget))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "n_tokens": t["n_tokens"],
                "cum_tokens": t["cum"],
            }
        )

    return cum.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def pack_sequences(
    sf_dir: str, seq_len: int = SEQ_LEN
) -> "ray.data.Dataset":
    """Packed-pretraining layout: every doc's position in the fixed-length
    training-sequence stream, in deterministic (hash, doc_id) order —
    seq_id = which sequence the doc STARTS in, seq_offset = its token
    offset there (docs straddle boundaries; the trainer masks attention
    across doc joints).  Output: (doc_id, n_tokens, seq_id, seq_offset).

    Same bucketed prefix-sum as token_budget_mix, ungrouped (one global
    stream); sequences can be dealt to shards afterwards by
    seq_id % n without breaking determinism."""
    cum = running_total(_token_base(sf_dir), "n_tokens", group_col=None)

    def finish(batch: pa.Table) -> pa.Table:
        c = batch["cum"].to_numpy(zero_copy_only=False)
        tok = batch["n_tokens"].to_numpy(zero_copy_only=False)
        before = c - tok
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": batch["n_tokens"],
                "seq_id": pa.array(before // seq_len),
                "seq_offset": pa.array(before % seq_len),
            }
        )

    return cum.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)
