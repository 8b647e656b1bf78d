"""Corpus-analysis pipelines over the driver testdata ``documents`` table —
the Ray side of the driver's DuckDB correctness gate, plus the text-analysis
extras (language-ID, quality scoring, token counting, fingerprinting).

Every function takes ``sf_dir`` and returns a lazy ``ray.data.Dataset`` whose
column names/types match the corresponding ``oracle_sql()`` entry exactly.
All pipelines stream: read → map_batches (vectorized or per-doc-regex) →
(pre-aggregated) groupby; nothing materializes the corpus driver-side.
"""

from __future__ import annotations

import os
import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Sum

from ..functions.textstats import LANG_MARKERS, token_counts
from ..functions.hashing import rolling_fingerprint_batch
from ..functions.rounding import sql_round
from ..stages.keyed import BUCKETS, bucket_groups
from ..stages.tokenize import TokenizeExplode


def documents_as_corpus(sf_dir: str) -> "ray.data.Dataset":
    """documents.parquet → (doc_id, content) with column pruning at the read."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return ds.map_batches(
        lambda t: t.rename_columns(["doc_id", "content"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def postings_raw(sf_dir: str, mode: str = "reference") -> "ray.data.Dataset":
    """Exploded (term, doc_id, tf, doc_len) — SURVEY §2.2 M5 as a Dataset."""
    return documents_as_corpus(sf_dir).map_batches(
        TokenizeExplode(mode), batch_format="pyarrow", zero_copy_batch=True
    )


def term_stats(sf_dir: str, mode: str = "reference") -> "ray.data.Dataset":
    """Per-term df (distinct docs) + cf (total occurrences) — SURVEY §2.5 A2.

    The per-doc TF combine inside TokenizeExplode IS the map-side partial
    aggregate (each (term, doc) appears exactly once), so this groupby shuffles
    pre-combined rows, not raw tokens.
    """
    return (
        postings_raw(sf_dir, mode)
        .groupby("term")
        .aggregate(
            Count(alias_name="df"),
            Sum("tf", alias_name="cf"),
        )
    )


def doc_lengths(sf_dir: str, mode: str = "reference") -> "ray.data.Dataset":
    """Per-doc token count (SURVEY §2.5 A4) derived from the exploded stream
    without re-tokenizing: doc_len = Σ tf within doc."""
    return (
        postings_raw(sf_dir, mode)
        .groupby("doc_id")
        .aggregate(Sum("tf", alias_name="doc_len"))
    )


def corpus_stats(sf_dir: str, mode: str = "reference") -> "ray.data.Dataset":
    """Single-row corpus aggregates: N, total_tokens, n_terms, avgdl
    (SURVEY §2.5 A3/A4/A6), plus the folded corpus-level twins (VERDICT r4
    #6 — one driver row now gates three operators):
    - ``n_sources``: exact distinct source count (A5's corpus-level
      signal; the per-lang breakdown stays ``distinct_sources``, gated by
      the randomized conformance suite);
    - ``n_terms_hll``: the HyperLogLog estimate of n_terms (rounded to
      int) — value-exact against the true count at gate-scale vocabulary
      (linear-counting regime), ≤1.6 % RSE beyond it, so the driver gate
      pins the sketch end-to-end against the exact groupby twin."""
    n_docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).count()
    ts = term_stats(sf_dir, mode)
    agg = ts.aggregate(Sum("cf", alias_name="total_tokens"), Count(alias_name="n_terms"))
    # Ray returns None for an empty dataset's aggregate (corpus of empty/
    # whitespace-only docs) — that is a valid zero-token corpus, not a crash
    total_tokens = int(agg["total_tokens"]) if agg and agg.get("total_tokens") is not None else 0
    n_terms = int(agg["n_terms"]) if agg and agg.get("n_terms") is not None else 0
    n_sources = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["source"]
        )
        .groupby("source")
        .count()
        .count()
    )
    n_terms_hll = int(round(approx_distinct_tokens(sf_dir)))
    return ray.data.from_arrow(
        pa.table(
            {
                "n_docs": pa.array([n_docs], pa.int64()),
                "total_tokens": pa.array([total_tokens], pa.int64()),
                "n_terms": pa.array([n_terms], pa.int64()),
                "avgdl": pa.array(
                    [sql_round(total_tokens / n_docs, 6) if n_docs else 0.0],
                    pa.float64(),
                ),
                "n_sources": pa.array([n_sources], pa.int64()),
                "n_terms_hll": pa.array([n_terms_hll], pa.int64()),
            }
        )
    )


def top_terms(sf_dir: str, k: int = 20, mode: str = "reference") -> "ray.data.Dataset":
    """Top-k terms by df (deterministic tie-break: df desc, term asc) —
    SURVEY §2.6 K1-family global sort on a small aggregate."""
    return (
        term_stats(sf_dir, mode)
        .sort(["df", "term"], descending=[True, False])
        .limit(k)
    )


def distinct_sources(sf_dir: str) -> "ray.data.Dataset":
    """Distinct-source count per lang — the reference's distinct-domain
    statistic (SURVEY §2.5 A5, crawler.py:494-502) as a two-level groupby:
    dedup (lang, source) pairs first, then count per lang."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["lang", "source"]
    )
    pairs = ds.groupby(["lang", "source"]).aggregate(Count(alias_name="n_docs"))
    return (
        pairs.groupby("lang")
        .aggregate(
            Count(alias_name="n_sources"),
            Sum("n_docs", alias_name="n_docs"),
        )
    )


def doc_sha256(sf_dir: str) -> "ray.data.Dataset":
    """Per-doc content sha256 (M15 / input_hint invariant) as a standalone
    driver-checked projection."""
    from ..stages.dedup import add_sha256

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return ds.map_batches(add_sha256, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# text-analysis extras (training-data pipeline components)
# ---------------------------------------------------------------------------

def _lang_quality_batch(batch: pa.Table, texts=None) -> pa.Table:
    from ..functions.textstats import (
        lang_scores_from_tokens,
        predict_from_scores,
        quality_stats_from_tokens,
        word_tokens,
    )

    if texts is None:
        texts = batch["text"].to_pylist()
    langs, scores_cols = [], {f"hits_{l}": [] for l in LANG_MARKERS}
    q = {k: [] for k in ("n_chars", "n_tokens", "punct_ratio", "stopword_ratio",
                         "mean_token_len")}
    for t in texts:
        t = t or ""
        toks = word_tokens(t)  # ONE findall per doc, shared by all metrics
        s = lang_scores_from_tokens(toks)
        langs.append(predict_from_scores(s))
        for l in LANG_MARKERS:
            scores_cols[f"hits_{l}"].append(s[l])
        qs = quality_stats_from_tokens(t, toks)
        for k in q:
            q[k].append(qs[k])
    cols = {"doc_id": batch["doc_id"]}
    cols["pred_lang"] = pa.array(langs, pa.string())
    for l in LANG_MARKERS:
        cols[f"hits_{l}"] = pa.array(scores_cols[f"hits_{l}"], pa.int64())
    cols["n_chars"] = pa.array(np.asarray(q["n_chars"], dtype=np.int64))
    cols["n_tokens"] = pa.array(np.asarray(q["n_tokens"], dtype=np.int64))
    cols["punct_ratio"] = pa.array(sql_round(np.asarray(q["punct_ratio"]), 6))
    cols["stopword_ratio"] = pa.array(sql_round(np.asarray(q["stopword_ratio"]), 6))
    cols["mean_token_len"] = pa.array(sql_round(np.asarray(q["mean_token_len"]), 6))
    return pa.table(cols)


def lang_quality(sf_dir: str) -> "ray.data.Dataset":
    """Language-ID heuristic + quality metrics per doc (vectorized per batch;
    regexes compiled once at module import)."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return ds.map_batches(_lang_quality_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def _token_count_batch(batch: pa.Table, texts=None) -> pa.Table:
    if texts is None:
        texts = batch["text"].to_pylist()
    out = {"ws_tokens": [], "word_tokens": [], "bpe_ish_tokens": []}
    for t in texts:
        c = token_counts(t or "")
        for k in out:
            out[k].append(c[k])
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            **{k: pa.array(np.asarray(v, dtype=np.int64)) for k, v in out.items()},
        }
    )


def token_count_table(sf_dir: str) -> "ray.data.Dataset":
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return ds.map_batches(_token_count_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def fingerprints(sf_dir: str) -> "ray.data.Dataset":
    """Rolling-hash document fingerprint.  Oracle-checked: the Horner fold
    h=(h·B+byte) mod 2^61-1 is expressed in SQL as a HUGEINT ``list_reduce``
    over character codes (see __ray_entry__.oracle_sql()["fingerprints"])."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def fp(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": pa.array(
                    rolling_fingerprint_batch(
                        [t or "" for t in batch["text"].to_pylist()]
                    ),
                    pa.int64(),
                ),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)


def text_signals(sf_dir: str) -> "ray.data.Dataset":
    """CONSOLIDATED per-doc text-analysis gate (VERDICT r3 #3: one driver
    row covering three operators): language-ID + quality metrics
    (``lang_quality``), the three token-count variants (``token_counts``)
    and the rolling-hash fingerprint (``fingerprints``), computed in ONE
    text scan and joined column-wise — each constituent keeps its own
    library function and unit tests; this is the driver-gated fusion.
    Output: lang_quality's columns + (ws_tokens, word_tokens,
    bpe_ish_tokens, fingerprint)."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def fused(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()  # materialized ONCE per batch
        lq = _lang_quality_batch(batch, texts)
        tc = _token_count_batch(batch, texts)
        for c in ("ws_tokens", "word_tokens", "bpe_ish_tokens"):
            lq = lq.append_column(c, tc[c])
        return lq.append_column(
            "fingerprint",
            pa.array(
                rolling_fingerprint_batch([t or "" for t in texts]),
                pa.int64(),
            ),
        )

    return ds.map_batches(fused, batch_format="pyarrow", zero_copy_batch=True)


def approx_distinct_tokens(sf_dir: str, p: int = 12) -> float:
    """Approximate distinct-term count via the HyperLogLog sketch
    (stages/sketches.py) — the 100 TB cardinality primitive: one streaming
    pass, ~4 KB of driver state, no term shuffle (``term_stats`` computes
    the exact answer with a full groupby; at p=12 the sketch's RSE is
    ≈1.6 %, pinned by test vs the exact count).  Token hashes reuse the
    per-process md5 cache (stages/dedup._token_hashes) re-spread to
    uniform 64-bit by the splitmix64 finalizer."""
    from ..functions.tokenizer import tokenize_reference
    from ..stages.dedup import _token_hashes
    from ..stages.sketches import approx_distinct, mix64

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )

    def tok_hashes(batch: pa.Table) -> np.ndarray:
        flat: list = []
        for t in batch["text"].to_pylist():
            flat.extend(tokenize_reference(t or ""))
        return mix64(_token_hashes(flat))

    return approx_distinct(ds, col=None, p=p, explode=tok_hashes)


def sample_documents(sf_dir: str, rate_pct: int = 20) -> "ray.data.Dataset":
    """Deterministic hash-based Bernoulli sample — the scale-safe sampling
    primitive (no RNG state, no coordination; every worker computes the
    same keep decision from the key alone, resumable and join-stable).

    keep ⇔ ((doc_id mod 2³²) · 2654435761) mod 2³² < rate_pct% of 2³²
    (Knuth multiplicative hash on the low 32 id bits; SQL-mirrorable with
    HUGEINT arithmetic)."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "n_chars"],
    )
    threshold = np.uint64((rate_pct * (1 << 32)) // 100)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = ((ids % np.uint64(1 << 32)) * np.uint64(2654435761)) % np.uint64(
            1 << 32
        )
        return batch.filter(pa.array(h < threshold))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def length_quantiles(sf_dir: str) -> "ray.data.Dataset":
    """Per-lang EXACT p50/p90/p99 of n_chars via a distributed histogram:
    map-side partial (lang, value, count) rows → groupby sum → per-lang
    interpolation from the cumulative histogram.  Scale-safe because the
    exchange is one row per DISTINCT (lang, value) per block — never the
    raw values — and the final per-lang table is bounded by the value
    cardinality (n_chars is a small-int domain), not the corpus.
    Interpolation is the linear (numpy ``percentile`` / SQL
    ``quantile_cont``) rule, computed exactly from ranks."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["lang", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.select(["lang", "n_chars"])
            .drop_null()  # a null lang or length is in no histogram
            .group_by(["lang", "n_chars"])
            .aggregate([("n_chars", "count")])
        )
        return pa.table(
            {
                "lang": g["lang"].cast(pa.string()),
                "v": g["n_chars"].cast(pa.int64()),
                "pn": g["n_chars_count"].cast(pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "v"])
        .aggregate(Sum("pn", alias_name="n"))
    )

    QS = (0.5, 0.9, 0.99)

    def quantiles(group: pa.Table) -> pa.Table:
        vals = group["v"].to_numpy(zero_copy_only=False).astype(np.float64)
        counts = group["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(vals, kind="stable")
        vals, counts = vals[order], counts[order]
        cum = np.cumsum(counts)
        n = int(cum[-1])
        out = []
        for q in QS:
            pos = (n - 1) * q
            lo, hi = int(np.floor(pos)), int(np.ceil(pos))
            vlo = vals[np.searchsorted(cum, lo + 1)]
            vhi = vals[np.searchsorted(cum, hi + 1)]
            out.append(sql_round(vlo + (vhi - vlo) * (pos - lo), 6))
        return pa.table(
            {
                "lang": pa.array([group["lang"][0].as_py()], pa.string()),
                "p50": pa.array([out[0]], pa.float64()),
                "p90": pa.array([out[1]], pa.float64()),
                "p99": pa.array([out[2]], pa.float64()),
            }
        )

    return hist.groupby("lang").map_groups(quantiles, batch_format="pyarrow")


def bigram_counts(sf_dir: str, k: int = 30) -> "ray.data.Dataset":
    """Top-k corpus bigrams (reference tokenization, space-joined),
    deterministic tie-break (count desc, bigram asc).

    Map side emits PARTIAL per-batch counts (np.unique over the batch's
    bigrams) so the groupby exchanges one row per distinct bigram per batch
    instead of one per occurrence — the combiner pattern that keeps a
    corpus-scale n-gram count from shuffling the whole token stream."""
    from ..functions.tokenizer import tokenize_reference

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        grams: list = []
        for t in batch["text"].to_pylist():
            toks = tokenize_reference(t or "")
            grams.extend(
                f"{a} {b}" for a, b in zip(toks, toks[1:])
            )
        if not grams:
            return pa.table(
                {"bigram": pa.array([], pa.string()),
                 "pn": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(grams, dtype=object),
                                 return_counts=True)
        return pa.table(
            {
                "bigram": pa.array(uniq, pa.string()),
                "pn": pa.array(counts.astype(np.int64)),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bigram")
        .aggregate(Sum("pn", alias_name="n"))
    )

    def local_topk(t: pa.Table) -> pa.Table:
        """Per-block top-k candidate cut.  After the groupby each bigram
        lives in exactly ONE block, so the global top-k is contained in the
        union of per-block top-ks — the final sort then runs over
        O(blocks·k) candidate rows instead of the full distinct-bigram
        table (vocabulary²-sized at corpus scale; VERDICT r2 #3)."""
        t = t.set_column(t.column_names.index("n"), "n", t["n"].cast(pa.int64()))
        if t.num_rows <= k:
            return t
        n = t["n"].to_numpy(zero_copy_only=False)
        grams = np.asarray(t["bigram"].to_pylist(), dtype=object)
        order = np.lexsort((grams, -n))[:k]
        return t.take(pa.array(np.sort(order)))

    return (
        out.map_batches(local_topk, batch_format="pyarrow")
        .sort(["n", "bigram"], descending=[True, False])
        .limit(k)
    )


TFIDF_TOPK = 5


def tfidf_keywords(sf_dir: str, k: int = TFIDF_TOPK) -> "ray.data.Dataset":
    """Per-doc top-k keyword extraction by tf·idf with the reference's
    §1.4 scoring semantics: tf = count/doc_len, idf = ln(N/(df+1)),
    ranked (score desc, term asc), scores 6-decimal rounded BEFORE
    ranking so ties are deterministic on both engine and oracle sides.
    Output: (doc_id, rank, term, tfidf), rank 1..k.

    Scale shape — two shuffles of the distinct (term, doc) stream (the
    same cardinality the index build's postings exchange carries):
      1. one text pass emits (term, doc_id, c, dlen) per distinct
         per-doc term;
      2. term-hash-bucketed groupby attaches df vectorized per bucket
         (df = segment length, since rows are already distinct per doc)
         and computes the score — no driver-side df dict, no broadcast
         of a corpus-sized vocabulary;
      3. doc-bucketed groupby takes the per-doc top-k vectorized.
    N (corpus size) is the one scalar broadcast.  Term-hash collisions
    (2⁻⁶¹) merge df counts of two terms — the same accepted mass as
    every other hash-keyed pipeline here.

    Oracle: ``__ray_entry__.oracle_sql()["tfidf_keywords"]`` (window
    row_number over the same rounded score).
    """
    from ..functions.tokenizer import tokenize_reference
    from ..stages.dedup import _token_hashes

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    n_docs = docs.count()

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        terms_out, th_out, doc_out, c_out, dl_out = [], [], [], [], []
        for did, t in zip(ids, batch["text"].to_pylist()):
            toks = tokenize_reference(t or "")
            if not toks:
                continue
            uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            terms_out.append(uniq)
            c_out.append(counts.astype(np.int64))
            doc_out.append(np.full(len(uniq), did, dtype=np.int64))
            dl_out.append(np.full(len(uniq), len(toks), dtype=np.int64))
            th_out.append(_token_hashes(uniq.tolist()).astype(np.int64))
        if not terms_out:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "th": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                    "dlen": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "term": pa.array(
                    np.concatenate(terms_out).tolist(), pa.string()
                ),
                "th": pa.array(np.concatenate(th_out)),
                "doc_id": pa.array(np.concatenate(doc_out)),
                "c": pa.array(np.concatenate(c_out)),
                "dlen": pa.array(np.concatenate(dl_out)),
            }
        )

    def score(group: pa.Table) -> pa.Table:
        th = group["th"].to_numpy(zero_copy_only=False)
        order = np.argsort(th, kind="stable")
        th = th[order]
        c = group["c"].to_numpy(zero_copy_only=False)[order]
        dl = group["dlen"].to_numpy(zero_copy_only=False)[order]
        ids = group["doc_id"].to_numpy(zero_copy_only=False)[order]
        terms = group["term"].to_numpy(zero_copy_only=False)[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(th[1:] != th[:-1]) + 1)
        )
        seg_len = np.diff(np.append(starts, len(th)))
        df = np.repeat(seg_len, seg_len)  # rows are distinct (term, doc)
        idf = np.log(n_docs / (df.astype(np.float64) + 1.0))
        tfidf = sql_round((c / dl.astype(np.float64)) * idf, 6)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "term": pa.array(terms.tolist(), pa.string()),
                "tfidf": pa.array(tfidf, pa.float64()),
            }
        )

    def topk(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        terms = np.asarray(group["term"].to_pylist(), dtype=object)
        sc = group["tfidf"].to_numpy(zero_copy_only=False)
        order = np.lexsort((terms, -sc, ids))
        ids, terms, sc = ids[order], terms[order], sc[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1)
        )
        rank = (np.arange(len(ids)) - np.repeat(starts, np.diff(np.append(starts, len(ids))))) + 1
        keep = rank <= k
        return pa.table(
            {
                "doc_id": pa.array(ids[keep]),
                "rank": pa.array(rank[keep].astype(np.int64)),
                "term": pa.array(terms[keep].tolist(), pa.string()),
                "tfidf": pa.array(sc[keep], pa.float64()),
            }
        )

    scored = bucket_groups(
        docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        "th",
        BUCKETS,
        score,
    )
    return bucket_groups(scored, "doc_id", BUCKETS, topk)


def approx_top_terms(sf_dir: str, k: int = 20) -> "pa.Table":
    """Approximate top-``k`` terms by OCCURRENCE count via the count-min +
    candidate heavy-hitters sketch (stages/sketches.py) — no term shuffle,
    O(d·w·8 B) driver state; the exact twin is ``term_stats`` ordered by
    cf.  Count-min estimates are one-sided (never under the true count;
    over by ≤ eps·N w.h.p.) — overlap vs the exact top-k pinned by test."""
    from ..functions.tokenizer import tokenize_reference
    from ..stages.sketches import heavy_hitters

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )

    def toks(batch: pa.Table) -> list:
        flat: list = []
        for t in batch["text"].to_pylist():
            flat.extend(tokenize_reference(t or ""))
        return flat

    top = heavy_hitters(ds, toks, k=k)
    return pa.table(
        {
            "term": pa.array([t for t, _ in top], pa.string()),
            "est_count": pa.array([c for _, c in top], pa.int64()),
        }
    )
