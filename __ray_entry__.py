"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline (index build + actor-pool batch search)
on sf0.001.  ``queries()`` exposes one callable per implemented operator /
pipeline (SURVEY.md §2 + training-data extras); ``oracle_sql()`` gives the
DuckDB-equivalent SQL over the same parquet views.  Column names and dtypes
match between the two sides; float columns are rounded to 6 decimals on BOTH
sides and rankings order by the ROUNDED score (then doc_id) so fp summation
order cannot flip ranks.

Ray is initialised by the driver before import; nothing here calls
ray.init()/ray.shutdown().
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections.abc import Callable
from typing import Any, Dict, List, Tuple

import numpy as np
import pyarrow as pa

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.functions.rounding import sql_round
from uci_searchengine_ray.functions.tokenizer import STOPWORDS, tokenize_code, tokenize_reference
from uci_searchengine_ray.pipelines import (
    analysis,
    cleaning,
    curation,
    dedup_sim,
    export,
    relational,
    sampling,
)
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.pipelines.search import (
    PostingsIndex,
    QueryScorer,
    score_bm25_taat,
    score_reference,
    search_batch,
)
from uci_searchengine_ray.sources.corpus import adapt_documents_batch

# ---------------------------------------------------------------------------
# fixed query set over the testdata vocabulary (FIXTURES.md §4 categories:
# single term, multi-term OR, duplicated term, absent term, hot df≈N term)
# ---------------------------------------------------------------------------
QUERYSET: List[Tuple[int, str]] = [
    (0, "spark join"),
    (1, "the the"),                       # duplicate term counts twice
    (2, "window merge table"),
    (3, "hash"),
    (4, "stream vector zzznonexistent"),  # one absent term
    (5, "agg sort key value"),
    (6, "customer order line"),
    (7, "dup filter big"),
]
TOP_N = 10

_DOC_COLUMNS = ["doc_id", "text", "lang", "source"]
_INDEX_CACHE: Dict[Tuple[str, str], str] = {}

# fixed phrase set (positional index; FIXTURES-style coverage: plain phrase,
# 3-term phrase, duplicated-token phrase, phrase with an absent term)
PHRASESET: List[Tuple[int, str]] = [
    (0, "spark join"),
    (1, "window merge table"),
    (2, "the the"),
    (3, "key value"),
    (4, "zzznonexistent join"),
]


def _index_for(sf_dir: str, mode: str) -> str:
    """Build (once per process) an index snapshot for sf_dir in ``mode``
    ("reference", "code", or "reference_pos" = reference + positions)."""
    key = (os.path.abspath(sf_dir), mode)
    if key not in _INDEX_CACHE:
        tag = hashlib.md5(repr(key).encode(), usedforsecurity=False).hexdigest()[:10]
        out = os.path.join(tempfile.gettempdir(), "uciray_indexes", tag)
        if mode == "reference_pos":
            cfg = EngineConfig(mode="reference", store_positions=True)
        else:
            cfg = EngineConfig(mode=mode)
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            cfg,
            mode="fresh",
            adapt_batches=adapt_documents_batch,
            read_columns=_DOC_COLUMNS,
        )
        _INDEX_CACHE[key] = out
    return _INDEX_CACHE[key]


def _ranked_table(index_dir: str, scorer: str) -> pa.Table:
    """Full-ranked search for QUERYSET → (query_id, rank, doc_id, score).

    Orders by (round(score, 6) desc, doc_id asc) — the same deterministic key
    the oracle SQL uses — then keeps TOP_N per query.
    """
    idx = PostingsIndex(index_dir)
    cols = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, query in QUERYSET:
        if scorer == "reference":
            ids, scores = score_reference(idx, query)
        else:
            ids, scores = score_bm25_taat(idx, query, top_k=None)
        r6 = sql_round(scores, 6)
        order = np.lexsort((ids, -r6))[:TOP_N]
        for rank, j in enumerate(order, 1):
            cols["query_id"].append(qid)
            cols["rank"].append(rank)
            cols["doc_id"].append(int(ids[j]))
            cols["score"].append(float(r6[j]))
    return pa.table(
        {
            "query_id": pa.array(cols["query_id"], pa.int64()),
            "rank": pa.array(cols["rank"], pa.int64()),
            "doc_id": pa.array(cols["doc_id"], pa.int64()),
            "score": pa.array(cols["score"], pa.float64()),
        }
    )


def _envelope_table(index_dir: str) -> pa.Table:
    """Result-envelope totals per query (reference search.py:119-126:
    total_results / total_pages at per_page=10), as the served envelope
    (``QueryScorer.search``) reports them."""
    scorer = QueryScorer(index_dir, with_snippets=False)
    cols = {"query_id": [], "total_results": [], "total_pages": []}
    for qid, query in QUERYSET:
        env = scorer.search(query, 1, TOP_N)
        cols["query_id"].append(qid)
        cols["total_results"].append(env["total_results"])
        cols["total_pages"].append(env["total_pages"])
    return pa.table(
        {
            "query_id": pa.array(cols["query_id"], pa.int64()),
            "total_results": pa.array(cols["total_results"], pa.int64()),
            "total_pages": pa.array(cols["total_pages"], pa.int64()),
        }
    )


def _phrase_table(index_dir: str) -> pa.Table:
    """Positional phrase matches: (phrase_id, doc_id, n_occurrences)."""
    from uci_searchengine_ray.pipelines.search import score_phrase

    idx = PostingsIndex(index_dir)
    cols = {"phrase_id": [], "doc_id": [], "n_occurrences": []}
    for pid, phrase in PHRASESET:
        ids, ns = score_phrase(idx, phrase)
        cols["phrase_id"].extend([pid] * len(ids))
        cols["doc_id"].extend(ids.tolist())
        cols["n_occurrences"].extend(ns.tolist())
    return pa.table(
        {
            "phrase_id": pa.array(cols["phrase_id"], pa.int64()),
            "doc_id": pa.array(cols["doc_id"], pa.int64()),
            "n_occurrences": pa.array(cols["n_occurrences"], pa.int64()),
        }
    )


def _as_int64(ds, columns):
    """Cast chosen columns to int64 so Ray/DuckDB dtypes agree."""

    def cast(t: pa.Table) -> pa.Table:
        for c in columns:
            if c in t.column_names:
                i = t.column_names.index(c)
                t = t.set_column(i, c, t.column(c).cast(pa.int64()))
        return t

    return ds.map_batches(cast, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# driver hooks
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship on sf0.001: build reference-mode index, run the whole query
    set through the QueryScorer actor pool, return the ranked results."""
    from uci_searchengine_ray.config import configure_data_context

    configure_data_context()
    sf_dir = "/root/testdata/sf0.001"
    index_dir = _index_for(sf_dir, "reference")
    queries = [
        {"query_id": qid, "query": q, "page": 1, "per_page": TOP_N}
        for qid, q in QUERYSET
    ]
    return search_batch(index_dir, queries, mode="reference", concurrency=2)


def queries() -> dict[str, Callable[[str], Any]]:
    from uci_searchengine_ray.config import configure_data_context

    configure_data_context()
    q: dict[str, Callable[[str], Any]] = {}

    # --- core index/search engine (SURVEY §2.2 M3-M6, §2.5 A1-A4/A6, §3.2) ---
    q["tokenize_explode"] = lambda sf: _as_int64(
        analysis.postings_raw(sf), ["tf", "doc_len"]
    )
    q["term_stats"] = lambda sf: analysis.term_stats(sf)
    # doc_lengths (A4) has no separate gate: its (doc_id, doc_len) rows are
    # exactly tokenize_explode's doc_len column, value-checked per posting
    # row above (consolidation per VERDICT r3 #3; analysis.doc_lengths
    # remains in the library and under test).
    q["corpus_stats"] = lambda sf: analysis.corpus_stats(sf)
    q["top_terms"] = lambda sf: analysis.top_terms(sf, k=20)
    q["search_reference"] = lambda sf: _ranked_table(
        _index_for(sf, "reference"), "reference"
    )
    q["search_bm25"] = lambda sf: _ranked_table(_index_for(sf, "code"), "bm25")
    q["search_envelope"] = lambda sf: _envelope_table(_index_for(sf, "reference"))
    q["search_phrase"] = lambda sf: _phrase_table(_index_for(sf, "reference_pos"))
    q["doc_sha256"] = lambda sf: analysis.doc_sha256(sf)
    # distinct_sources' corpus-level signal is folded into corpus_stats
    # (n_sources column); the per-lang breakdown remains a tested library
    # function (tests/test_random_relational_conformance.py).  Its slot
    # gates the count-min heavy-hitters sketch end-to-end instead: CMS
    # estimates are one-sided and collision-free at gate-scale vocabulary,
    # so the driver row is value-exact vs the exact-cf ordering.
    q["approx_top_terms"] = lambda sf: analysis.approx_top_terms(sf, k=10)
    q["events_sessions"] = lambda sf: relational.events_sessions(sf)

    # --- text-analysis extras (one fused gate: lang_quality + token_counts
    # + fingerprints columns joined from a single text scan, so each
    # operator's full output gets a driver row within the 50-query budget;
    # the three library functions remain individually tested) ---
    q["text_signals"] = lambda sf: analysis.text_signals(sf)

    # --- dedup family ---
    q["dedup_exact"] = dedup_sim.exact_dedup
    q["dedup_ngram_jaccard"] = dedup_sim.ngram_jaccard_pairs
    q["dedup_minhash_lsh"] = dedup_sim.minhash_lsh_pairs      # value-gated (band CTE oracle)
    q["dedup_simhash"] = dedup_sim.simhash_pairs              # value-gated (bit-fold oracle)
    q["dedup_embedding"] = dedup_sim.embedding_dup_pairs
    # value-gated (rounded-bucket IVF unrolls into SQL; recall vs exact
    # pinned by tests); reads the same persisted IVF snapshot as ann_ivf
    q["dedup_embedding_ivf"] = dedup_sim.embedding_dup_pairs_ivf
    q["dedup_components"] = dedup_sim.dedup_components
    q["near_dedup_keep"] = dedup_sim.near_dedup_keep

    # --- similarity search ---
    q["ann_bruteforce"] = dedup_sim.ann_bruteforce
    # value-gated (VERDICT r4 #2): the persisted IVF index is the only IVF
    # path, and the rounded-bucket discipline (similarity._bucket_ranks)
    # makes the whole index SQL-expressible
    q["ann_ivf"] = dedup_sim.ann_ivf

    # --- multimodal plumbing (deterministic fake decode, real Ray plumbing) ---
    q["multimodal_image"] = dedup_sim.multimodal_image

    # --- generic relational operators (broadcast join / groupby / window / topk) ---
    q["pricing_summary"] = relational.pricing_summary
    q["segment_revenue"] = relational.segment_revenue
    q["events_hourly"] = relational.events_hourly
    q["top_customers"] = relational.top_customers

    # --- custom operators Ray Data lacks (SURVEY §2.4/§2.9 compositions) ---
    q["asof_join"] = relational.purchase_attribution
    q["range_join"] = relational.clicks_before_purchase
    q["events_sliding"] = relational.events_sliding
    q["topk_per_group"] = relational.top_orders_per_segment
    q["json_extract"] = relational.events_props_stats

    # --- end-to-end training-data curation (filter → exact dedup) ---
    q["curate"] = curation.curate

    # --- sampling + n-gram statistics ---
    q["sample_hash"] = analysis.sample_documents
    q["bigram_counts"] = analysis.bigram_counts
    q["tfidf_keywords"] = analysis.tfidf_keywords

    # --- corpus text cleaning (CCNet/Gopher-style curation passes;
    # quality_scrub fuses repetition_stats + pii_redact into one gated
    # scan — both remain individual library functions under test) ---
    q["boilerplate_lines"] = cleaning.boilerplate_lines
    q["quality_scrub"] = cleaning.quality_scrub
    q["dup_spans"] = cleaning.dup_spans
    q["strip_dup_spans"] = cleaning.strip_dup_spans

    # --- clustering / semantic dedup (SemDeDup) ---
    q["kmeans_clusters"] = dedup_sim.kmeans_clusters
    q["semantic_dedup"] = dedup_sim.semantic_dedup

    # --- int8 quantization + quantized ANN (the bandwidth tier) ---
    q["embedding_quantize"] = dedup_sim.embedding_quantize
    q["ann_int8"] = dedup_sim.ann_int8

    # --- benchmark decontamination + exact distributed quantiles ---
    q["decontaminate"] = cleaning.decontaminate
    q["length_quantiles"] = analysis.length_quantiles

    # --- pretraining export: curate − eval split − contaminated → shards ---
    q["export_shards"] = export.export_shards_summary

    # --- deterministic mixture sampling + sequence packing ---
    q["stratified_sample"] = sampling.stratified_sample
    q["token_budget_mix"] = sampling.token_budget_mix
    q["pack_sequences"] = sampling.pack_sequences

    return q


# ---------------------------------------------------------------------------
# oracle SQL (DuckDB; views: documents, embeddings, lineitem, ...)
# ---------------------------------------------------------------------------

# testdata text is ASCII, so Python's unicode \w ≡ [a-z0-9_] after lower()
_TOK = "SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9_]+')) AS term FROM documents"
_STOP_LIST = ", ".join(f"'{w}'" for w in sorted(STOPWORDS))

_BASE_REF = f"""
WITH tok AS (SELECT doc_id, term FROM ({_TOK}) WHERE term <> ''),
tf AS (SELECT doc_id, term, count(*) AS cnt FROM tok GROUP BY doc_id, term),
dl AS (SELECT doc_id, count(*) AS doc_len FROM tok GROUP BY doc_id),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
"""

_BASE_CODE = f"""
WITH tok AS (SELECT doc_id, term FROM ({_TOK}) WHERE term <> '' AND term NOT IN ({_STOP_LIST})),
tf AS (SELECT doc_id, term, count(*) AS cnt FROM tok GROUP BY doc_id, term),
dl AS (SELECT doc_id, count(*) AS doc_len FROM tok GROUP BY doc_id),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
"""


def _qt_values(mode: str) -> str:
    """VALUES rows (query_id, term) — reference keeps duplicates in token
    order; code mode dedupes and drops stopwords (engine query semantics)."""
    rows = []
    for qid, query in QUERYSET:
        toks = (
            tokenize_reference(query)
            if mode == "reference"
            else sorted(set(tokenize_code(query)))
        )
        rows += [f"({qid}, '{t}')" for t in toks]
    return ", ".join(rows)


def _cos_sql(a: str, b: str) -> str:
    """Zero-norm-guarded cosine: the engine (similarity._normalize,
    clustering._cosine) treats a zero-norm vector as norm 1 → cosine 0.0
    exactly, while DuckDB's list_cosine_similarity yields -1.0 there; the
    CASE mirrors the engine so a zero embedding cannot break gate parity."""
    return (
        f"CASE WHEN list_inner_product({a}, {a}) = 0 "
        f"OR list_inner_product({b}, {b}) = 0 THEN 0.0 "
        f"ELSE list_cosine_similarity({a}, {b}) END"
    )


def _kmeans_cte(k: int, iters: int) -> str:
    """Unrolled Lloyd's k-means as a DuckDB CTE chain (mirror of
    stages/clustering.kmeans_fit): c0 = the k lowest-vec_id embeddings
    (6-dp rounded); each iteration assigns by rounded cosine (ties →
    lowest cluster; zero-norm guard per ``_cos_sql``) and recomputes
    6-dp-rounded element-wise means, empty clusters keeping their
    previous centroid."""
    parts = [
        f"""ve AS (SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
             unnest(embedding::DOUBLE[]) AS val FROM embeddings),
c0 AS (SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS cluster,
              [ROUND(x, 6) FOR x IN embedding::DOUBLE[]] AS ce
       FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT {k}))"""
    ]
    for i in range(1, iters + 1):
        parts.append(
            f"""a{i} AS (
  SELECT vec_id, cluster FROM (
    SELECT e.vec_id, c.cluster,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY ROUND({_cos_sql("e.embedding::DOUBLE[]", "c.ce")}, 6) DESC,
                      c.cluster ASC) AS rn
    FROM embeddings e CROSS JOIN c{i - 1} c
  ) WHERE rn = 1
),
c{i} AS (
  SELECT p.cluster, coalesce(n.ce, p.ce) AS ce
  FROM c{i - 1} p LEFT JOIN (
    SELECT cluster, list(v ORDER BY dim) AS ce FROM (
      SELECT a.cluster, ve.dim, ROUND(avg(ve.val), 6) AS v
      FROM a{i} a JOIN ve ON ve.vec_id = a.vec_id
      GROUP BY a.cluster, ve.dim
    ) GROUP BY cluster
  ) n ON n.cluster = p.cluster
)"""
        )
    return "WITH " + ",\n".join(parts)


# IVF oracle parameters — the dedup_sim wrappers run the library defaults
# (similarity.IVF_SAMPLE / IVF_REFINE_ITERS and the defaults of
# build_ivf_index / ann_ivf_topk; the index's store_probe is the dedup probe)
_IVF_CENTROIDS = 16
_IVF_ITERS = 2
_IVF_SAMPLE = 4096
_IVF_ANN_PROBE = 4
_IVF_DEDUP_PROBE = 2


def _norm_list_sql(expr: str) -> str:
    """[ROUND(x/‖expr‖, 6) FOR x IN expr] with the zero-norm guard of
    ``similarity._normalize`` (zero vector stays zero)."""
    ip = f"list_inner_product({expr}, {expr})"
    return (
        f"[ROUND(x / (CASE WHEN {ip} = 0 THEN 1.0 ELSE sqrt({ip}) END), 6) "
        f"FOR x IN {expr}]"
    )


def _ivf_cte() -> str:
    """Unrolled IVF training + full-corpus bucket ranking as a DuckDB CTE
    chain (mirror of stages/similarity.train_ivf_centroids +
    ``_bucket_ranks``): env = 6-dp-rounded normalized vectors; samp = the
    ``_IVF_SAMPLE`` lowest vec_ids; seeds = every ``stride``-th sample row;
    each refinement assigns by rounded inner product (ties → lowest cid) and
    recomputes round6(renormalize(round6(mean))); vass ranks EVERY vector's
    centroids the same way (rnk 1 = the stored IVF bucket, rnk ≤ p = the
    multi-probe assignment)."""
    parts = [
        f"""env AS (
  SELECT vec_id, embedding::DOUBLE[] AS e,
         {_norm_list_sql("embedding::DOUBLE[]")} AS ne
  FROM embeddings
),
samp AS (
  SELECT vec_id, ne, row_number() OVER (ORDER BY vec_id) AS rn
  FROM env ORDER BY vec_id LIMIT {_IVF_SAMPLE}
),
sdim AS (SELECT vec_id, generate_subscripts(ne, 1) AS dim, unnest(ne) AS val
         FROM samp),
ivfc0 AS (
  SELECT CAST(row_number() OVER (ORDER BY rn) - 1 AS BIGINT) AS cid, ne AS ce
  FROM samp
  WHERE (rn - 1) % (SELECT GREATEST(1, count(*) // {_IVF_CENTROIDS}) FROM samp) = 0
  ORDER BY rn LIMIT {_IVF_CENTROIDS}
)"""
    ]
    for i in range(1, _IVF_ITERS + 1):
        parts.append(
            f"""ia{i} AS (
  SELECT vec_id, cid FROM (
    SELECT s.vec_id, c.cid,
           row_number() OVER (PARTITION BY s.vec_id
             ORDER BY ROUND(list_inner_product(s.ne, c.ce), 6) DESC,
                      c.cid ASC) AS rnk
    FROM samp s CROSS JOIN ivfc{i - 1} c
  ) WHERE rnk = 1
),
im{i} AS (
  SELECT cid, list(v ORDER BY dim) AS mv FROM (
    SELECT a.cid, sdim.dim, ROUND(avg(sdim.val), 6) AS v
    FROM ia{i} a JOIN sdim ON sdim.vec_id = a.vec_id
    GROUP BY a.cid, sdim.dim
  ) GROUP BY cid
),
ivfc{i} AS (
  SELECT cid, {_norm_list_sql("m")} AS ce
  FROM (SELECT p.cid, coalesce(n.mv, p.ce) AS m
        FROM ivfc{i - 1} p LEFT JOIN im{i} n ON n.cid = p.cid)
)"""
        )
    parts.append(
        f"""vass AS (
  SELECT e.vec_id, c.cid,
         row_number() OVER (PARTITION BY e.vec_id
           ORDER BY ROUND(list_inner_product(e.ne, c.ce), 6) DESC,
                    c.cid ASC) AS rnk
  FROM env e CROSS JOIN ivfc{_IVF_ITERS} c
)"""
    )
    return "WITH " + ",\n".join(parts)


def oracle_sql() -> dict[str, str]:
    sql: dict[str, str] = {}

    sql["tokenize_explode"] = (
        _BASE_REF
        + """
SELECT tf.term AS term, tf.doc_id AS doc_id, CAST(tf.cnt AS BIGINT) AS tf,
       CAST(dl.doc_len AS BIGINT) AS doc_len
FROM tf JOIN dl ON tf.doc_id = dl.doc_id
"""
    )

    sql["term_stats"] = (
        _BASE_REF
        + """
SELECT tf.term AS term, CAST(count(*) AS BIGINT) AS df,
       CAST(sum(tf.cnt) AS BIGINT) AS cf
FROM tf GROUP BY tf.term
"""
    )

    sql["doc_lengths"] = (
        _BASE_REF
        + "SELECT doc_id, CAST(doc_len AS BIGINT) AS doc_len FROM dl"
    )

    sql["corpus_stats"] = (
        _BASE_REF
        + """
SELECT CAST((SELECT count(*) FROM documents) AS BIGINT) AS n_docs,
       CAST((SELECT sum(cnt) FROM tf) AS BIGINT) AS total_tokens,
       CAST((SELECT count(*) FROM df) AS BIGINT) AS n_terms,
       ROUND(CAST((SELECT sum(cnt) FROM tf) AS DOUBLE)
             / (SELECT count(*) FROM documents), 6) AS avgdl,
       CAST((SELECT count(DISTINCT source) FROM documents) AS BIGINT) AS n_sources,
       -- the HLL estimate is value-exact at gate-scale vocabulary (linear-
       -- counting regime rounds to the true count); the oracle pins it to
       -- the exact distinct count
       CAST((SELECT count(*) FROM df) AS BIGINT) AS n_terms_hll
"""
    )

    sql["top_terms"] = (
        _BASE_REF
        + """
SELECT tf.term AS term, CAST(count(*) AS BIGINT) AS df,
       CAST(sum(tf.cnt) AS BIGINT) AS cf
FROM tf GROUP BY tf.term
ORDER BY df DESC, term ASC LIMIT 20
"""
    )

    # reference tf·idf: score = Σ_tokens (cnt/doc_len) · ln(N/(df+1)),
    # duplicates contribute per occurrence (search.py:89), score>0 filter
    sql["search_reference"] = (
        _BASE_REF
        + f""",
n AS (SELECT count(*) AS n_docs FROM documents),
qt(query_id, term) AS (VALUES {_qt_values('reference')}),
scores AS (
  SELECT qt.query_id, tf.doc_id,
         SUM((tf.cnt * 1.0 / dl.doc_len) * ln(n.n_docs * 1.0 / (df.df + 1))) AS s
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id
  JOIN df ON df.term = qt.term
  CROSS JOIN n
  GROUP BY qt.query_id, tf.doc_id
  HAVING SUM((tf.cnt * 1.0 / dl.doc_len) * ln(n.n_docs * 1.0 / (df.df + 1))) > 0
)
SELECT query_id, CAST(row_number() OVER w AS BIGINT) AS rank, doc_id,
       ROUND(s, 6) AS score
FROM scores
WINDOW w AS (PARTITION BY query_id ORDER BY ROUND(s, 6) DESC, doc_id ASC)
QUALIFY rank <= {TOP_N}
"""
    )

    # BM25 k1=1.2 b=0.75 over code-mode tokens (stopwords removed), unique
    # query terms; idf = ln(1 + (N-df+0.5)/(df+0.5)); avgdl over ALL docs
    sql["search_bm25"] = (
        _BASE_CODE
        + f""",
n AS (SELECT count(*) AS n_docs FROM documents),
stats AS (SELECT CAST((SELECT sum(cnt) FROM tf) AS DOUBLE)
                 / (SELECT n_docs FROM n) AS avgdl),
qt(query_id, term) AS (VALUES {_qt_values('code')}),
scores AS (
  SELECT qt.query_id, tf.doc_id,
         SUM( ln(1.0 + (n.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.cnt * (1.2 + 1.0)
              / (tf.cnt + 1.2 * (1.0 - 0.75 + 0.75 * dl.doc_len / stats.avgdl)) ) AS s
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id
  JOIN df ON df.term = qt.term
  CROSS JOIN n CROSS JOIN stats
  GROUP BY qt.query_id, tf.doc_id
)
SELECT query_id, CAST(row_number() OVER w AS BIGINT) AS rank, doc_id,
       ROUND(s, 6) AS score
FROM scores
WINDOW w AS (PARTITION BY query_id ORDER BY ROUND(s, 6) DESC, doc_id ASC)
QUALIFY rank <= {TOP_N}
"""
    )

    # language-ID + quality metrics; formulas mirror functions/textstats.py
    from uci_searchengine_ray.functions.textstats import LANG_MARKERS

    hit_cols = ",\n  ".join(
        f"CAST(sum(CASE WHEN term IN ({', '.join(repr(m) for m in LANG_MARKERS[l])}) THEN 1 ELSE 0 END) AS BIGINT) AS hits_{l}"
        for l in sorted(LANG_MARKERS)
    )
    pred_cases = " ".join(
        f"WHEN hits_{l} = g THEN '{l}'" for l in sorted(LANG_MARKERS)
    )
    sql["lang_quality"] = f"""
WITH tok AS (SELECT doc_id, term FROM ({_TOK}) WHERE term <> ''),
per_doc AS (
  SELECT doc_id,
  {hit_cols},
  CAST(count(*) AS BIGINT) AS n_tokens,
  CAST(sum(CASE WHEN term IN ({_STOP_LIST}) THEN 1 ELSE 0 END) AS BIGINT) AS n_stop,
  CAST(sum(length(term)) AS BIGINT) AS tok_chars
  FROM tok GROUP BY doc_id
),
base AS (
  SELECT d.doc_id,
         CAST(length(d.text) AS BIGINT) AS n_chars,
         CAST(length(regexp_replace(d.text, '[A-Za-z0-9_\\s]', '', 'g')) AS BIGINT) AS n_punct,
         COALESCE(p.hits_de, 0) AS hits_de, COALESCE(p.hits_en, 0) AS hits_en,
         COALESCE(p.hits_es, 0) AS hits_es, COALESCE(p.hits_fr, 0) AS hits_fr,
         COALESCE(p.n_tokens, 0) AS n_tokens, COALESCE(p.n_stop, 0) AS n_stop,
         COALESCE(p.tok_chars, 0) AS tok_chars
  FROM documents d LEFT JOIN per_doc p ON d.doc_id = p.doc_id
),
g AS (
  SELECT *, greatest(hits_de, hits_en, hits_es, hits_fr) AS g FROM base
)
SELECT doc_id,
  CASE WHEN g = 0 THEN 'und' {pred_cases} END AS pred_lang,
  hits_de, hits_en, hits_es, hits_fr,
  n_chars, n_tokens,
  ROUND(CASE WHEN n_chars > 0 THEN n_punct * 1.0 / n_chars ELSE 0.0 END, 6) AS punct_ratio,
  ROUND(CASE WHEN n_tokens > 0 THEN n_stop * 1.0 / n_tokens ELSE 0.0 END, 6) AS stopword_ratio,
  ROUND(CASE WHEN n_tokens > 0 THEN tok_chars * 1.0 / n_tokens ELSE 0.0 END, 6) AS mean_token_len
FROM g
"""

    # curation = lang-match + quality filter + exact dedup over the same
    # lang_quality metrics (thresholds are the operator contract; the
    # stopword ratio compares after round-6 exactly as in lq)
    sql["curate"] = f"""
WITH lq AS ({sql['lang_quality']}),
j AS (SELECT d.doc_id, d.lang, d.text, lq.pred_lang, lq.n_tokens, lq.n_chars,
             lq.stopword_ratio
      FROM documents d JOIN lq ON lq.doc_id = d.doc_id),
f AS (SELECT * FROM j
      WHERE n_tokens >= 30 AND stopword_ratio <= 0.15 AND pred_lang = lang),
k AS (SELECT *, min(doc_id) OVER (PARTITION BY sha256(text)) AS keep_id FROM f)
SELECT doc_id, lang, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(n_chars AS BIGINT) AS n_chars
FROM k WHERE doc_id = keep_id
"""

    # deterministic hash-Bernoulli sample: Knuth multiplicative hash of the
    # low 32 id bits, keep < 20% of 2^32 (HUGEINT-safe arithmetic)
    sql["sample_hash"] = """
SELECT doc_id, lang, n_chars
FROM documents
WHERE ((CAST(doc_id AS HUGEINT) % 4294967296) * 2654435761) % 4294967296
      < CAST(0.20 * 4294967296 AS HUGEINT)
"""

    # top-30 corpus bigrams (reference tokens, space-joined), tie-break
    # (count desc, bigram asc) — adjacency self-join like search_phrase
    sql["bigram_counts"] = f"""
WITH raw AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '[^a-z0-9_]+') AS arr
  FROM documents
),
tok0 AS (
  SELECT doc_id, unnest(range(1, len(arr) + 1)) AS i, unnest(arr) AS term
  FROM raw
),
tok AS (
  SELECT doc_id, row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn, term
  FROM tok0 WHERE term <> ''
)
SELECT a.term || ' ' || b.term AS bigram,
       CAST(count(*) AS BIGINT) AS n
FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.rn = a.rn + 1
GROUP BY 1
ORDER BY n DESC, bigram ASC
LIMIT 30
"""

    sql["token_counts"] = """
SELECT doc_id,
  CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS ws_tokens,
  CAST(length(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS BIGINT) AS word_tokens,
  CAST(length(regexp_extract_all(lower(text), '[a-z]+|[0-9]|[^a-z0-9\\s]')) AS BIGINT) AS bpe_ish_tokens
FROM documents
"""

    sql["dedup_exact"] = """
SELECT sha256(text) AS content_sha256,
       CAST(min(doc_id) AS BIGINT) AS keep_id,
       CAST(count(*) AS BIGINT) AS n_dups
FROM documents GROUP BY sha256(text)
"""

    # word-3-shingle exact Jaccard pairs ≥ tau; intersection counted only over
    # shingles with 2 ≤ df ≤ MAX_SHINGLE_DF (hot-shingle guard mirrored from
    # stages/dedup.py); |A|,|B| over ALL shingles
    from uci_searchengine_ray.pipelines.dedup_sim import JACCARD_TAU, COSINE_TAU, ANN_QUERIES, ANN_K
    from uci_searchengine_ray.stages.dedup import MAX_SHINGLE_DF

    sql["dedup_ngram_jaccard"] = f"""
WITH raw AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '[^a-z0-9_]+') AS arr
  FROM documents
),
tok0 AS (
  SELECT doc_id, unnest(range(1, len(arr) + 1)) AS i, unnest(arr) AS term
  FROM raw
),
tok AS (
  SELECT doc_id, row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn, term
  FROM tok0 WHERE term <> ''
),
sh AS (
  SELECT DISTINCT a.doc_id, a.term || ' ' || b.term || ' ' || c.term AS s
  FROM tok a
  JOIN tok b ON b.doc_id = a.doc_id AND b.rn = a.rn + 1
  JOIN tok c ON c.doc_id = a.doc_id AND c.rn = a.rn + 2
),
sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
shdf AS (SELECT s, count(*) AS c FROM sh GROUP BY s),
inter AS (
  SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, count(*) AS i
  FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
  JOIN shdf ON shdf.s = x.s
  WHERE shdf.c <= {MAX_SHINGLE_DF}
  GROUP BY x.doc_id, y.doc_id
)
SELECT doc_a, doc_b,
       ROUND(i * 1.0 / (sa.n + sb.n - i), 6) AS jaccard
FROM inter
JOIN sz sa ON sa.doc_id = doc_a
JOIN sz sb ON sb.doc_id = doc_b
WHERE i * 1.0 / (sa.n + sb.n - i) >= {JACCARD_TAU}
"""

    _pair_cos = _cos_sql("a.embedding::DOUBLE[]", "b.embedding::DOUBLE[]")
    sql["dedup_embedding"] = f"""
SELECT a.vec_id AS doc_a, b.vec_id AS doc_b, ROUND({_pair_cos}, 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE {_pair_cos} >= {COSINE_TAU}
"""

    sql["ann_bruteforce"] = f"""
WITH q AS (
  SELECT vec_id AS qid, embedding::DOUBLE[] AS qe
  FROM embeddings ORDER BY vec_id LIMIT {ANN_QUERIES}
),
sims AS (
  SELECT q.qid AS query_id, e.vec_id,
         ROUND({_cos_sql("e.embedding::DOUBLE[]", "q.qe")}, 6) AS cosine
  FROM embeddings e CROSS JOIN q
)
SELECT query_id, CAST(row_number() OVER w AS BIGINT) AS rank, vec_id, cosine
FROM sims
WINDOW w AS (PARTITION BY query_id ORDER BY cosine DESC, vec_id ASC)
QUALIFY rank <= {ANN_K}
"""

    # fake-decode formulas mirrored from stages/multimodal.py (text is ASCII
    # so char ops ≡ byte ops)
    sql["multimodal_image"] = """
SELECT doc_id,
       'image' AS modality,
       CAST(length(text) AS BIGINT) AS n_bytes,
       CAST(1 + ('0x' || substr(sha256(text), 1, 8))::UBIGINT % 1920 AS BIGINT) AS width,
       CAST(1 + ('0x' || substr(sha256(text), 9, 8))::UBIGINT % 1080 AS BIGINT) AS height,
       CAST(1 AS BIGINT) AS n_frames,
       0.0 AS duration_s,
       sha256(substr(text, 1, 64)) AS thumb_sha256
FROM documents
"""

    sql["pricing_summary"] = """
SELECT l_returnflag, l_linestatus,
       ROUND(sum(l_quantity), 2) AS sum_qty,
       ROUND(sum(l_extendedprice), 2) AS sum_base_price,
       ROUND(sum(l_extendedprice * (1.0 - l_discount)), 2) AS sum_disc_price,
       ROUND(sum(l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax)), 2) AS sum_charge,
       ROUND(avg(l_quantity), 6) AS avg_qty,
       ROUND(avg(l_extendedprice), 6) AS avg_price,
       ROUND(avg(l_discount), 6) AS avg_disc,
       CAST(count(*) AS BIGINT) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-01 00:00:00'
GROUP BY l_returnflag, l_linestatus
"""

    sql["segment_revenue"] = """
SELECT c.c_mktsegment,
       ROUND(sum(o.o_totalprice), 2) AS revenue,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY c.c_mktsegment
"""

    sql["events_hourly"] = """
SELECT user_id,
       CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hour,
       CAST(count(*) AS BIGINT) AS n_events,
       ROUND(sum(value), 6) AS sum_value,
       ROUND(max(value), 6) AS max_value
FROM events
GROUP BY user_id, epoch_us(ts) // 3600000000
"""

    sql["top_customers"] = """
SELECT o.o_custkey,
       ROUND(sum(o.o_totalprice), 2) AS total_spent,
       CAST(count(*) AS BIGINT) AS n_orders,
       any_value(c.c_name) AS c_name
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY o.o_custkey
ORDER BY ROUND(sum(o.o_totalprice), 2) DESC, o.o_custkey ASC
LIMIT 10
"""

    sql["search_envelope"] = (
        _BASE_REF
        + f""",
n AS (SELECT count(*) AS n_docs FROM documents),
qt(query_id, term) AS (VALUES {_qt_values('reference')}),
scores AS (
  SELECT qt.query_id, tf.doc_id,
         SUM((tf.cnt * 1.0 / dl.doc_len) * ln(n.n_docs * 1.0 / (df.df + 1))) AS s
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id
  JOIN df ON df.term = qt.term
  CROSS JOIN n
  GROUP BY qt.query_id, tf.doc_id
  HAVING SUM((tf.cnt * 1.0 / dl.doc_len) * ln(n.n_docs * 1.0 / (df.df + 1))) > 0
),
per_q AS (SELECT query_id, CAST(count(*) AS BIGINT) AS total_results
          FROM scores GROUP BY query_id),
allq(query_id) AS (VALUES {", ".join(f"({qid})" for qid, _ in QUERYSET)})
SELECT allq.query_id,
       COALESCE(per_q.total_results, 0) AS total_results,
       CAST((COALESCE(per_q.total_results, 0) + {TOP_N} - 1) // {TOP_N} AS BIGINT)
           AS total_pages
FROM allq LEFT JOIN per_q ON per_q.query_id = allq.query_id
"""
    )

    # positional phrase matching: adjacency self-joins over (doc, rn) tokens
    phrase_selects = []
    for pid, phrase in PHRASESET:
        toks = tokenize_reference(phrase)
        joins = "".join(
            f" JOIN tok a{i} ON a{i}.doc_id = a0.doc_id AND a{i}.rn = a0.rn + {i}"
            for i in range(1, len(toks))
        )
        conds = " AND ".join(f"a{i}.term = '{t}'" for i, t in enumerate(toks))
        phrase_selects.append(
            f"SELECT {pid} AS phrase_id, a0.doc_id AS doc_id, "
            f"CAST(count(*) AS BIGINT) AS n_occurrences "
            f"FROM tok a0{joins} WHERE {conds} GROUP BY a0.doc_id"
        )
    sql["search_phrase"] = f"""
WITH raw AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '[^a-z0-9_]+') AS arr
  FROM documents
),
tok0 AS (
  SELECT doc_id, unnest(range(1, len(arr) + 1)) AS i, unnest(arr) AS term
  FROM raw
),
tok AS (
  SELECT doc_id, row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn, term
  FROM tok0 WHERE term <> ''
)
{" UNION ALL ".join(phrase_selects)}
"""

    sql["doc_sha256"] = """
SELECT doc_id, sha256(text) AS content_sha256 FROM documents
"""

    # CMS point estimates are one-sided and collision-free at the gate
    # vocabulary (31 terms vs a d×w=4×16384 sketch), so est_count equals
    # the exact occurrence count and the gate is value-exact; the Ray
    # side's tie-break (count desc, term asc) is mirrored here.
    sql["approx_top_terms"] = (
        _BASE_REF
        + """
SELECT tf.term AS term, CAST(sum(tf.cnt) AS BIGINT) AS est_count
FROM tf GROUP BY tf.term
ORDER BY est_count DESC, term ASC LIMIT 10
"""
    )

    # gap-based sessionization (30 min), tie-break (ts, event_id)
    sql["events_sessions"] = """
WITH e AS (SELECT user_id, event_id, value, epoch_us(ts) AS us FROM events),
d AS (
  SELECT *,
         CASE WHEN lag(us) OVER w IS NULL
                   OR us - lag(us) OVER w > 1800000000
              THEN 1 ELSE 0 END AS brk
  FROM e
  WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
),
s AS (
  SELECT *,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY us, event_id
                        ROWS UNBOUNDED PRECEDING) AS session_id
  FROM d
)
SELECT user_id,
       CAST(session_id AS BIGINT) AS session_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(min(us) AS BIGINT) AS start_us,
       CAST(max(us) AS BIGINT) AS end_us,
       ROUND(sum(value), 6) AS sum_value
FROM s GROUP BY user_id, session_id
"""

    # MinHash+LSH pairs: the WHOLE pipeline is deterministic given the
    # seeded coefficients (inlined below), so the oracle recomputes the
    # signatures with exact HUGEINT (a·h + b) mod 2⁶¹−1 arithmetic and
    # declares candidates where a whole band's signature chunk matches —
    # identical to the engine's 64-bit band-key collision (the Horner fold
    # over the chunk is injective up to the ~2⁻⁶¹ mass the family already
    # accepts) — then filters by exact Jaccard ≥ τ like the verifier.
    # Shingle hash mirrors stages/dedup._shingle_hashes: per-token
    # md5[:16 hex] mod p, Horner-folded with base 1000000007 mod p.
    from uci_searchengine_ray.stages.dedup import MinHasher

    _mh = MinHasher()  # engine defaults: 64 hashes, 16 bands, seed 42
    _params = ", ".join(
        f"({i}, {int(a)}, {int(b)})"
        for i, (a, b) in enumerate(zip(_mh.a, _mh.b))
    )
    sql["dedup_minhash_lsh"] = f"""
WITH raw AS (SELECT doc_id, regexp_split_to_array(lower(text),'[^a-z0-9_]+') AS arr FROM documents),
tok0 AS (SELECT doc_id, unnest(range(1,len(arr)+1)) AS i, unnest(arr) AS term FROM raw),
tok AS (SELECT doc_id, row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn, term
        FROM tok0 WHERE term <> ''),
sh AS (SELECT DISTINCT a0.doc_id, a0.term||' '||a1.term||' '||a2.term AS shingle
       FROM tok a0 JOIN tok a1 ON a1.doc_id=a0.doc_id AND a1.rn=a0.rn+1
                   JOIN tok a2 ON a2.doc_id=a0.doc_id AND a2.rn=a0.rn+2),
th AS (SELECT doc_id, rn,
              CAST(CAST('0x'||substr(md5(term),1,16) AS UBIGINT)
                   % 2305843009213693951 AS HUGEINT) AS tv
       FROM tok),
h AS (SELECT DISTINCT a0.doc_id,
             ((a0.tv * 1000000007 + a1.tv) % 2305843009213693951
              * 1000000007 + a2.tv) % 2305843009213693951 AS hv
      FROM th a0 JOIN th a1 ON a1.doc_id=a0.doc_id AND a1.rn=a0.rn+1
                 JOIN th a2 ON a2.doc_id=a0.doc_id AND a2.rn=a0.rn+2),
params(i, a, b) AS (VALUES {_params}),
sig AS (
  SELECT h.doc_id, p.i,
         min((CAST(p.a AS HUGEINT) * h.hv
              + CAST(p.b AS HUGEINT)) % 2305843009213693951) AS v
  FROM h CROSS JOIN params p GROUP BY h.doc_id, p.i
),
bandsig AS (
  SELECT doc_id, i // {_mh.rows} AS band, list(v ORDER BY i) AS bs
  FROM sig GROUP BY doc_id, i // {_mh.rows}
),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bandsig x JOIN bandsig y
    ON y.band = x.band AND y.bs = x.bs AND x.doc_id < y.doc_id
),
sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT c.doc_a, c.doc_b, count(*) AS i
  FROM cand c JOIN sh a ON a.doc_id = c.doc_a
              JOIN sh b ON b.doc_id = c.doc_b AND b.shingle = a.shingle
  GROUP BY c.doc_a, c.doc_b
)
SELECT c.doc_a, c.doc_b,
       ROUND(COALESCE(i.i, 0) * 1.0 / (sa.n + sb.n - COALESCE(i.i, 0)), 6) AS jaccard
FROM cand c
LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
JOIN sz sa ON sa.doc_id = c.doc_a
JOIN sz sb ON sb.doc_id = c.doc_b
WHERE COALESCE(i.i, 0) * 1.0 / (sa.n + sb.n - COALESCE(i.i, 0)) >= {JACCARD_TAU}
"""

    # connected components over the near-dup pairs (component = cluster min
    # doc_id) via transitive closure — fine at gate scale; the engine side
    # documents the large-star/small-star scale path
    sql["dedup_components"] = f"""
WITH RECURSIVE p AS (
  SELECT doc_a, doc_b FROM ({sql["dedup_ngram_jaccard"]}) t
),
e AS (SELECT doc_a AS u, doc_b AS v FROM p
      UNION SELECT doc_b, doc_a FROM p),
reach(u, v) AS (
  SELECT u, v FROM e
  UNION
  SELECT r.u, e2.v FROM reach r JOIN e e2 ON e2.u = r.v WHERE e2.v <> r.u
)
SELECT u AS doc_id, CAST(least(u, min(v)) AS BIGINT) AS component
FROM reach GROUP BY u
"""

    # keep-list after near-dedup: drop every clustered doc that is not its
    # cluster's min-doc_id representative
    sql["near_dedup_keep"] = f"""
WITH comp AS ({sql["dedup_components"]})
SELECT d.doc_id, CAST(d.n_chars AS BIGINT) AS n_chars
FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM comp WHERE doc_id <> component)
"""

    # as-of join: each purchase ↔ the user's latest click at-or-before it.
    # Same-timestamp clicks deduped to max event_id so ASOF is deterministic
    # (mirrors the engine's (ts, click-first, event_id) ordering + ffill)
    sql["asof_join"] = """
WITH p AS (SELECT user_id, event_id, ts FROM events WHERE event_type = 'purchase'),
c AS (SELECT user_id, ts, max(event_id) AS click_id
      FROM events WHERE event_type = 'click' GROUP BY user_id, ts)
SELECT p.user_id,
       p.event_id AS purchase_id,
       CAST(epoch_us(p.ts) AS BIGINT) AS purchase_us,
       c.click_id,
       CAST(epoch_us(c.ts) AS BIGINT) AS click_us
FROM p ASOF JOIN c ON p.user_id = c.user_id AND c.ts <= p.ts
"""

    # banded range join: clicks in (purchase - 30 min, purchase] per purchase
    sql["range_join"] = """
WITH p AS (SELECT user_id, event_id, ts FROM events WHERE event_type = 'purchase'),
c AS (SELECT user_id, ts FROM events WHERE event_type = 'click')
SELECT p.user_id,
       p.event_id AS purchase_id,
       CAST(epoch_us(p.ts) AS BIGINT) AS purchase_us,
       CAST(count(c.ts) AS BIGINT) AS n_prior_clicks
FROM p LEFT JOIN c
  ON c.user_id = p.user_id
 AND c.ts <= p.ts
 AND c.ts > p.ts - INTERVAL 30 MINUTE
GROUP BY p.user_id, p.event_id, p.ts
"""

    # sliding 3h/1h-hop window: each event feeds 3 window starts
    sql["events_sliding"] = """
SELECT user_id,
       CAST(epoch_us(ts) // 3600000000 - off AS BIGINT) AS win_hour,
       CAST(count(*) AS BIGINT) AS n_events,
       ROUND(sum(value), 6) AS sum_value
FROM events CROSS JOIN (SELECT unnest([0, 1, 2]) AS off) offs
GROUP BY user_id, epoch_us(ts) // 3600000000 - off
"""

    # top-3 orders per market segment, tie-break (price desc, orderkey asc)
    sql["topk_per_group"] = """
SELECT c.c_mktsegment,
       CAST(row_number() OVER (PARTITION BY c.c_mktsegment
                               ORDER BY o.o_totalprice DESC, o.o_orderkey ASC)
            AS BIGINT) AS rank,
       o.o_orderkey,
       o.o_totalprice
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
QUALIFY rank <= 3
"""

    # polynomial rolling hash h = (h·B + byte) mod 2^61-1, folded with a
    # HUGEINT list_reduce over the character codes (testdata is ASCII, so
    # codepoint == utf-8 byte; mirrors functions/hashing.py)
    sql["fingerprints"] = """
SELECT doc_id,
       CASE WHEN text IS NULL OR text = '' THEN CAST(0 AS BIGINT)
       ELSE CAST(list_reduce(
         list_prepend(CAST(0 AS HUGEINT),
                      list_transform(string_split_regex(text, ''),
                                     c -> CAST(unicode(c) AS HUGEINT))),
         (h, c) -> (h * 1000003 + c) % 2305843009213693951
       ) AS BIGINT) END AS fingerprint
FROM documents
"""

    # consolidated text-analysis gate: the lang_quality, token_counts and
    # fingerprints oracles joined column-wise on doc_id (same fusion as
    # analysis.text_signals — one driver row, three operators value-checked)
    sql["text_signals"] = f"""
WITH lq AS ({sql['lang_quality']}),
tc AS ({sql['token_counts']}),
fp AS ({sql['fingerprints']})
SELECT lq.*, tc.ws_tokens, tc.word_tokens, tc.bpe_ish_tokens, fp.fingerprint
FROM lq JOIN tc USING (doc_id) JOIN fp USING (doc_id)
"""

    # semi-structured extraction: props is one JSON object per event
    sql["json_extract"] = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(min(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS min_k,
       CAST(max(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS max_k
FROM events GROUP BY event_type
"""

    # SimHash near-dup pairs: the engine's 4×16-bit chunk banding is EXACT
    # for hamming ≤ 3 (pigeonhole: 3 differing bits cannot touch all 4
    # chunks), so the oracle is the full definition — Horner-folded
    # per-token md5 shingle hashes (mirror of stages/dedup._shingle_hashes;
    # values < 2⁶¹ so bits 61-63 are constant 0 on both sides) → per-bit
    # ±1 majority signature → all pairs with bit_count(xor) ≤ 3.  (Engine
    # degrades pathological >4096-doc chunk buckets to representative-
    # linking; no such bucket exists in the testdata.)
    sql["dedup_simhash"] = """
WITH raw AS (SELECT doc_id, regexp_split_to_array(lower(text),'[^a-z0-9_]+') AS arr FROM documents),
tok0 AS (SELECT doc_id, unnest(range(1,len(arr)+1)) AS i, unnest(arr) AS term FROM raw),
tok AS (SELECT doc_id, row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn, term
        FROM tok0 WHERE term <> ''),
th AS (SELECT doc_id, rn,
              CAST(CAST('0x'||substr(md5(term),1,16) AS UBIGINT)
                   % 2305843009213693951 AS HUGEINT) AS tv
       FROM tok),
h AS (SELECT DISTINCT a0.doc_id,
             CAST(((a0.tv * 1000000007 + a1.tv) % 2305843009213693951
                   * 1000000007 + a2.tv) % 2305843009213693951 AS UBIGINT) AS hv
      FROM th a0 JOIN th a1 ON a1.doc_id=a0.doc_id AND a1.rn=a0.rn+1
                 JOIN th a2 ON a2.doc_id=a0.doc_id AND a2.rn=a0.rn+2),
bits AS (SELECT doc_id, j,
               CASE WHEN sum(CASE WHEN (hv >> j) & 1 = 1 THEN 1 ELSE -1 END) > 0
                    THEN 1 ELSE 0 END AS b
         FROM h CROSS JOIN (SELECT unnest(range(64)) AS j) js GROUP BY doc_id, j),
sig0 AS (SELECT doc_id,
                CAST(sum(CAST(b AS HUGEINT) * (CAST(1 AS HUGEINT) << CAST(j AS INT)))
                     AS UBIGINT) AS s
         FROM bits GROUP BY doc_id),
sig AS (SELECT d.doc_id, COALESCE(sig0.s, CAST(0 AS UBIGINT)) AS s
        FROM documents d LEFT JOIN sig0 ON sig0.doc_id = d.doc_id)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.s, b.s)) AS BIGINT) AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.s, b.s)) <= 3
"""

    # --- corpus text cleaning (pipelines/cleaning.py) ---

    # boilerplate: lines (exact, non-blank) present in ≥ min_docs distinct
    # docs are stripped; blank lines always survive.  str_split('','\n') →
    # [''] matches Python ''.split('\n'), so every doc has ≥ 1 line.
    sql["boilerplate_lines"] = f"""
WITH l AS (
  SELECT doc_id,
         unnest(str_split(text, chr(10))) AS line,
         generate_subscripts(str_split(text, chr(10)), 1) AS ord
  FROM documents
),
boiler AS (
  SELECT line FROM (
    SELECT line, count(DISTINCT doc_id) AS nd FROM l WHERE line <> '' GROUP BY line
  ) WHERE nd >= {cleaning.BOILER_MIN_DOCS}
),
kept AS (
  SELECT doc_id, count(*) AS n_kept,
         coalesce(string_agg(line, chr(10) ORDER BY ord), '') AS clean_text
  FROM l WHERE line = '' OR line NOT IN (SELECT line FROM boiler)
  GROUP BY doc_id
),
stats AS (SELECT doc_id, count(*) AS n_lines FROM l GROUP BY doc_id)
SELECT s.doc_id,
       CAST(s.n_lines AS BIGINT) AS n_lines,
       CAST(s.n_lines - coalesce(k.n_kept, 0) AS BIGINT) AS n_removed,
       coalesce(k.clean_text, '') AS clean_text
FROM stats s LEFT JOIN kept k ON k.doc_id = s.doc_id
"""

    # repetition signals (Gopher-style): duplicate-line fraction over
    # non-blank lines, character mass in duplicated lines, most-frequent-
    # word fraction (reference tokenization)
    sql["repetition_stats"] = f"""
WITH l AS (
  SELECT doc_id, unnest(str_split(text, chr(10))) AS line FROM documents
),
al AS (SELECT doc_id, count(*) AS n_lines FROM l GROUP BY doc_id),
nb AS (
  SELECT doc_id, line, count(*) AS c, length(line) AS len
  FROM l WHERE line <> '' GROUP BY doc_id, line
),
ls AS (
  SELECT doc_id, sum(c) AS n_nb, count(*) AS n_distinct,
         sum(len * c) AS chars_all,
         sum(CASE WHEN c > 1 THEN len * c ELSE 0 END) AS chars_dup
  FROM nb GROUP BY doc_id
),
tok AS (SELECT doc_id, term FROM ({_TOK}) WHERE term <> ''),
tf AS (SELECT doc_id, term, count(*) AS cnt FROM tok GROUP BY doc_id, term),
tw AS (SELECT doc_id, max(cnt) AS mx, sum(cnt) AS tot FROM tf GROUP BY doc_id)
SELECT al.doc_id,
       CAST(al.n_lines AS BIGINT) AS n_lines,
       ROUND(CASE WHEN coalesce(ls.n_nb, 0) > 0
                  THEN (ls.n_nb - ls.n_distinct) * 1.0 / ls.n_nb ELSE 0 END, 6)
         AS dup_line_frac,
       ROUND(CASE WHEN coalesce(ls.chars_all, 0) > 0
                  THEN ls.chars_dup * 1.0 / ls.chars_all ELSE 0 END, 6)
         AS dup_line_char_frac,
       ROUND(CASE WHEN coalesce(tw.tot, 0) > 0
                  THEN tw.mx * 1.0 / tw.tot ELSE 0 END, 6) AS top_word_frac
FROM al LEFT JOIN ls ON ls.doc_id = al.doc_id
        LEFT JOIN tw ON tw.doc_id = al.doc_id
"""

    # PII redaction: sequential email → ipv4 → phone, each counted on the
    # previous stage's output — RE2 \\b/\\d (ASCII) ≡ Python re.ASCII
    sql["pii_redact"] = f"""
WITH s1 AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '{cleaning.PII_EMAIL}')) AS BIGINT) AS n_emails,
         regexp_replace(text, '{cleaning.PII_EMAIL}', '<EMAIL>', 'g') AS t1
  FROM documents
),
s2 AS (
  SELECT doc_id, n_emails,
         CAST(len(regexp_extract_all(t1, '{cleaning.PII_IPV4}')) AS BIGINT) AS n_ips,
         regexp_replace(t1, '{cleaning.PII_IPV4}', '<IP>', 'g') AS t2
  FROM s1
)
SELECT doc_id, n_emails, n_ips,
       CAST(len(regexp_extract_all(t2, '{cleaning.PII_PHONE}')) AS BIGINT) AS n_phones,
       regexp_replace(t2, '{cleaning.PII_PHONE}', '<PHONE>', 'g') AS redacted_text
FROM s2
"""

    # consolidated cleaning gate: repetition_stats + pii_redact joined on
    # doc_id (same fusion as cleaning.quality_scrub)
    sql["quality_scrub"] = f"""
WITH rs AS ({sql['repetition_stats']}),
pr AS ({sql['pii_redact']})
SELECT rs.*, pr.n_emails, pr.n_ips, pr.n_phones, pr.redacted_text
FROM rs JOIN pr USING (doc_id)
"""

    # --- k-means / SemDeDup (stages/clustering.py): Lloyd's iterations
    # unrolled into a CTE chain.  Centroids are 6-decimal rounded after
    # every update on BOTH sides and assignment orders by the ROUNDED
    # cosine (ties → lowest cluster), so partial-sum/avg ordering noise
    # (~1e-13 ≪ the 5e-7 rounding granularity) cannot flip a cell.
    from uci_searchengine_ray.stages.clustering import (
        KMEANS_ITERS,
        KMEANS_K,
        SEMDEDUP_TAU,
    )

    kcte = _kmeans_cte(KMEANS_K, KMEANS_ITERS)
    sql["kmeans_clusters"] = f"""
{kcte}
SELECT vec_id, CAST(cluster AS BIGINT) AS cluster, sim FROM (
  SELECT e.vec_id, c.cluster,
         ROUND({_cos_sql("e.embedding::DOUBLE[]", "c.ce")}, 6) AS sim,
         row_number() OVER (PARTITION BY e.vec_id
           ORDER BY ROUND({_cos_sql("e.embedding::DOUBLE[]", "c.ce")}, 6) DESC,
                    c.cluster ASC) AS rn
  FROM embeddings e CROSS JOIN c{KMEANS_ITERS} c
) WHERE rn = 1
"""

    sql["semantic_dedup"] = f"""
{kcte},
af AS (
  SELECT vec_id, cluster FROM (
    SELECT e.vec_id, c.cluster,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY ROUND({_cos_sql("e.embedding::DOUBLE[]", "c.ce")}, 6) DESC,
                      c.cluster ASC) AS rn
    FROM embeddings e CROSS JOIN c{KMEANS_ITERS} c
  ) WHERE rn = 1
)
SELECT a.vec_id AS doc_a, b.vec_id AS doc_b,
       ROUND({_cos_sql("ea.embedding::DOUBLE[]", "eb.embedding::DOUBLE[]")}, 6) AS cosine
FROM af a JOIN af b ON a.cluster = b.cluster AND a.vec_id < b.vec_id
JOIN embeddings ea ON ea.vec_id = a.vec_id
JOIN embeddings eb ON eb.vec_id = b.vec_id
WHERE {_cos_sql("ea.embedding::DOUBLE[]", "eb.embedding::DOUBLE[]")} >= {SEMDEDUP_TAU}
"""

    # --- benchmark decontamination (pipelines/cleaning.py:decontaminate):
    # training docs sharing any DISTINCT token-8-gram with the held-out
    # eval split (doc_id % DECON_EVAL_MOD == 0).  The Ray side matches on
    # Mersenne-61 gram hashes; the oracle on the gram strings themselves
    # (space-join over [a-z0-9_]+ tokens is injective) — same trade as
    # dedup_ngram_jaccard.
    from uci_searchengine_ray.pipelines.cleaning import DECON_NGRAM, DECON_EVAL_MOD

    _dn = DECON_NGRAM
    sql["decontaminate"] = f"""
WITH raw AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
                     t -> t <> '') AS toks
  FROM documents
),
grams0 AS (
  SELECT doc_id,
         unnest([array_to_string(toks[i:i+{_dn - 1}], ' ')
                 for i in range(1, len(toks) - {_dn - 2})]) AS g
  FROM raw WHERE len(toks) >= {_dn}
),
grams AS (SELECT DISTINCT doc_id, g FROM grams0),
ev AS (SELECT DISTINCT g FROM grams WHERE doc_id % {DECON_EVAL_MOD} = 0),
shared AS (
  SELECT grams.doc_id, count(*) AS ns
  FROM grams JOIN ev USING (g)
  WHERE grams.doc_id % {DECON_EVAL_MOD} <> 0
  GROUP BY grams.doc_id
)
SELECT d.doc_id, CAST(coalesce(s.ns, 0) AS BIGINT) AS n_shared,
       coalesce(s.ns, 0) > 0 AS contaminated
FROM documents d LEFT JOIN shared s USING (doc_id)
WHERE d.doc_id % {DECON_EVAL_MOD} <> 0
"""

    # --- int8 scalar quantization + quantized ANN (stages/similarity.py):
    # scale = round6(max|x|/127), q = clip(round_half_away(x/scale), ±127).
    # embedding_quantize pins every element via the (a·31+b) mod 2⁶¹−1
    # Horner fold over (q_i+128) (list_reduce — the fingerprints pattern);
    # ann_int8 is fully integer-deterministic so the gate is exact.
    from uci_searchengine_ray.pipelines.dedup_sim import ANN_QUERIES as _NQ
    from uci_searchengine_ray.pipelines.dedup_sim import ANN_K as _NK

    _QCTE = """
s AS (
  SELECT vec_id, embedding,
         ROUND(list_max(list_transform(embedding, y -> abs(y))) / 127.0,
               6) AS scale
  FROM embeddings
),
q AS (
  SELECT vec_id, scale,
         list_transform(embedding, x ->
           CAST(LEAST(127, GREATEST(-127,
             ROUND(CAST(x AS DOUBLE) /
                   (CASE WHEN scale = 0 THEN 1.0 ELSE scale END), 0)
           )) AS BIGINT)) AS qv
  FROM s
)"""

    sql["embedding_quantize"] = f"""
WITH {_QCTE}
SELECT vec_id, scale,
       CAST(list_min(qv) AS BIGINT) AS qmin,
       CAST(list_max(qv) AS BIGINT) AS qmax,
       CAST(list_reduce(list_transform(qv, x -> CAST(x + 128 AS HUGEINT)),
                        (a, b) -> (a * 31 + b) % 2305843009213693951)
            AS BIGINT) AS qhash
FROM q
"""

    sql["ann_int8"] = f"""
WITH n0 AS (
  SELECT vec_id, embedding,
         sqrt(list_dot_product(
           list_transform(embedding, y -> CAST(y AS DOUBLE)),
           list_transform(embedding, y -> CAST(y AS DOUBLE)))) AS nrm
  FROM embeddings
),
nv AS (
  SELECT vec_id,
         list_transform(embedding, x -> ROUND(CAST(x AS DOUBLE) /
           (CASE WHEN nrm = 0 THEN 1.0 ELSE nrm END), 6)) AS ne
  FROM n0
),
sn AS (
  SELECT vec_id, ne,
         ROUND(list_max(list_transform(ne, y -> abs(y))) / 127.0, 6) AS scale
  FROM nv
),
qn AS (
  SELECT vec_id, scale,
         list_transform(ne, x ->
           CAST(LEAST(127, GREATEST(-127,
             ROUND(x / (CASE WHEN scale = 0 THEN 1.0 ELSE scale END), 0)
           )) AS BIGINT)) AS qv
  FROM sn
),
qq AS (
  SELECT vec_id AS query_id, scale AS qs, qv AS qqv
  FROM qn ORDER BY vec_id LIMIT {_NQ}
),
d AS (
  SELECT qq.query_id, q.vec_id,
         ROUND(list_dot_product(
           list_transform(qq.qqv, x -> CAST(x AS DOUBLE)),
           list_transform(q.qv, x -> CAST(x AS DOUBLE)))
           * qq.qs * q.scale, 6) AS qscore
  FROM qq CROSS JOIN qn q
),
rk AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY qscore DESC, vec_id ASC) AS rank
  FROM d
)
SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id, qscore
FROM rk WHERE rank <= {_NK}
"""

    # --- per-doc tf·idf keyword extraction (pipelines/analysis.py:
    # tfidf_keywords): §1.4 scoring semantics (tf = count/doc_len,
    # idf = ln(N/(df+1))), rank on the ROUNDED score with term-asc
    # tie-break so both sides order identically.
    from uci_searchengine_ray.pipelines.analysis import TFIDF_TOPK

    sql["tfidf_keywords"] = f"""
WITH raw AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
                     t -> t <> '') AS toks
  FROM documents
),
n AS (SELECT count(*) AS nd FROM documents),
tok AS (
  SELECT doc_id, unnest(toks) AS term, len(toks) AS dlen
  FROM raw WHERE len(toks) > 0
),
tf AS (
  SELECT doc_id, term, any_value(dlen) AS dlen, count(*) AS c
  FROM tok GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
sc AS (
  SELECT t.doc_id, t.term,
         ROUND((t.c * 1.0 / t.dlen)
               * ln((SELECT nd FROM n) * 1.0 / (d.df + 1)), 6) AS tfidf
  FROM tf t JOIN df d USING (term)
),
rk AS (
  SELECT doc_id, term, tfidf,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY tfidf DESC, term ASC) AS rank
  FROM sc
)
SELECT doc_id, CAST(rank AS BIGINT) AS rank, term, tfidf
FROM rk WHERE rank <= {TFIDF_TOPK}
"""

    # --- duplicated-span statistics (pipelines/cleaning.py:dup_spans):
    # per-doc coverage by token-w-windows occurring in ≥ min_df distinct
    # docs (substring-dedup family, Lee et al. 2022).  Ray matches window
    # hashes, the oracle window STRINGS; fixed window length makes the
    # interval union a closed form on sorted start positions (LEAD diff),
    # which is 0-/1-base invariant.
    from uci_searchengine_ray.pipelines.cleaning import DUPSPAN_W, DUPSPAN_MIN_DF

    _dw = DUPSPAN_W
    sql["dup_spans"] = f"""
WITH raw AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
                     t -> t <> '') AS toks
  FROM documents
),
winpos AS (
  SELECT doc_id, len(toks) AS n_tokens, toks,
         unnest(range(1, len(toks) - {_dw} + 2)) AS pos
  FROM raw WHERE len(toks) >= {_dw}
),
win AS (
  SELECT doc_id, n_tokens, pos,
         array_to_string(toks[pos:pos+{_dw - 1}], ' ') AS g
  FROM winpos
),
df AS (
  SELECT g FROM win GROUP BY g
  HAVING count(DISTINCT doc_id) >= {DUPSPAN_MIN_DF}
),
dup AS (SELECT w.doc_id, w.n_tokens, w.pos FROM win w JOIN df USING (g)),
gaps AS (
  SELECT doc_id, n_tokens,
         LEAST({_dw}, COALESCE(
           LEAD(pos) OVER (PARTITION BY doc_id ORDER BY pos) - pos,
           {_dw})) AS cov
  FROM dup
)
SELECT doc_id, CAST(any_value(n_tokens) AS BIGINT) AS n_tokens,
       COUNT(*) AS dup_windows,
       CAST(SUM(cov) AS BIGINT) AS covered_tokens,
       ROUND(SUM(cov)::DOUBLE / any_value(n_tokens), 6) AS dup_fraction
FROM gaps GROUP BY doc_id
"""

    # --- strip duplicated spans (pipelines/cleaning.py:strip_dup_spans):
    # remove tokens covered by any dup window (df ≥ min_df); clean_text is
    # the space-joined survivors (token-granular reconstruction, mirrored).
    sql["strip_dup_spans"] = f"""
WITH raw AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
                     t -> t <> '') AS toks
  FROM documents
),
winpos AS (
  SELECT doc_id, toks, unnest(range(1, len(toks) - {_dw} + 2)) AS pos
  FROM raw WHERE len(toks) >= {_dw}
),
win AS (
  SELECT doc_id, pos, array_to_string(toks[pos:pos+{_dw - 1}], ' ') AS g
  FROM winpos
),
df AS (
  SELECT g FROM win GROUP BY g
  HAVING count(DISTINCT doc_id) >= {DUPSPAN_MIN_DF}
),
dup AS (SELECT w.doc_id, w.pos FROM win w JOIN df USING (g)),
tokpos AS (
  SELECT doc_id, toks, unnest(range(1, len(toks) + 1)) AS ti
  FROM raw WHERE len(toks) > 0
),
keep AS (
  SELECT t2.doc_id, t2.ti, t2.toks[t2.ti] AS t
  FROM tokpos t2
  WHERE NOT EXISTS (
    SELECT 1 FROM dup d
    WHERE d.doc_id = t2.doc_id
      AND t2.ti BETWEEN d.pos AND d.pos + {_dw - 1}
  )
)
SELECT r.doc_id,
       CAST(len(r.toks) AS BIGINT) AS n_tokens,
       CAST(count(k.ti) AS BIGINT) AS n_kept,
       COALESCE(string_agg(k.t, ' ' ORDER BY k.ti), '') AS clean_text
FROM raw r LEFT JOIN keep k USING (doc_id)
GROUP BY r.doc_id, len(r.toks)
"""

    # --- exact per-lang length quantiles (pipelines/analysis.py:
    # length_quantiles): distributed histogram → linear-interpolation rule
    # (numpy percentile ≡ DuckDB quantile_cont); DOUBLE cast first because
    # quantile_cont on DECIMAL truncates the interpolation.
    sql["length_quantiles"] = """
SELECT lang,
       ROUND(quantile_cont(n_chars::DOUBLE, 0.5), 6) AS p50,
       ROUND(quantile_cont(n_chars::DOUBLE, 0.9), 6) AS p90,
       ROUND(quantile_cont(n_chars::DOUBLE, 0.99), 6) AS p99
FROM documents GROUP BY lang
"""

    # --- pretraining export (pipelines/export.py): curate survivors minus
    # the eval split minus contaminated docs, sharded by the same Knuth
    # multiplicative hash as sample_hash, summarised per shard.
    from uci_searchengine_ray.pipelines.export import EXPORT_SHARDS

    sql["export_shards"] = f"""
WITH cur AS ({sql['curate']}),
dec AS ({sql['decontaminate']}),
kl AS (
  SELECT cur.*
  FROM cur
  WHERE cur.doc_id % {DECON_EVAL_MOD} <> 0
    AND cur.doc_id NOT IN (SELECT doc_id FROM dec WHERE contaminated)
)
SELECT CAST(((CAST(doc_id AS HUGEINT) % 4294967296) * 2654435761)
            % 4294967296 % {EXPORT_SHARDS} AS BIGINT) AS shard,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_tokens) AS BIGINT) AS n_tokens,
       CAST(sum(n_chars) AS BIGINT) AS n_chars
FROM kl GROUP BY 1
"""

    # --- deterministic mixture sampling (pipelines/sampling.py): both
    # orders are the Knuth hash (h, doc_id); the Ray side computes them
    # distributed (map-side candidate cut / bucketed prefix-sum), the
    # oracle as windows over the same keys.
    from uci_searchengine_ray.pipelines.sampling import SEQ_LEN, TOKEN_BUDGET

    sql["stratified_sample"] = """
WITH t AS (
  SELECT doc_id, lang, n_chars,
         CAST(((CAST(doc_id AS HUGEINT) % 4294967296) * 2654435761)
              % 4294967296 AS BIGINT) AS h
  FROM documents
),
r AS (SELECT *, row_number() OVER (PARTITION BY lang ORDER BY h, doc_id) - 1
             AS sample_rank
      FROM t)
SELECT doc_id, lang, n_chars, CAST(sample_rank AS BIGINT) AS sample_rank
FROM r WHERE sample_rank < 40
"""

    sql["token_budget_mix"] = f"""
WITH t AS (
  SELECT doc_id, lang,
    CAST(len(list_filter(regexp_split_to_array(lower(coalesce(text, '')),
                                               '[^a-z0-9_]+'),
                         x -> x <> '')) AS BIGINT) AS n_tokens,
    ((CAST(doc_id AS HUGEINT) % 4294967296) * 2654435761) % 4294967296 AS h
  FROM documents
),
w AS (SELECT doc_id, lang, n_tokens,
             SUM(n_tokens) OVER (PARTITION BY lang ORDER BY h, doc_id
                                 ROWS UNBOUNDED PRECEDING) AS cum
      FROM t)
SELECT doc_id, lang, n_tokens, CAST(cum AS BIGINT) AS cum_tokens
FROM w WHERE cum - n_tokens < {TOKEN_BUDGET}
"""

    sql["pack_sequences"] = f"""
WITH t AS (
  SELECT doc_id,
    CAST(len(list_filter(regexp_split_to_array(lower(coalesce(text, '')),
                                               '[^a-z0-9_]+'),
                         x -> x <> '')) AS BIGINT) AS n_tokens,
    ((CAST(doc_id AS HUGEINT) % 4294967296) * 2654435761) % 4294967296 AS h
  FROM documents
),
w AS (SELECT doc_id, n_tokens,
             SUM(n_tokens) OVER (ORDER BY h, doc_id
                                 ROWS UNBOUNDED PRECEDING) - n_tokens AS cb
      FROM t)
SELECT doc_id, n_tokens, CAST(cb // {SEQ_LEN} AS BIGINT) AS seq_id,
       CAST(cb % {SEQ_LEN} AS BIGINT) AS seq_offset
FROM w
"""

    # --- IVF family (stages/similarity.py): value-exact oracles (VERDICT r4
    # #2).  Training, probe selection and bucket assignment all make their
    # discrete choices on 6-dp-ROUNDED dots of 6-dp-rounded normalized
    # vectors with ties → lowest centroid (similarity._bucket_ranks), so the
    # entire index unrolls into SQL: ne = round6(x/‖x‖); seeds = strided
    # rows of the vec_id-sorted ≤4096 sample; 2 unrolled Lloyd refinements
    # (assign → round6 mean → round6 renormalize); vass ranks every vector's
    # buckets.  Similarity VALUES stay the zero-guarded cosine of the raw
    # vectors (_cos_sql), exactly like ann_bruteforce/dedup_embedding.
    sql["ann_ivf"] = f"""
{_ivf_cte()},
q AS (SELECT vec_id AS qid, e AS qe, ne AS qne FROM env ORDER BY vec_id LIMIT {_NQ}),
qp AS (
  SELECT qid, cid FROM (
    SELECT q.qid, c.cid,
           row_number() OVER (PARTITION BY q.qid
             ORDER BY ROUND(list_inner_product(q.qne, c.ce), 6) DESC,
                      c.cid ASC) AS rnk
    FROM q CROSS JOIN ivfc{_IVF_ITERS} c
  ) WHERE rnk <= {_IVF_ANN_PROBE}
),
v0 AS (SELECT vec_id, cid FROM vass WHERE rnk = 1),
scored AS (
  SELECT qp.qid AS query_id, v0.vec_id,
         ROUND({_cos_sql("ev.e", "qq.qe")}, 6) AS cosine
  FROM qp JOIN v0 ON v0.cid = qp.cid
  JOIN env ev ON ev.vec_id = v0.vec_id
  JOIN q qq ON qq.qid = qp.qid
)
SELECT query_id, CAST(row_number() OVER w AS BIGINT) AS rank, vec_id, cosine
FROM scored
WINDOW w AS (PARTITION BY query_id ORDER BY cosine DESC, vec_id ASC)
QUALIFY rank <= {_NK}
"""

    sql["dedup_embedding_ivf"] = f"""
{_ivf_cte()},
b AS (SELECT vec_id, cid FROM vass WHERE rnk <= {_IVF_DEDUP_PROBE}),
cp AS (
  SELECT DISTINCT a.vec_id AS doc_a, b2.vec_id AS doc_b
  FROM b a JOIN b b2 ON a.cid = b2.cid AND a.vec_id < b2.vec_id
)
SELECT cp.doc_a, cp.doc_b,
       ROUND({_cos_sql("ea.e", "eb.e")}, 6) AS cosine
FROM cp JOIN env ea ON ea.vec_id = cp.doc_a
JOIN env eb ON eb.vec_id = cp.doc_b
WHERE {_cos_sql("ea.e", "eb.e")} >= {COSINE_TAU}
"""

    return sql
