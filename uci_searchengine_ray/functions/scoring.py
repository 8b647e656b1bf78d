"""Scoring formulas and the snippet builder.

Reference-mode conformance contract (SURVEY.md §1.4):
  score(q, d) = Σ_{t ∈ tokenize(q)}  tf(t, d) · ln(N / (df(t) + 1))
  - tf(t, d) = count(t in d) / len(tokenize(d))   (reference search.py:90-95;
    0 when the doc tokenizes to nothing)
  - df(t) = number of distinct docs containing t (intended semantics; the wired
    reference always returned 0 — SURVEY.md §1.4 point 3)
  - N = total document count (search.py:85, `or 1` guard)
  - duplicate query terms contribute once per occurrence (search.py:89 loops
    over the token list, not a set)
  - keep score > 0 only (search.py:102); order (score desc, doc_id asc) — the
    rebuild's deterministic tightening of search.py:113's unstable tie order.

Code-mode scorer: Okapi BM25, k1=1.2, b=0.75 (north-star axes A+B).
"""

from __future__ import annotations

import math

import numpy as np

BM25_K1 = 1.2
BM25_B = 0.75


def ref_idf(df: int, n_docs: int) -> float:
    """Query-time idf = ln(N / (df + 1)) (reference search.py:98), N
    floored at 1 (search.py:85)."""
    return math.log(max(n_docs, 1) / (df + 1))


def ref_tf(tf_counts: np.ndarray, doc_lens: np.ndarray) -> np.ndarray:
    """tf = raw count / doc token length; 0 for empty docs (search.py:91-95)."""
    dl = np.asarray(doc_lens, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(tf_counts, dtype=np.float64) / dl
    out[dl == 0] = 0.0
    return out


def bm25_idf(df: int, n_docs: int) -> float:
    """BM25 idf with +0.5 smoothing, floored at 0 via log1p form:
    ln(1 + (N - df + 0.5) / (df + 0.5)), N floored at 1."""
    return math.log1p((max(n_docs, 1) - df + 0.5) / (df + 0.5))


def bm25_term_score(
    tf_counts: np.ndarray,
    doc_lens: np.ndarray,
    idf: float | np.ndarray,
    avgdl: float,
    k1: float = BM25_K1,
    b: float = BM25_B,
) -> np.ndarray:
    tf = np.asarray(tf_counts, dtype=np.float64)
    dl = np.asarray(doc_lens, dtype=np.float64)
    denom = tf + k1 * (1.0 - b + b * dl / max(avgdl, 1e-12))
    return idf * tf * (k1 + 1.0) / denom


def build_snippet(text: str, query_terms: list, max_length: int = 200) -> str:
    """Windowed excerpt around the earliest query-term hit (search.py:41-65),
    string-identical to the reference implementation."""
    text = text.lower()
    query_terms = [t.lower() for t in query_terms]

    positions = []
    for term in query_terms:
        pos = text.find(term)
        if pos != -1:
            positions.append(pos)

    if not positions:
        return text[:max_length] + "..."

    start_pos = max(0, min(positions) - 50)
    end_pos = min(len(text), start_pos + max_length)

    snippet = text[start_pos:end_pos]
    if start_pos > 0:
        snippet = "..." + snippet
    if end_pos < len(text):
        snippet = snippet + "..."
    return snippet
