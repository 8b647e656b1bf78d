"""Reference BM25 for the scorer tests: exhaustive term-at-a-time over the
decoded postings, accumulated with ``np.unique`` + ``np.add.at`` and ordered
by ``np.lexsort`` — the formulation ``score_bm25_taat`` replaced with a
dense-ordinal ``np.bincount``.  Both add each doc's contributions in
sorted-term order, so ids and scores must match bit for bit."""

import math

import numpy as np

from uci_searchengine_ray.functions.scoring import bm25_term_score
from uci_searchengine_ray.functions.tokenizer import TOKENIZERS


def score_bm25_reference(index, query, top_k=None):
    tokens = TOKENIZERS["code"](query)
    uniq = sorted(set(t for t in tokens if t in index))
    if not uniq:
        return np.empty(0, dtype=np.int64), np.empty(0)
    index.prefetch(uniq)
    all_ids, all_contrib = [], []
    n = max(index.n_docs, 1)
    for tok in uniq:
        ords, tfs = index.postings(tok)
        ids, dls = index.docs.ids[ords], index.docs.lens[ords]
        df = index.df(tok)
        idf = math.log1p((n - df + 0.5) / (df + 0.5))
        all_ids.append(ids)
        all_contrib.append(
            bm25_term_score(tfs, dls, idf, index.avgdl, index.k1, index.b)
        )
    ids = np.concatenate(all_ids)
    contrib = np.concatenate(all_contrib)
    union, inv = np.unique(ids, return_inverse=True)
    acc = np.zeros(len(union), dtype=np.float64)
    np.add.at(acc, inv, contrib)
    order = np.lexsort((union, -acc))
    if top_k is not None:
        order = order[:top_k]
    return union[order], acc[order]


def assert_bit_identical(got, want, query):
    """Same ids in the same order, and scores equal bit for bit."""
    assert got[0].tolist() == want[0].tolist(), query
    assert np.array_equal(got[1], want[1]), query
