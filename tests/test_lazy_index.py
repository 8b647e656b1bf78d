"""Lazy PostingsIndex loading (VERDICT r1 item #3): __init__ must load block
metadata only; payloads page in per query term and evict under a byte budget
with no effect on results."""

import numpy as np
import pytest
from bm25_reference import score_bm25_reference

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.functions.tokenizer import TOKENIZERS
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.pipelines.search import (
    PostingsIndex,
    score_bm25_taat,
    score_bm25_wand,
    score_reference,
)
from uci_searchengine_ray.sources.corpus import write_synthetic_corpus


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("lazy")
    corpus = write_synthetic_corpus(str(d / "corpus"), n_docs=400, n_files=4)
    return build_index(
        corpus,
        str(d / "idx"),
        EngineConfig(mode="code", block_size=32),
        mode="fresh",
    )


def test_init_loads_metadata_only(idx):
    pi = PostingsIndex(idx)
    assert pi._payloads.nbytes == 0        # nothing paged in yet
    assert pi.meta_bytes > 0
    ids, scores = score_bm25_taat(pi, "return value stream")
    assert len(ids) > 0
    assert pi._payloads.nbytes > 0         # query terms now resident
    # payloads are a strict subset of the vocabulary
    assert len(pi._payloads) < len(list(pi.terms()))


def test_tiny_budget_evicts_but_stays_correct(idx):
    ref = PostingsIndex(idx)
    small = PostingsIndex(idx, payload_budget_bytes=1)
    queries = ["return value", "index block merge", "self data x",
               "return value"]
    caches = (small._payloads, small._decoded, small._scored)
    for q in queries:
        for scorer in ("bm25", "reference"):
            if scorer == "bm25":
                ia, ca = score_bm25_wand(small, q, top_k=10)
                ib, cb = score_bm25_wand(ref, q, top_k=10)
                ic, cc = score_bm25_reference(ref, q, top_k=10)
                assert np.array_equal(ia, ic) and np.array_equal(ca, cc)
                tokens = TOKENIZERS["code"](q)
            else:
                ia, ca = score_reference(small, q)
                ib, cb = score_reference(ref, q)
                tokens = TOKENIZERS["reference"](q)
            assert np.array_equal(ia, ib) and np.array_equal(ca, cb)
            # the three caches share the one byte budget, except that none
            # evicts the entries of the query being scored
            terms = set(tokens) & set(small.terms())
            this_query = sum(lru._sizes[t] for lru in caches
                             for t in terms if t in lru)
            assert sum(lru.nbytes for lru in caches) <= max(1, this_query)
            if scorer == "bm25":
                assert set(small._scored) == terms
    # the 1-byte budget keeps only the most recent query's terms resident
    assert len(small._payloads) <= len("return value".split()) + 1
