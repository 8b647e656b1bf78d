"""Conformance: engine reference mode vs pure-Python oracle (rank-identical,
scores rtol 1e-9, snippets string-equal) + BM25 scorers ≡ the reference BM25
+ actor-pool path (SURVEY.md §5 item 2, FIXTURES.md §4)."""

import numpy as np
import pytest
from bm25_reference import assert_bit_identical, score_bm25_reference

from uci_searchengine_ray.functions.hashing import stable_doc_id
from uci_searchengine_ray.oracle import OracleIndex
from uci_searchengine_ray.pipelines.search import (
    PostingsIndex,
    score_bm25_taat,
    score_bm25_wand,
    score_reference,
    search_batch,
    search_one,
)
from uci_searchengine_ray.sources.corpus import synthetic_corpus_table

# golden query set per FIXTURES.md §4: single term; multi-term OR; duplicated
# term; absent term; every-doc hot term (df=N edge); punctuation-laden; empty;
# camel/snake variants; unicode
GOLDEN_QUERIES = [
    "return",
    "error",
    "the self value",
    "x x",                      # duplicate term counts twice (search.py:89)
    "zzz_absent_term",
    "return zzz_absent_term",
    "def snake_case_name",
    "camelcasename",
    "!!! value...",
    "",
    "   ",
    "naïve",
    "404 http",
]


@pytest.fixture(scope="module")
def oracle():
    tbl = synthetic_corpus_table(0, 600)
    docs = [
        (stable_doc_id(r, p, c), t)
        for r, p, c, t in zip(
            tbl["repo"].to_pylist(), tbl["path"].to_pylist(),
            tbl["commit"].to_pylist(), tbl["content"].to_pylist(),
        )
    ]
    return OracleIndex(docs)


@pytest.fixture(scope="module")
def index(built_index):
    return PostingsIndex(built_index)


@pytest.mark.parametrize("query", GOLDEN_QUERIES)
def test_rank_identical_vs_oracle(index, oracle, query):
    ids, scores = score_reference(index, query)
    expected = oracle.search(query, page=1, per_page=10**9)["results"]
    assert list(ids) == [r["doc_id"] for r in expected]
    np.testing.assert_allclose(
        scores, [r["score"] for r in expected], rtol=1e-9
    )


@pytest.mark.parametrize("page,per_page", [(1, 10), (2, 10), (1, 3), (5, 7), (99, 10)])
def test_pagination_and_snippets(built_index, oracle, page, per_page):
    q = "the self value"
    env = search_one(built_index, q, page=page, per_page=per_page)
    exp = oracle.search(q, page=page, per_page=per_page)
    assert env["total_results"] == exp["total_results"]
    assert env["total_pages"] == exp["total_pages"]
    assert [r["doc_id"] for r in env["results"]] == [r["doc_id"] for r in exp["results"]]
    assert [r["snippet"] for r in env["results"]] == [r["snippet"] for r in exp["results"]]


@pytest.mark.parametrize("query", [q for q in GOLDEN_QUERIES if q.strip()])
@pytest.mark.parametrize("k", [1, 5, 50])
def test_wand_equals_taat(index, query, k):
    """bm25_wand top-k ≡ TAAT top-k ≡ the reference BM25's top-k, ids and
    scores bit for bit."""
    want = score_bm25_reference(index, query, top_k=k)
    assert_bit_identical(score_bm25_taat(index, query, top_k=k), want, query)
    assert_bit_identical(score_bm25_wand(index, query, top_k=k), want, query)


def test_bm25_scores_positive_and_sorted(index):
    ids, scores = score_bm25_taat(index, "merge shard block")
    assert np.all(scores[:-1] >= scores[1:] - 1e-15)
    assert np.all(scores > 0)


def test_actor_pool_batch_search(ray_session, built_index, oracle):
    """search_batch through map_batches(QueryScorer, concurrency=2)."""
    queries = [
        {"query_id": i, "query": q, "page": 1, "per_page": 10}
        for i, q in enumerate(GOLDEN_QUERIES)
    ]
    out = search_batch(built_index, queries, mode="reference", concurrency=2)
    rows = out.take_all()
    by_q = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for i, q in enumerate(GOLDEN_QUERIES):
        got = sorted(by_q.get(i, []), key=lambda r: r["rank"])
        exp = oracle.search(q, page=1, per_page=10)
        assert [r["doc_id"] for r in got] == [r["doc_id"] for r in exp["results"]], q
        if got:
            assert got[0]["total_results"] == exp["total_results"]
            assert got[0]["url"] != ""


def test_batch_paging_clamps_like_search_one(ray_session, built_index):
    """The map_batches stage clamps paging as HTTP and the oracle do: a
    zero or negative page / per_page becomes 1 (only a null one takes its
    default), and ranks continue from the page's first position."""
    q = "the self value"
    shapes = [(0, 0), (-3, 7), (2, 10), (99, 10)]
    queries = [{"query_id": i, "query": q, "page": p, "per_page": pp}
               for i, (p, pp) in enumerate(shapes)]
    rows = search_batch(built_index, queries, concurrency=1).take_all()
    for i, (p, pp) in enumerate(shapes):
        got = sorted((r for r in rows if r["query_id"] == i),
                     key=lambda r: r["rank"])
        want = search_one(built_index, q, page=p, per_page=pp)
        lo = (want["page"] - 1) * want["per_page"]
        assert [r["rank"] for r in got] == list(
            range(lo + 1, lo + 1 + len(want["results"]))), (p, pp)
        assert [{k: r[k] for k in want["results"][0]} for r in got] == \
            want["results"], (p, pp)
        for r in got:
            assert (r["total_results"], r["total_pages"]) == (
                want["total_results"], want["total_pages"])


@pytest.mark.parametrize("query", GOLDEN_QUERIES)
def test_wand_envelope_equals_bm25_with_exact_totals(built_index, index, query):
    """bm25_wand is bm25: same envelopes on pages 1, 2 and past the end,
    and total_results is the exact match count, not a bound."""
    n = len(score_bm25_taat(index, query)[0])
    for page in (1, 2, (n + 9) // 10 + 3):
        wand = search_one(built_index, query, page=page, mode="bm25_wand")
        assert wand == search_one(built_index, query, page=page, mode="bm25")
        assert wand["total_results"] == n
        assert wand["total_pages"] == (n + 9) // 10


def test_unknown_mode_raises_at_construction(built_index):
    from uci_searchengine_ray.pipelines.search import QueryScorer

    with pytest.raises(ValueError, match="unknown scoring mode"):
        QueryScorer(built_index, mode="bm25_blockmax")


def test_wand_page_past_end_total(built_index, monkeypatch):
    """A page past the last hit still reports the exact totals, from the
    same single scoring call as its (empty) page."""
    from uci_searchengine_ray.pipelines import search as S

    q = "the self value"
    scorer = S.QueryScorer(built_index, mode="bm25_wand")
    n = len(score_bm25_taat(scorer.index, q)[0])
    assert n > scorer.top_k  # the cut must bite for the case to mean much
    last = (n + 9) // 10
    valid = S.search_with_scorer(scorer, q, page=last, per_page=10)
    assert valid["results"] and valid["total_results"] == n

    calls = []
    real = S.score_bm25_wand

    def counted(*a, **kw):
        calls.append(kw.get("top_k"))
        return real(*a, **kw)

    monkeypatch.setattr(S, "score_bm25_wand", counted)
    past = S.search_with_scorer(scorer, q, page=last + 25, per_page=10)
    assert past["results"] == []
    assert past["total_results"] == n
    assert past["total_pages"] == valid["total_pages"]
    assert len(calls) == 1
