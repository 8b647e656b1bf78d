"""BM25 scorers vs the reference BM25 (``tests/bm25_reference.py``): bit-
identical ids AND scores at medium scale with a long-tail vocab (digit
terms), and on random small corpora with an exact score tie across the
top-k cut."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from bm25_reference import assert_bit_identical, score_bm25_reference
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.pipelines.search import (
    PostingsIndex,
    score_bm25_taat,
    score_bm25_wand,
)
from uci_searchengine_ray.sources.corpus import write_synthetic_corpus

QUERIES = [
    "9999 value",              # rare + dense
    "1234 index error",
    "7777 block stream value",
    "parse json value error",
    "get value stream block",
    "return the self",
    "42 877 3001",             # all-rare
    "zzz_absent_term",
    "",
]


@pytest.fixture(scope="module")
def medium_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("wand")
    corpus = str(root / "corpus")
    write_synthetic_corpus(corpus, n_docs=2500, n_files=8)
    snap = str(root / "idx")
    build_index(
        corpus, snap,
        EngineConfig(mode="code", block_size=32, ckpt_groups=1),
        mode="fresh",
    )
    return PostingsIndex(snap)


@pytest.mark.parametrize("k", [1, 5, 10, 50, None])
def test_wand_bit_identical(medium_index, k):
    for q in QUERIES:
        want = score_bm25_reference(medium_index, q, top_k=k)
        assert_bit_identical(score_bm25_taat(medium_index, q, top_k=k), want, q)
        assert_bit_identical(score_bm25_wand(medium_index, q, top_k=k), want, q)


_VOCAB = ["alpha", "beta", "gamma", "delta", "sigma", "omega"]
_words = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=8)


def test_bm25_matches_reference_on_random_corpora(ray_session, tmp_path_factory):
    """Property: over random small corpora, the top-k BM25 equals the
    reference's top-k bit for bit at every k.  Each corpus holds one text
    twice (two files), so those two docs tie exactly on every query; the
    query always contains a word of that text, and one k cuts between the
    two tied docs (the order then rests on doc id alone)."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(docs=st.lists(_words, min_size=0, max_size=8), tie=_words,
           query=st.lists(st.sampled_from(_VOCAB), max_size=3))
    def check(docs, tie, query):
        texts = [" ".join(d) for d in docs] + [" ".join(tie)] * 2
        n = len(texts)
        root = tmp_path_factory.mktemp("prop")
        (root / "c").mkdir()
        pq.write_table(
            pa.table({
                "repo": ["o/r"] * n, "path": [f"f{i}.py" for i in range(n)],
                "commit": ["c"] * n, "lang": ["py"] * n, "content": texts,
            }),
            str(root / "c" / "p.parquet"),
        )
        snap = build_index(
            str(root / "c"), str(root / "idx"),
            EngineConfig(mode="code", block_size=2, ckpt_groups=1),
            mode="fresh",
        )
        index = PostingsIndex(snap)
        q = " ".join(query + [tie[0]])
        full = score_bm25_reference(index, q)
        scores = full[1].tolist()
        cuts = [i for i in range(1, len(scores)) if scores[i - 1] == scores[i]]
        assert cuts, "the two copies of the tie text must tie"
        for k in sorted({1, 2, n, *cuts}) + [None]:
            want = score_bm25_reference(index, q, top_k=k)
            assert_bit_identical(score_bm25_taat(index, q, top_k=k), want, q)
            assert_bit_identical(score_bm25_wand(index, q, top_k=k), want, q)

    check()
