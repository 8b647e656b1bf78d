"""Pure-kernel unit tests: hashing, scoring formulas, text stats, snippets
(no Ray session needed)."""

import hashlib
import math

import numpy as np
import pytest

from uci_searchengine_ray.functions import hashing, scoring, textstats


def test_content_sha256_matches_hashlib():
    s = "def foo(): return 42"
    assert hashing.content_sha256(s) == hashlib.sha256(s.encode()).hexdigest()
    assert hashing.content_sha256_batch(["a", "b"]) == [
        hashlib.sha256(b"a").hexdigest(),
        hashlib.sha256(b"b").hexdigest(),
    ]


def test_stable_doc_id_deterministic_and_63bit():
    a = hashing.stable_doc_id("org/repo", "src/a.py", "c0ffee")
    assert a == hashing.stable_doc_id("org/repo", "src/a.py", "c0ffee")
    assert 0 <= a < 2**63
    assert a != hashing.stable_doc_id("org/repo", "src/b.py", "c0ffee")
    # separator injection cannot collide keys
    assert hashing.stable_doc_id("a", "b/c", "d") != hashing.stable_doc_id(
        "a/b", "c", "d"
    )


def test_term_shard_stable_and_in_range():
    for t in ("return", "naïve", "", "x" * 100):
        s = hashing.term_shard(t, 8)
        assert 0 <= s < 8
        assert s == hashing.term_shard(t, 8)


def test_rolling_fingerprint():
    assert hashing.rolling_fingerprint("") == 0
    a = hashing.rolling_fingerprint("hello world")
    assert a == hashing.rolling_fingerprint("hello world")
    assert a != hashing.rolling_fingerprint("hello worle")
    out = hashing.rolling_fingerprint_batch(["x", "y", "x"])
    assert out[0] == out[2] != out[1]


def test_ref_scoring_formulas():
    # idf = ln(N/(df+1)); can be negative when df+1 > N
    assert scoring.ref_idf(0, 10) == math.log(10.0)
    assert scoring.ref_idf(9, 10) == math.log(1.0)
    assert scoring.ref_idf(10, 10) < 0
    tf = scoring.ref_tf(np.array([2, 3, 1]), np.array([4, 0, 2]))
    np.testing.assert_allclose(tf, [0.5, 0.0, 0.5])  # dl=0 → 0 guard


def test_bm25_properties():
    idf = scoring.bm25_idf(1, 1000)
    s1 = scoring.bm25_term_score(np.array([1]), np.array([100]), idf, 100.0)
    s5 = scoring.bm25_term_score(np.array([5]), np.array([100]), idf, 100.0)
    s_long = scoring.bm25_term_score(np.array([5]), np.array([1000]), idf, 100.0)
    assert 0 < s1 < s5          # tf monotone
    assert s_long < s5          # longer doc penalized


def test_snippet_matches_reference_shape():
    text = "A" * 100 + "needle" + "B" * 300
    s = scoring.build_snippet(text, ["needle"])
    assert s.startswith("...") and s.endswith("...")
    assert "needle" in s
    assert len(s) <= 206
    # no hit → head of text + ellipsis (search.py:52-53)
    assert scoring.build_snippet("short text", ["zzz"]) == "short text"[:200] + "..."
    # hit near start → no leading ellipsis
    assert not scoring.build_snippet("needle " + "C" * 300, ["needle"]).startswith("...")


def test_lang_and_quality_stats():
    en = "the cat and the dog sat in that house it is"
    assert textstats.predict_lang(en) == "en"
    assert textstats.predict_lang("zzz qqq") == "und"
    # tie-break: equal marker hits → lexicographically smallest lang code
    tie = "der the"  # one de marker, one en marker
    assert textstats.predict_lang(tie) == "de"
    q = textstats.quality_stats("Hello, world! x_1")
    assert q["n_tokens"] == 3
    assert q["punct_ratio"] > 0
    assert textstats.quality_stats("")["mean_token_len"] == 0.0


def test_token_counts_and_shingles():
    c = textstats.token_counts("a b-c 12 naïve")
    assert c["ws_tokens"] == 4
    assert textstats.shingles(["a", "b", "c", "d"], 3) == ["a b c", "b c d"]
    assert textstats.shingles(["a"], 3) == []  # short docs: no shingles (matches SQL oracle)
    assert textstats.shingles([], 3) == []
    assert textstats.jaccard(set("ab"), set("ab")) == 1.0
    assert textstats.jaccard(set(), set()) == 1.0
    assert textstats.jaccard(set("a"), set("b")) == 0.0


def test_sql_round_matches_duckdb_on_ties():
    """Half-away-from-zero rounding must match DuckDB ROUND, including the
    exact-binary-tie cases where numpy's banker's rounding differs."""
    import duckdb
    import numpy as np

    from uci_searchengine_ray.functions.rounding import sql_round

    vals = [0.0078125, -0.0078125, 1 / 256, 3 / 256, 0.1234565, 2.5e-7,
            0.5e-6, 1.5, -2.5, 0.0, 123.4567895]
    want = [
        float(duckdb.sql(f"SELECT ROUND(CAST({v!r} AS DOUBLE), 6)").fetchone()[0])
        for v in vals
    ]
    got = [float(sql_round(v, 6)) for v in vals]
    assert got == want
    # np.round would FAIL this on the tie cases (sanity that the test bites)
    assert float(np.round(0.0078125, 6)) != want[0]
