"""Randomized whole-operator conformance for the custom relational ops:
seeded random event tables (clustered timestamps, duplicate instants, uneven
users) run through the Ray pipelines AND the driver's oracle SQL — the same
cell-for-cell comparison the correctness gate uses, over inputs nastier than
the driver testdata (ties, empty users, single-event users)."""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from uci_searchengine_ray.stages.keyed import BUCKETS


def _random_events(seed: int, n: int, user_step: int = 1) -> pa.Table:
    """``user_step`` spaces the 7 user ids apart: at a multiple of the
    keyed kernel's bucket count every user lands in one bucket."""
    rng = np.random.default_rng(seed)
    base = 1_700_000_000_000_000  # µs epoch
    # clustered times with repeats: many same-instant events (tie-breaks!)
    ts = base + rng.integers(0, 3 * 3_600_000_000, size=n)
    dup_mask = rng.random(n) < 0.2
    ts[dup_mask] = ts[rng.integers(0, n, size=int(dup_mask.sum()))]
    return pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "ts": pa.array(ts.astype(np.int64)).cast(pa.timestamp("us")),
            "user_id": pa.array(
                rng.integers(0, 7, size=n).astype(np.int64) * user_step
            ),
            "event_type": pa.array(
                rng.choice(["click", "purchase", "view"], size=n).tolist()
            ),
            "value": pa.array(np.round(rng.random(n), 3)),
            "props": pa.array(
                [f'{{"k": {int(v)}}}' for v in rng.integers(0, 50, size=n)]
            ),
        }
    )


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = np.round(df[c].astype(np.float64), 6)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


@pytest.mark.parametrize(
    "seed,user_step",
    [
        pytest.param(11, 1, id="11"),
        pytest.param(23, 1, id="23"),
        pytest.param(47, 1, id="47"),
        # every user in bucket 0: user boundaries inside one bucket call
        pytest.param(11, BUCKETS, id="11-one-bucket"),
    ],
)
def test_random_events_conformance(ray_session, tmp_path, seed, user_step):
    import __ray_entry__ as e
    from uci_searchengine_ray.pipelines import relational

    d = tmp_path / f"sf{seed}"
    d.mkdir()
    pq.write_table(
        _random_events(seed, 800, user_step), str(d / "events.parquet")
    )

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{os.path.join(str(d), 'events.parquet')}')"
    )
    oracles = e.oracle_sql()
    pipelines = {
        "asof_join": relational.purchase_attribution,
        "range_join": relational.clicks_before_purchase,
        "events_sliding": relational.events_sliding,
        "events_hourly": relational.events_hourly,
        "events_sessions": relational.events_sessions,
        "json_extract": relational.events_props_stats,
    }
    for name, fn in pipelines.items():
        mine = _canon(fn(str(d)).to_pandas())
        theirs = _canon(con.execute(oracles[name]).fetchdf())
        assert list(mine.columns) == list(theirs.columns), name
        assert len(mine) == len(theirs), (name, len(mine), len(theirs))
        pd.testing.assert_frame_equal(mine, theirs, obj=name)


def _random_documents(seed: int, n: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    vocab = ["the", "and", "der", "die", "el", "la", "le", "les", "alpha",
             "beta", "gamma", "delta", "code", "index", "merge", "x1", "y2"]
    texts = []
    for i in range(n):
        kind = rng.random()
        if kind < 0.05:
            texts.append("")                      # empty doc
        elif kind < 0.12:
            texts.append(" ".join(rng.choice(vocab, size=2)))  # < k tokens
        elif kind < 0.2:
            texts.append("!!! ??? ... ###")       # punctuation only
        else:
            words = rng.choice(vocab, size=int(rng.integers(10, 60)))
            texts.append(" ".join(words))
    # plant exact duplicates
    for _ in range(n // 10):
        a, b = rng.integers(0, n, size=2)
        texts[a] = texts[b]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.large_string()),
            "lang": pa.array(rng.choice(["en", "de", "es", "fr"], size=n).tolist()),
            "source": pa.array(rng.choice(["s1", "s2", "s3"], size=n).tolist()),
            "n_chars": pa.array(
                np.asarray([len(t) for t in texts], dtype=np.int64)
            ),
        }
    )


@pytest.mark.parametrize("seed", [5, 31])
def test_random_documents_conformance(ray_session, tmp_path, seed):
    import __ray_entry__ as e
    from uci_searchengine_ray.pipelines import analysis, curation, dedup_sim

    d = tmp_path / f"docs{seed}"
    d.mkdir()
    pq.write_table(_random_documents(seed, 300), str(d / "documents.parquet"))

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{os.path.join(str(d), 'documents.parquet')}')"
    )
    oracles = e.oracle_sql()
    # distinct_sources' driver slot now gates the CMS sketch (r5); the
    # per-lang breakdown stays value-tested here with a local oracle
    oracles["distinct_sources"] = """
SELECT lang,
       CAST(count(DISTINCT source) AS BIGINT) AS n_sources,
       CAST(count(*) AS BIGINT) AS n_docs
FROM documents GROUP BY lang
"""
    pipelines = {
        "lang_quality": analysis.lang_quality,
        "token_counts": analysis.token_count_table,
        "fingerprints": analysis.fingerprints,
        "doc_sha256": analysis.doc_sha256,
        "distinct_sources": analysis.distinct_sources,
        "curate": curation.curate,
        "sample_hash": analysis.sample_documents,
        "bigram_counts": analysis.bigram_counts,
        "dedup_exact": dedup_sim.exact_dedup,
        "dedup_simhash": dedup_sim.simhash_pairs,
        "dedup_ngram_jaccard": dedup_sim.ngram_jaccard_pairs,
        "dedup_minhash_lsh": dedup_sim.minhash_lsh_pairs,
        "dedup_components": dedup_sim.dedup_components,
    }
    for name, fn in pipelines.items():
        mine = _canon(fn(str(d)).to_pandas())
        theirs = _canon(con.execute(oracles[name]).fetchdf())
        assert list(mine.columns) == list(theirs.columns), name
        assert len(mine) == len(theirs), (name, len(mine), len(theirs))
        pd.testing.assert_frame_equal(mine, theirs, obj=name)


@pytest.mark.parametrize("seed", [13, 29, 71])
def test_random_embeddings_conformance(ray_session, tmp_path, seed, monkeypatch):
    """ANN + embedding near-dup vs oracles on random vectors with planted
    exact duplicates (cosine ties exercise the rank tie-break)."""
    import __ray_entry__ as e
    from uci_searchengine_ray.pipelines import dedup_sim

    monkeypatch.setattr(dedup_sim, "IVF_CACHE_ROOT", str(tmp_path))

    rng = np.random.default_rng(seed)
    n, dim = 200, 16
    mat = rng.normal(size=(n, dim))
    for _ in range(20):  # planted duplicates → cosine exactly 1.0 pairs
        a, b = rng.integers(0, n, size=2)
        mat[a] = mat[b]
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(
                    [row.astype(np.float32).tolist() for row in mat],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array(np.zeros(n, dtype=np.int32)),
            }
        ),
        str(d / "embeddings.parquet"),
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{os.path.join(str(d), 'embeddings.parquet')}')"
    )
    oracles = e.oracle_sql()
    for name, fn in {
        "ann_bruteforce": dedup_sim.ann_bruteforce,
        "ann_int8": dedup_sim.ann_int8,
        "ann_ivf": dedup_sim.ann_ivf,
        "dedup_embedding": dedup_sim.embedding_dup_pairs,
        "dedup_embedding_ivf": dedup_sim.embedding_dup_pairs_ivf,
    }.items():
        mine = _canon(fn(str(d)).to_pandas())
        theirs = _canon(con.execute(oracles[name]).fetchdf())
        assert list(mine.columns) == list(theirs.columns), name
        assert len(mine) == len(theirs), (name, len(mine), len(theirs))
        pd.testing.assert_frame_equal(mine, theirs, obj=name)
