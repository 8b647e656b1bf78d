"""Adversarial edge inputs for the session's new gated operators, compared
against the SAME oracle SQL the driver runs: empty/tiny docs, exact-dup
docs, and zero/degenerate embedding vectors (cases absent from the driver
testdata)."""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


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


@pytest.fixture()
def edge_docs_dir(ray_session, tmp_path):
    texts = [
        "",                                   # empty
        "x",                                  # single token
        "shared run one two three four five six seven eight "
        "nine ten eleven twelve thirteen fourteen fifteen sixteen tail_a",
        "shared run one two three four five six seven eight "
        "nine ten eleven twelve thirteen fourteen fifteen sixteen tail_b",
        "shared run one two three four five six seven eight "
        "nine ten eleven twelve thirteen fourteen fifteen sixteen tail_b",
    ]
    d = tmp_path / "edge"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts)),
                "source": pa.array(["s"] * len(texts)),
                "n_chars": pa.array(
                    np.asarray([len(t) for t in texts], np.int64)
                ),
            }
        ),
        str(d / "documents.parquet"),
    )
    return str(d)


def test_edge_docs_new_ops_vs_oracle(edge_docs_dir):
    import __ray_entry__ as e
    from uci_searchengine_ray.pipelines import analysis, cleaning

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{os.path.join(edge_docs_dir, 'documents.parquet')}')"
    )
    oracles = e.oracle_sql()
    for name, fn in [
        ("dup_spans", cleaning.dup_spans),
        ("strip_dup_spans", cleaning.strip_dup_spans),
        ("tfidf_keywords", analysis.tfidf_keywords),
    ]:
        mine = _canon(fn(edge_docs_dir).to_pandas())
        theirs = _canon(con.execute(oracles[name]).fetchdf())
        assert list(mine.columns) == list(theirs.columns), name
        pd.testing.assert_frame_equal(mine, theirs, check_dtype=False), name


def test_degenerate_embeddings_vs_oracle(ray_session, tmp_path):
    """Zero vector (scale 0), constant vector, negatives, and a near-dup
    pair — quantize + int8 ANN must still match the oracle cell-for-cell."""
    import __ray_entry__ as e
    from uci_searchengine_ray.pipelines import dedup_sim

    rng = np.random.default_rng(3)
    base = rng.normal(size=8)
    mat = np.stack(
        [
            np.zeros(8),                  # zero vector
            np.full(8, 0.5),              # constant
            -base,                        # negation
            base,
            base + rng.normal(scale=1e-3, size=8),  # near-dup of base
            rng.normal(size=8) * 100,     # large magnitude
        ]
    ).astype(np.float32)
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(6, dtype=np.int64)),
                "embedding": pa.array(
                    [list(map(float, r)) for r in mat],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array(np.zeros(6, dtype=np.int32)),
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
    for name, fn in [
        ("embedding_quantize", dedup_sim.embedding_quantize),
        ("ann_int8", dedup_sim.ann_int8),
    ]:
        mine = _canon(fn(str(d)).to_pandas())
        theirs = _canon(con.execute(oracles[name]).fetchdf())
        assert list(mine.columns) == list(theirs.columns), name
        pd.testing.assert_frame_equal(mine, theirs, check_dtype=False), name


def test_zero_embedding_kmeans_vs_oracle(ray_session, tmp_path, monkeypatch):
    """ADVICE r3: a zero-norm embedding makes DuckDB's
    list_cosine_similarity -1.0 while the engine guards norm→1 (cosine 0);
    the oracles carry the same guard — pin engine ≡ oracle with a zero
    vector in the table (kmeans assignment, SemDeDup pairs, brute-force
    and IVF top-k, IVF near-dup pairs)."""
    import __ray_entry__ as e
    from uci_searchengine_ray.pipelines import dedup_sim

    monkeypatch.setattr(dedup_sim, "IVF_CACHE_ROOT", str(tmp_path))

    rng = np.random.default_rng(11)
    mat = rng.normal(size=(10, 6))
    mat[3] = 0.0  # zero-norm vector
    mat[7] = mat[2] * 1.5  # guaranteed same-direction pair
    d = tmp_path / "emb0"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(10, dtype=np.int64)),
                "embedding": pa.array(
                    [list(map(float, r)) for r in mat],
                    pa.list_(pa.float32()),
                ),
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
    for name, fn in [
        ("kmeans_clusters", dedup_sim.kmeans_clusters),
        ("semantic_dedup", dedup_sim.semantic_dedup),
        ("ann_bruteforce", dedup_sim.ann_bruteforce),
        ("ann_ivf", dedup_sim.ann_ivf),
        ("dedup_embedding_ivf", dedup_sim.embedding_dup_pairs_ivf),
    ]:
        mine = _canon(fn(str(d)).to_pandas())
        theirs = _canon(con.execute(oracles[name]).fetchdf())
        assert list(mine.columns) == list(theirs.columns), name
        assert not mine.isna().any().any(), name
        pd.testing.assert_frame_equal(mine, theirs, check_dtype=False), name


def test_non_ascii_token_counts_match_reference_tokenizer(
    ray_session, tmp_path
):
    """ADVICE r3: sampling's vectorized ASCII token count must fall back to
    the exact Unicode tokenizer on non-ASCII text, so token_budget_mix /
    pack_sequences agree with every other operator's token counts."""
    from uci_searchengine_ray.functions.tokenizer import tokenize_reference
    from uci_searchengine_ray.pipelines import sampling

    texts = [
        "plain ascii text here",
        "naïve café au lait",          # non-ASCII inside \w runs
        "日本語 テスト",  # CJK-only tokens
        "mixed résumé and ascii",
        "",
    ]
    d = tmp_path / "nonascii"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts)),
            }
        ),
        str(d / "documents.parquet"),
    )
    out = sampling.pack_sequences(str(d)).to_pandas()
    got = dict(zip(out["doc_id"], out["n_tokens"]))
    for i, t in enumerate(texts):
        assert got[i] == len(tokenize_reference(t)), (i, t)
