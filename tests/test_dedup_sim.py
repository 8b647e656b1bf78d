"""Dedup family, similarity search and multimodal plumbing tests."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from uci_searchengine_ray.pipelines import dedup_sim
from uci_searchengine_ray.stages import dedup, multimodal, similarity

SF = "/root/testdata/sf0.001"
DOCS_PARQUET = f"{SF}/documents.parquet"


@pytest.fixture(scope="module")
def docs(ray_session):
    return ray.data.read_parquet(DOCS_PARQUET, columns=["doc_id", "text"])


@pytest.fixture()
def planted(ray_session, tmp_path):
    """Tiny corpus with an exact dup pair and a near-dup pair."""
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 5
    near = base.replace("kappa", "lambda", 2)
    other = "one two three four five six seven eight nine ten " * 5
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array([base, base, near, other], pa.string()),
        }
    )
    import pyarrow.parquet as pq

    p = tmp_path / "planted.parquet"
    pq.write_table(tbl, str(p))
    return str(p)


def test_exact_dedup_groups(ray_session, planted):
    ds = ray.data.read_parquet(planted)
    rows = dedup.exact_dedup(ds).take_all()
    by_hash = {r["content_sha256"]: r for r in rows}
    assert len(rows) == 3  # 4 docs, one exact-dup pair
    dup = [r for r in rows if r["n_dups"] == 2]
    assert len(dup) == 1 and dup[0]["keep_id"] == 1


def test_ngram_jaccard_finds_planted(ray_session, planted):
    ds = ray.data.read_parquet(planted)
    rows = dedup.ngram_jaccard_pairs(ds, k=3, tau=0.5).take_all()
    pairs = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in rows}
    assert pairs[(1, 2)] == 1.0          # exact dup
    assert (1, 3) in pairs and pairs[(1, 3)] > 0.5  # near dup
    assert not any(4 in p for p in pairs)


def test_minhash_lsh_recall(ray_session, planted):
    ds = ray.data.read_parquet(planted)
    got = dedup.minhash_lsh_pairs(
        ds, documents_path=planted, k=3, tau=0.5
    ).take_all()
    pairs = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in got}
    exact = {
        (r["doc_a"], r["doc_b"]): r["jaccard"]
        for r in dedup.ngram_jaccard_pairs(ds, k=3, tau=0.5).take_all()
    }
    # verified candidates are a subset of the exact pairs with equal jaccard
    for p, j in pairs.items():
        assert p in exact and abs(exact[p] - j) < 1e-9
    # high-similarity pairs must be recalled (b=16, r=4 → P(miss at j≥0.9)≈0)
    assert (1, 2) in pairs and (1, 3) in pairs


def test_minhash_lsh_on_testdata_subset_of_exact(ray_session, docs):
    got = dedup.minhash_lsh_pairs(
        docs, documents_path=DOCS_PARQUET, k=3, tau=0.2
    ).take_all()
    exact = {
        (r["doc_a"], r["doc_b"]) for r in
        dedup.ngram_jaccard_pairs(docs, k=3, tau=0.2).take_all()
    }
    got_pairs = {(r["doc_a"], r["doc_b"]) for r in got}
    assert got_pairs <= exact


def test_simhash_planted(ray_session, planted):
    ds = ray.data.read_parquet(planted)
    rows = dedup.simhash_pairs(ds, max_hamming=3).take_all()
    pairs = {(r["doc_a"], r["doc_b"]): r["hamming"] for r in rows}
    assert pairs[(1, 2)] == 0            # identical content → identical simhash


def test_simhash64_deterministic():
    h = dedup._shingle_hashes(["a", "b", "c", "d"], 3)
    assert len(h) == 2 and dedup.simhash64(h) == dedup.simhash64(h)
    assert dedup.simhash64(np.array([], dtype=np.uint64)) == 0


def test_shingle_hashes_match_sql_mirror():
    """The vectorized mixer must equal the HUGEINT formula inlined in the
    minhash/simhash oracles: h = ((t0·B + t1)·B + t2) mod 2⁶¹−1 with
    t = md5(token)[:16 hex] mod 2⁶¹−1 — computed here with Python bigints."""
    import hashlib

    p, B = (1 << 61) - 1, 1_000_000_007
    toks = ["alpha", "beta_2", "gamma", "alpha", "beta_2"]
    t = [
        int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big") % p
        for s in toks
    ]
    expect = sorted(
        {((t[i] * B + t[i + 1]) % p * B + t[i + 2]) % p for i in range(3)}
    )
    got = dedup._shingle_hashes(toks, 3)
    assert [int(x) for x in got] == expect
    # short docs: no shingles
    assert len(dedup._shingle_hashes(["a", "b"], 3)) == 0
    assert len(dedup._shingle_hashes([], 3)) == 0


def test_ann_bruteforce_exact(ray_session):
    emb = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    qids, qmat = similarity.load_query_matrix(f"{SF}/embeddings.parquet", 3)
    rows = similarity.ann_bruteforce_topk(emb, qids, qmat, k=5).take_all()
    # verify vs a dense numpy reference
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{SF}/embeddings.parquet")
    ids = tbl["vec_id"].to_numpy()
    mat = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    for qrow, qid in enumerate(qids):
        sims = np.round(nm @ nm[qrow], 6)
        expect = np.lexsort((ids, -sims))[:5]
        got = sorted([r for r in rows if r["query_id"] == qid],
                     key=lambda r: r["rank"])
        assert [r["vec_id"] for r in got] == ids[expect].tolist()


def test_multimodal_plumbing(ray_session, docs):
    out = multimodal.multimodal_features(docs.limit(50), modality="image")
    rows = out.take_all()
    assert len(rows) == 50
    for r in rows[:5]:
        assert 1 <= r["width"] <= 1920 and 1 <= r["height"] <= 1080
        assert r["n_frames"] == 1 and r["duration_s"] == 0.0
        assert len(r["thumb_sha256"]) == 64
    # deterministic across runs
    rows2 = multimodal.multimodal_features(docs.limit(50), modality="image").take_all()
    key = lambda r: r["doc_id"]
    assert sorted(rows, key=key) == sorted(rows2, key=key)


def test_multimodal_video_audio(ray_session, docs):
    v = multimodal.multimodal_features(docs.limit(10), modality="video").take_all()
    assert all(1 <= r["n_frames"] <= 240 for r in v)
    a = multimodal.multimodal_features(docs.limit(10), modality="audio").take_all()
    assert all(r["duration_s"] > 0 for r in a)


def test_embedding_dup_pairs_exact_bucketed(ray_session):
    """Bucket-pair exact near-dup equals the O(n²) reference computation."""
    import pyarrow.parquet as pq

    rows = dedup_sim.embedding_dup_pairs(SF).take_all()
    got = {(r["doc_a"], r["doc_b"]): r["cosine"] for r in rows}

    tbl = pq.read_table(f"{SF}/embeddings.parquet")
    ids = tbl["vec_id"].to_numpy(zero_copy_only=False)
    mat = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    nm = mat / norms
    sims = nm @ nm.T
    want = {}
    for i in range(len(ids)):
        for j in range(len(ids)):
            if ids[i] < ids[j] and sims[i, j] >= dedup_sim.COSINE_TAU:
                want[(int(ids[i]), int(ids[j]))] = round(float(sims[i, j]), 6)
    assert set(got) == set(want)
    for k in want:
        assert abs(got[k] - want[k]) < 1e-9


def test_embedding_dup_pairs_ivf_recall(ray_session, tmp_path, monkeypatch):
    """IVF-bucketed near-dup: subset of exact pairs, recall ≥ 0.6 at 2-probe,
    and every reported cosine matches the exact value."""
    monkeypatch.setattr(dedup_sim, "IVF_CACHE_ROOT", str(tmp_path))
    exact = {
        (r["doc_a"], r["doc_b"]): r["cosine"]
        for r in dedup_sim.embedding_dup_pairs(SF).take_all()
    }
    approx = {
        (r["doc_a"], r["doc_b"]): r["cosine"]
        for r in dedup_sim.embedding_dup_pairs_ivf(SF).take_all()
    }
    assert set(approx) <= set(exact)          # no false positives
    assert len(approx) >= 0.6 * len(exact)    # recall bound
    for k, v in approx.items():
        assert abs(v - exact[k]) < 1e-9


def test_jaccard_verifier_eviction_keeps_current_batch(tmp_path):
    """Cache eviction must never drop ids the CURRENT batch needs: with a
    cache smaller than the batch's working set, every pair still verifies
    (regression: clear() used to drop already-cached ids mid-batch)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from uci_searchengine_ray.stages.dedup import JaccardVerifier

    n = 20
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "text": pa.array(
                [f"tok{i} alpha beta gamma delta epsilon zeta" for i in range(n)],
                pa.large_string(),
            ),
        }
    )
    p = str(tmp_path / "docs.parquet")
    pq.write_table(docs, p)
    v = JaccardVerifier(p, k=3, cache_size=4)  # far below the working set
    # batch 1 caches ids 0..3; batch 2 reuses id 0 plus 10 new ids
    v(pa.table({"doc_a": pa.array([0, 1], pa.int64()),
                "doc_b": pa.array([2, 3], pa.int64())}))
    out = v(pa.table({
        "doc_a": pa.array([0] * 10, pa.int64()),
        "doc_b": pa.array(list(range(5, 15)), pa.int64()),
    }))
    assert out.num_rows == 10
    assert all(0.0 <= j <= 1.0 for j in out["jaccard"].to_pylist())


def test_modmul61_exact_vs_python_ints():
    """The Mersenne-61 modular multiply must equal big-int arithmetic —
    uint64 `*` would wrap the product mod 2^64 first (regression guard for
    the (a·h+b) mod p min-wise family)."""
    import numpy as np

    from uci_searchengine_ray.stages.dedup import _MERSENNE, _modmul61

    p = int(_MERSENNE)
    rng = np.random.default_rng(7)
    x = rng.integers(0, p, size=5000, dtype=np.uint64)
    y = rng.integers(0, p, size=5000, dtype=np.uint64)
    got = _modmul61(x, y)
    for i in rng.integers(0, len(x), 500):
        assert int(got[i]) == (int(x[i]) * int(y[i])) % p
    for a in (0, 1, p - 1, p - 2, 1 << 60, (1 << 32) - 1):
        for b in (0, 1, p - 1, (1 << 60) + 12345):
            assert int(_modmul61(np.uint64([a]), np.uint64([b]))[0]) == (a * b) % p


def test_band_group_star_fallback_keeps_mega_cluster_connected(ray_session):
    """A duplicate cluster larger than MAX_BAND_GROUP must still come out
    connected (star to the representative), not silently dropped."""
    import numpy as np
    import pyarrow as pa

    from uci_searchengine_ray.stages.dedup import (
        MAX_BAND_GROUP,
        _int_pairs_for_bucket,
        _simhash_pairs_for_bucket,
    )

    n = MAX_BAND_GROUP + 10
    group = pa.table(
        {
            "band_key": pa.array([12345] * n, pa.int64()),
            "doc_id": pa.array(list(range(100, 100 + n)), pa.int64()),
        }
    )
    out = _int_pairs_for_bucket(
        group, "band_key", carry_sizes=False,
        max_group=MAX_BAND_GROUP, star_beyond=True,
    )
    assert out.num_rows == n - 1  # star, not O(n^2), not zero
    assert set(out["doc_a"].to_pylist()) == {100}  # min doc_id is the rep
    assert len(set(out["doc_b"].to_pylist())) == n - 1
    # without the fallback (the n-gram hot-shingle guard) the group drops
    assert _int_pairs_for_bucket(
        group, "band_key", carry_sizes=False
    ).num_rows == 0
    # the simhash chunk groups take the same star past MAX_BAND_GROUP
    sim = _simhash_pairs_for_bucket(
        pa.table(
            {
                "ckey": group["band_key"],
                "doc_id": group["doc_id"],
                "simhash": pa.array([-(2**40)] * n, pa.int64()),
            }
        ),
        max_hamming=3,
    )
    assert sim.num_rows == n - 1
    assert set(sim["doc_a"].to_pylist()) == {100}
    assert sim["doc_b"].to_pylist() == list(range(101, 100 + n))
    assert set(sim["hamming"].to_pylist()) == {0}


def test_components_union_find(ray_session):
    """Chain a-b-c + separate pair (d,e): two components labeled by min id,
    regardless of pair order."""
    import pyarrow as pa

    import ray
    from uci_searchengine_ray.stages.dedup import components_from_pairs

    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([30, 10, 50, 20], pa.int64()),
        "doc_b": pa.array([20, 20, 40, 10], pa.int64()),  # dup edge too
    }))
    out = components_from_pairs(pairs).to_pandas().sort_values("doc_id")
    got = dict(zip(out["doc_id"], out["component"]))
    assert got == {10: 10, 20: 10, 30: 10, 40: 40, 50: 40}


def _components_dict(pairs_table, tail_threshold=2_000_000):
    """tail_threshold=0 forces the distributed star rounds; the default
    takes the single-task vectorized tail path — tests run BOTH."""
    import ray
    from uci_searchengine_ray.stages.dedup import components_from_pairs

    out = components_from_pairs(
        ray.data.from_arrow(pairs_table), tail_threshold=tail_threshold
    ).to_pandas()
    if out.empty:  # Ray's to_pandas drops columns on zero-row datasets
        return {}
    out = out.sort_values("doc_id")
    return dict(zip(out["doc_id"], out["component"]))


@pytest.mark.parametrize("tail", [0, 2_000_000])
def test_components_path_graph(ray_session, tail):
    """A path graph is the worst case for naive min-label propagation
    (diameter rounds); the alternating star rounds must still converge and
    label every node with the path's minimum."""
    import pyarrow as pa

    n = 24
    tbl = pa.table({
        # path 100-101-...-123, edges shuffled and some reversed
        "doc_a": pa.array(
            [100 + i if i % 3 else 101 + i for i in range(n - 1)], pa.int64()
        ),
        "doc_b": pa.array(
            [101 + i if i % 3 else 100 + i for i in range(n - 1)], pa.int64()
        ),
    })
    got = _components_dict(tbl, tail_threshold=tail)
    assert got == {100 + i: 100 for i in range(n)}


@pytest.mark.parametrize("tail", [0, 2_000_000])
def test_components_star_linked_mega_cluster(ray_session, tail):
    """The MAX_BAND_GROUP path star-links a mega duplicate group to its
    min-doc_id representative instead of emitting O(n²) pairs; components
    must collapse that star plus a bridge edge into ONE cluster."""
    import numpy as np
    import pyarrow as pa

    n = 300
    reps = np.full(n, 1000, dtype=np.int64)
    members = np.arange(1001, 1001 + n, dtype=np.int64)
    # bridge the star's last member to a second small cluster {50, 60}
    tbl = pa.table({
        "doc_a": pa.array(np.concatenate((reps, [50, int(members[-1])]))),
        "doc_b": pa.array(np.concatenate((members, [60, 50]))),
    })
    got = _components_dict(tbl, tail_threshold=tail)
    assert set(got.values()) == {50}
    assert len(got) == n + 3  # rep + members + {50, 60}


@pytest.mark.parametrize("tail", [0, 2_000_000])
def test_components_empty_and_duplicate_edges(ray_session, tail):
    import pyarrow as pa

    empty = pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
    })
    assert _components_dict(empty, tail_threshold=tail) == {}
    # duplicate + reversed + self-loop edges collapse to one component
    tbl = pa.table({
        "doc_a": pa.array([7, 8, 7, 9, 9], pa.int64()),
        "doc_b": pa.array([8, 7, 8, 9, 7], pa.int64()),
    })
    assert _components_dict(tbl, tail_threshold=tail) == {7: 7, 8: 7, 9: 7}


@pytest.mark.parametrize("tail", [0, 2_000_000])
def test_components_random_graphs_match_union_find(ray_session, tail):
    """Randomized exactness: alternating star rounds must equal a plain
    union-find on arbitrary graphs (mixed components, rings, chains,
    isolated pairs), across several seeds."""
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(7)
    for trial in range(3):
        n_nodes = int(rng.integers(20, 80))
        n_edges = int(rng.integers(n_nodes // 2, n_nodes * 2))
        nodes = rng.choice(np.arange(1000, 1000 + n_nodes * 7, 7),
                           size=n_nodes, replace=False)
        a = rng.choice(nodes, size=n_edges)
        b = rng.choice(nodes, size=n_edges)
        keep = a != b
        a, b = a[keep], b[keep]
        if not len(a):
            continue
        # reference: union-find by min
        parent: dict = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for x, y in zip(a.tolist(), b.tolist()):
            rx, ry = find(x), find(y)
            if rx != ry:
                lo, hi = (rx, ry) if rx < ry else (ry, rx)
                parent[hi] = lo
        touched = sorted(set(a.tolist()) | set(b.tolist()))
        expect = {x: find(x) for x in touched}

        got = _components_dict(pa.table({
            "doc_a": pa.array(a, type=pa.int64()),
            "doc_b": pa.array(b, type=pa.int64()),
        }), tail_threshold=tail)
        assert got == expect, f"trial {trial}"


def test_near_dedup_keep_planted(ray_session, tmp_path):
    """Planted near-dup cluster {1,2,3}: keep-list = representative (min
    doc_id 1) + the unpaired doc 4, via the flag-union groupby anti-join."""
    import os

    import pyarrow.parquet as pq

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 5
    near = base.replace("kappa", "lambda", 2)
    other = "one two three four five six seven eight nine ten " * 5
    d = tmp_path / "ndk"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array([base, base, near, other], pa.string()),
                "n_chars": pa.array(
                    [len(base), len(base), len(near), len(other)], pa.int64()
                ),
            }
        ),
        os.path.join(str(d), "documents.parquet"),
    )
    out = dedup_sim.near_dedup_keep(str(d)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 4]
    assert sorted(out["n_chars"]) == sorted([len(base), len(other)])


def test_near_dedup_keep_conformance_sf(ray_session):
    """sf0.001 conformance vs the recursive-CTE anti-join oracle."""
    import os

    import duckdb
    import pandas as pd

    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{DOCS_PARQUET}')"
    )
    mine = dedup_sim.near_dedup_keep(SF).to_pandas()
    theirs = con.execute(e.oracle_sql()["near_dedup_keep"]).fetchdf()
    mine = mine.sort_values(["doc_id"]).reset_index(drop=True)
    theirs = theirs.sort_values(["doc_id"]).reset_index(drop=True)
    assert len(mine) > 0
    pd.testing.assert_frame_equal(
        mine[["doc_id", "n_chars"]],
        theirs[["doc_id", "n_chars"]],
        check_dtype=False,
    )


def test_ann_int8_recall_vs_exact(ray_session):
    """int8-quantized brute-force ANN must retrieve nearly the same top-k
    as exact float cosine on the driver testdata — the quality pin for the
    bandwidth tier (quantization is ~1/255 relative error per element, so
    only near-tied neighbors can swap)."""
    from uci_searchengine_ray.pipelines import dedup_sim

    sf = "/root/testdata/sf0.01"
    exact = dedup_sim.ann_bruteforce(sf).to_pandas()
    quant = dedup_sim.ann_int8(sf).to_pandas()
    recalls = []
    for qid in exact["query_id"].unique():
        ex = set(exact[exact.query_id == qid]["vec_id"])
        qu = set(quant[quant.query_id == qid]["vec_id"])
        recalls.append(len(ex & qu) / len(ex))
    assert np.mean(recalls) >= 0.8, recalls
    # the self-match (rank 1, the query itself) must always survive
    r1 = quant[quant["rank"] == 1]
    assert (r1["query_id"].to_numpy() == r1["vec_id"].to_numpy()).all()


def test_near_dedup_keep_minhash_variant_matches_ngram(ray_session):
    """The LSH-sourced keep-list (the 100 TB path) equals the exact
    n-gram-sourced one when LSH recall is full (candidates are verified
    with exact Jaccard, so only recall can differ)."""
    import pandas as pd

    from uci_searchengine_ray.pipelines import dedup_sim

    sf = "/root/testdata/sf0.001"
    a = (
        dedup_sim.near_dedup_keep(sf)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        dedup_sim.near_dedup_keep(sf, pairs="minhash")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)

    with pytest.raises(ValueError, match="ngram|minhash"):
        dedup_sim.near_dedup_keep(sf, pairs="simhash")


def test_near_dedup_keep_auto_switch_point(ray_session, tmp_path, monkeypatch):
    """pairs="auto" resolves from footer row counts: ngram at/below the
    crossover (keeps the oracle-exact path at gate scale), minhash above.
    Pinned by spying the component source each resolution picks."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from uci_searchengine_ray.pipelines import dedup_sim

    d = tmp_path / "auto"
    d.mkdir()
    texts = [f"w{i}a w{i}b w{i}c w{i}d w{i}e w{i}f w{i}g" for i in range(40)]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(40), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )
    assert dedup_sim._corpus_rows(str(d)) == 40

    picked = {}

    def spy_ngram(sf_dir):
        picked["src"] = "ngram"
        return real_ngram(sf_dir)

    def spy_minhash(sf_dir):
        picked["src"] = "minhash"
        return real_minhash(sf_dir)

    real_ngram = dedup_sim.dedup_components
    real_minhash = dedup_sim.minhash_lsh_pairs
    monkeypatch.setattr(dedup_sim, "dedup_components", spy_ngram)
    monkeypatch.setattr(dedup_sim, "minhash_lsh_pairs", spy_minhash)

    out = dedup_sim.near_dedup_keep(str(d)).to_pandas()
    assert picked["src"] == "ngram"  # 40 rows ≤ crossover → exact path
    assert len(out) == 40  # nothing near-duplicated

    monkeypatch.setattr(dedup_sim, "NEAR_DEDUP_AUTO_LSH_ROWS", 10)
    out2 = dedup_sim.near_dedup_keep(str(d)).to_pandas()
    assert picked["src"] == "minhash"  # 40 rows > lowered crossover → LSH
    assert sorted(out2["doc_id"]) == sorted(out["doc_id"])
