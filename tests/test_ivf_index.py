"""Persisted IVF vector index: build once, query many, recall vs brute
force, and the snapshot cache behind the IVF gates."""

import os

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
EMB = os.path.join(SF, "embeddings.parquet")


@pytest.fixture(scope="module")
def ivf_index(ray_session, tmp_path_factory):
    from uci_searchengine_ray.stages.similarity import build_ivf_index

    idx = str(tmp_path_factory.mktemp("ivf") / "index")
    build_ivf_index(EMB, idx, n_centroids=8, store_probe=2)
    return idx


def _sorted(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_ivf_index_layout_and_meta(ivf_index):
    from uci_searchengine_ray.stages.similarity import load_ivf_index

    fs, root, cents, meta = load_ivf_index(ivf_index)
    assert cents.shape == (8, meta["dim"])
    assert meta["store_probe"] == 2 and meta["n_vectors"] > 0
    buckets = [d for d in os.listdir(os.path.join(ivf_index, "assignments"))
               if d.startswith("bucket=")]
    assert len(buckets) >= 2  # hive-partitioned by centroid


def test_indexed_recall_vs_bruteforce(ray_session, ivf_index):
    """Multi-probe IVF keeps most of the exact top-k."""
    import ray.data
    from uci_searchengine_ray.stages.similarity import (
        ann_bruteforce_topk,
        ann_ivf_topk,
        load_query_matrix,
    )

    qids, qmat = load_query_matrix(EMB, 5)
    ds = ray.data.read_parquet(EMB, columns=["vec_id", "embedding"])
    exact = ann_bruteforce_topk(ds, qids, qmat, k=10).to_pandas()
    approx = ann_ivf_topk(ivf_index, qids, qmat, k=10, n_probe=4).to_pandas()
    got = 0
    want = 0
    for qid in qids:
        e = set(exact[exact.query_id == qid].vec_id)
        a = set(approx[approx.query_id == qid].vec_id)
        got += len(e & a)
        want += len(e)
    assert got / want >= 0.6  # multi-probe recall floor


def test_build_once_query_many(ray_session, ivf_index):
    """A second query round reuses the snapshot — no retrain, no rewrite."""
    from uci_searchengine_ray.stages.similarity import (
        ann_ivf_topk,
        load_query_matrix,
    )

    mtimes = {}
    for dirpath, _, files in os.walk(ivf_index):
        for f in files:
            p = os.path.join(dirpath, f)
            mtimes[p] = os.path.getmtime(p)
    qids, qmat = load_query_matrix(EMB, 3)
    r1 = _sorted(ann_ivf_topk(ivf_index, qids, qmat, k=5).to_pandas())
    r2 = _sorted(ann_ivf_topk(ivf_index, qids, qmat, k=5).to_pandas())
    pd.testing.assert_frame_equal(r1, r2)
    for p, t in mtimes.items():
        assert os.path.getmtime(p) == t  # snapshot untouched by queries


def _write_emb(path, n, seed):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(
                    [list(map(float, r)) for r in rng.normal(size=(n, 6))],
                    pa.list_(pa.float32()),
                ),
            }
        ),
        str(path),
    )


def _fresh_ann_ivf(sf_dir, index_dir):
    """The ann_ivf gate's answer from a newly built index."""
    from uci_searchengine_ray.pipelines import dedup_sim
    from uci_searchengine_ray.stages import similarity

    emb = os.path.join(sf_dir, "embeddings.parquet")
    similarity.build_ivf_index(emb, index_dir)
    qids, qmat = similarity.load_query_matrix(emb, dedup_sim.ANN_QUERIES)
    return similarity.ann_ivf_topk(
        index_dir, qids, qmat, k=dedup_sim.ANN_K
    ).to_pandas()


def test_ann_ivf_cache_invalidates_on_corpus_change(
    ray_session, tmp_path, monkeypatch
):
    """The snapshot cache behind the IVF gates is keyed by the corpus path
    AND size+mtime: regenerating the embeddings at the same path must
    rebuild the index, not answer from the stale snapshot."""
    from uci_searchengine_ray.pipelines import dedup_sim

    monkeypatch.setattr(dedup_sim, "IVF_CACHE_ROOT", str(tmp_path / "cache"))
    sf = tmp_path / "sf"
    sf.mkdir()
    _write_emb(sf / "embeddings.parquet", 64, seed=1)
    a = dedup_sim.ann_ivf(str(sf)).to_pandas()
    _write_emb(sf / "embeddings.parquet", 80, seed=2)  # same path, new content
    b = dedup_sim.ann_ivf(str(sf)).to_pandas()
    # stale snapshot would replay corpus-1 neighbors; fresh build must see
    # corpus 2 (different cosines; 80 > 64 vec ids available)
    assert not a.equals(b)
    fresh = _fresh_ann_ivf(str(sf), str(tmp_path / "fresh"))
    pd.testing.assert_frame_equal(_sorted(b), _sorted(fresh))


def test_ivf_cache_sees_rewritten_nested_file(
    ray_session, tmp_path, monkeypatch
):
    """A directory corpus is signed file by file, nested partition files
    included: rewriting ``part=0/a.parquet`` in place (the top-level
    listing unchanged) must rebuild the index."""
    from uci_searchengine_ray.pipelines import dedup_sim

    monkeypatch.setattr(dedup_sim, "IVF_CACHE_ROOT", str(tmp_path / "cache"))
    sf = tmp_path / "sf"
    part = sf / "embeddings.parquet" / "part=0"
    part.mkdir(parents=True)
    _write_emb(part / "a.parquet", 64, seed=1)
    dedup_sim.ann_ivf(str(sf))  # builds and caches the first index
    _write_emb(part / "a.parquet", 64, seed=2)
    b = dedup_sim.ann_ivf(str(sf)).to_pandas()
    fresh = _fresh_ann_ivf(str(sf), str(tmp_path / "fresh"))
    pd.testing.assert_frame_equal(_sorted(b), _sorted(fresh))


def test_ivf_cache_keeps_one_snapshot_per_corpus_path(
    ray_session, tmp_path, monkeypatch
):
    """Each corpus version builds a new snapshot and removes the path's
    older ones: after two rewrites one snapshot of the path remains, and it
    answers as a fresh build.  Another corpus's snapshot and a dir that
    does not hold ``ivf_meta.json`` are left alone."""
    from uci_searchengine_ray.pipelines import dedup_sim

    cache = tmp_path / "cache"
    monkeypatch.setattr(dedup_sim, "IVF_CACHE_ROOT", str(cache))
    other = tmp_path / "other"
    other.mkdir()
    _write_emb(other / "embeddings.parquet", 48, seed=7)
    kept = dedup_sim._ivf_index(str(other))
    sf = tmp_path / "sf"
    sf.mkdir()
    _write_emb(sf / "embeddings.parquet", 64, seed=1)
    first = dedup_sim._ivf_index(str(sf))
    stray = first.rsplit("_", 1)[0] + "_notmine"
    os.makedirs(stray)
    for n, seed in ((72, 2), (80, 3)):
        _write_emb(sf / "embeddings.parquet", n, seed=seed)
        b = dedup_sim.ann_ivf(str(sf)).to_pandas()
    snaps = sorted(str(p) for p in cache.glob("ivf_index_*")
                   if (p / "ivf_meta.json").exists())
    latest = dedup_sim._ivf_index(str(sf))
    assert latest != first and sorted([kept, latest]) == snaps
    assert os.path.isdir(stray)
    fresh = _fresh_ann_ivf(str(sf), str(tmp_path / "fresh"))
    pd.testing.assert_frame_equal(_sorted(b), _sorted(fresh))
