"""Driver-facing wrappers for the dedup family, similarity search and
multimodal stages over the testdata tables (sf_dir layout)."""

from __future__ import annotations

import os
import shutil
import tempfile

import ray.data

from ..stages import clustering, dedup, multimodal, similarity

NGRAM_K = 3
JACCARD_TAU = 0.2
COSINE_TAU = 0.4
ANN_QUERIES = 5
ANN_K = 10


def _documents(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )


def _embeddings(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )


def exact_dedup(sf_dir: str) -> "ray.data.Dataset":
    return dedup.exact_dedup(_documents(sf_dir))


def ngram_jaccard_pairs(sf_dir: str) -> "ray.data.Dataset":
    return dedup.ngram_jaccard_pairs(_documents(sf_dir), k=NGRAM_K, tau=JACCARD_TAU)


def minhash_lsh_pairs(sf_dir: str) -> "ray.data.Dataset":
    return dedup.minhash_lsh_pairs(
        _documents(sf_dir),
        documents_path=os.path.join(sf_dir, "documents.parquet"),
        k=NGRAM_K,
        tau=JACCARD_TAU,
    )


def simhash_pairs(sf_dir: str) -> "ray.data.Dataset":
    return dedup.simhash_pairs(_documents(sf_dir), max_hamming=3, k=NGRAM_K)


def embedding_dup_pairs(sf_dir: str) -> "ray.data.Dataset":
    return similarity.embedding_dup_pairs(
        os.path.join(sf_dir, "embeddings.parquet"), tau=COSINE_TAU
    )


# root of the persisted IVF snapshots behind both IVF gates
IVF_CACHE_ROOT = tempfile.gettempdir()


def _ivf_index(sf_dir: str) -> str:
    """Persisted IVF index of ``sf_dir``'s embeddings, built once per
    corpus version into ``ivf_index_{path tag}_{version tag}``: the path
    tag hashes the corpus path, the version tag the path, size and mtime
    of every file under the corpus (nested ones too) and
    ``IVF_FORMAT_VERSION``.  A build removes the path's snapshots of other
    versions (only dirs holding ``ivf_meta.json``, which this helper
    writes).  ``build_ivf_index``'s default store_probe is the near-dup
    probe count."""
    import glob
    import hashlib

    from ..state import storage

    def tag(text: str) -> str:
        return hashlib.md5(text.encode(), usedforsecurity=False).hexdigest()[:10]

    emb = os.path.join(sf_dir, "embeddings.parquet")
    fs, path = storage.resolve(emb)
    files = (
        storage.ls_files(fs, path)
        if fs.get_file_info(path).type.name == "Directory"
        else [path]
    )
    sig = "|".join(
        f"{f.path}:{f.size}:{f.mtime_ns}" for f in fs.get_file_info(files)
    )
    prefix = os.path.join(IVF_CACHE_ROOT, f"ivf_index_{tag(path)}_")
    idx = prefix + tag(f"{sig}|{similarity.IVF_FORMAT_VERSION}")
    if not os.path.exists(os.path.join(idx, "ivf_meta.json")):
        similarity.build_ivf_index(emb, idx)
        for old in glob.glob(glob.escape(prefix) + "*"):
            if old != idx and os.path.exists(os.path.join(old, "ivf_meta.json")):
                shutil.rmtree(old, ignore_errors=True)
    return idx


def embedding_dup_pairs_ivf(sf_dir: str) -> "ray.data.Dataset":
    return similarity.embedding_dup_pairs_ivf(_ivf_index(sf_dir), tau=COSINE_TAU)


def ann_bruteforce(sf_dir: str) -> "ray.data.Dataset":
    qids, qmat = similarity.load_query_matrix(
        os.path.join(sf_dir, "embeddings.parquet"), ANN_QUERIES
    )
    return similarity.ann_bruteforce_topk(_embeddings(sf_dir), qids, qmat, k=ANN_K)


def ann_ivf(sf_dir: str) -> "ray.data.Dataset":
    qids, qmat = similarity.load_query_matrix(
        os.path.join(sf_dir, "embeddings.parquet"), ANN_QUERIES
    )
    return similarity.ann_ivf_topk(_ivf_index(sf_dir), qids, qmat, k=ANN_K)


def multimodal_image(sf_dir: str) -> "ray.data.Dataset":
    return multimodal.multimodal_features(_documents(sf_dir), modality="image")


def kmeans_clusters(sf_dir: str) -> "ray.data.Dataset":
    """Distributed k-means assignments over the embeddings table."""
    return clustering.kmeans_assignments(
        os.path.join(sf_dir, "embeddings.parquet")
    )


def semantic_dedup(sf_dir: str) -> "ray.data.Dataset":
    """SemDeDup: same-cluster near-dup pairs at cosine ≥ tau."""
    return clustering.semantic_dedup_pairs(
        os.path.join(sf_dir, "embeddings.parquet")
    )


def dedup_components(sf_dir: str) -> "ray.data.Dataset":
    """Connected components over the n-gram-Jaccard near-dup pairs:
    (doc_id, component=min doc_id of the cluster) for every paired doc."""
    return dedup.components_from_pairs(ngram_jaccard_pairs(sf_dir))


# pairs="auto" crossover (VERDICT r4 #4): controlled A/Bs at 60k/240k docs
# put the exact n-gram path ahead below ~10^5 docs (no LSH band stage to
# amortize) and MinHash-LSH 2.2× faster at 240k with HIGHER mega-dup recall
# (BASELINE.md round 4).  The threshold sits between the measured points,
# read from parquet footer stats only — no data scan.
NEAR_DEDUP_AUTO_LSH_ROWS = 120_000


def _corpus_rows(sf_dir: str) -> int:
    """documents.parquet row count from footer metadata (zero data read)."""
    from ..state.storage import parquet_rows

    return parquet_rows(os.path.join(sf_dir, "documents.parquet"))


def near_dedup_keep(sf_dir: str, pairs: str = "auto") -> "ray.data.Dataset":
    """The operator users actually run: the corpus AFTER near-dedup —
    every doc minus cluster non-representatives (component = min doc_id,
    clusters from near-dup pairs via distributed connected components).
    Output: (doc_id, n_chars) of kept docs.

    ``pairs`` selects the pair source: ``"auto"`` (the default — footer
    row count picks ``ngram`` below ``NEAR_DEDUP_AUTO_LSH_ROWS`` and
    ``minhash`` above, so gate-scale corpora keep the oracle-exact path
    and big corpora get the measured-faster one without a manual flag),
    ``"ngram"`` (exact n-gram Jaccard) or ``"minhash"`` (MinHash-LSH
    candidates + batched exact-Jaccard verification — the 100 TB path).
    At 240k docs
    the LSH path measured 24 s vs 53 s end-to-end (BASELINE.md round 4)
    AND kept-list recall is HIGHER on duplicate-heavy corpora: the exact
    path's hot-shingle guard (dedup.MAX_SHINGLE_DF=200) silently drops
    pair groups of >200-doc shingle families, while the LSH band stage
    star-links mega-groups (MAX_BAND_GROUP fallback) so they still
    collapse — at 240k the exact path found 0 drops where LSH found the
    planted 4,800.  On corpora without mega-families (full LSH recall,
    no capped shingles) the two variants emit identical keep-lists,
    pinned by test.

    Scale shape: the drop set is NOT broadcast (at 100 TB a boilerplate-
    heavy crawl can drop half the corpus) — instead a flag-union groupby
    anti-join: documents project to (doc_id, n_chars, drop=0), component
    non-representatives to (doc_id, 0, drop=1); one hash groupby on doc_id
    (~24 B/row, no text) sums the flags and keeps Sum(drop) == 0 rows.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.keyed import BUCKETS, bucket_groups

    if pairs == "auto":
        pairs = (
            "minhash"
            if _corpus_rows(sf_dir) > NEAR_DEDUP_AUTO_LSH_ROWS
            else "ngram"
        )
    if pairs == "ngram":
        comp = dedup_components(sf_dir)
    elif pairs == "minhash":
        comp = dedup.components_from_pairs(minhash_lsh_pairs(sf_dir))
    else:
        raise ValueError(f"unknown pair source {pairs!r} (auto|ngram|minhash)")

    def drops(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.not_equal(batch["doc_id"], batch["component"]))
        n = t.num_rows
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": pa.array(np.zeros(n, dtype=np.int64)),
                "drop": pa.array(np.ones(n, dtype=np.int64)),
            }
        )

    def tag_docs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": batch["n_chars"].cast(pa.int64()),
                "drop": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"],
    ).map_batches(tag_docs, batch_format="pyarrow", zero_copy_batch=True)

    merged = docs.union(
        comp.map_batches(drops, batch_format="pyarrow", zero_copy_batch=True)
    )

    def keep(group: pa.Table) -> pa.Table:
        """Per doc-bucket: sum drop flags + max n_chars per doc_id in ONE
        sort + segment pass, keep undropped docs — a generic Sum/Max
        aggregate on a ~corpus-cardinality key is the per-group Python
        slow path everywhere else in this repo."""
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        nch = group["n_chars"].to_numpy(zero_copy_only=False)
        dr = group["drop"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids, nch, dr = ids[order], nch[order], dr[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1)
        )
        n_drop = np.add.reduceat(dr, starts)
        n_chars = np.maximum.reduceat(nch, starts)
        sel = n_drop == 0
        return pa.table(
            {
                "doc_id": pa.array(ids[starts[sel]]),
                "n_chars": pa.array(n_chars[sel].astype(np.int64)),
            }
        )

    return bucket_groups(merged, "doc_id", BUCKETS, keep)


def embedding_quantize(sf_dir: str) -> "ray.data.Dataset":
    return similarity.quantize_embeddings(_embeddings(sf_dir))


def ann_int8(sf_dir: str) -> "ray.data.Dataset":
    qids, qmat = similarity.load_query_matrix(
        os.path.join(sf_dir, "embeddings.parquet"), ANN_QUERIES
    )
    return similarity.ann_int8_topk(_embeddings(sf_dir), qids, qmat, k=ANN_K)
