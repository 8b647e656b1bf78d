"""Mergeable cardinality sketch: HyperLogLog approximate-distinct over a
Dataset column — the 100 TB answer to "how many distinct tokens / urls /
shingles?" without the all-to-all shuffle an exact ``groupby``/``unique``
costs (Flajolet et al. 2007, "HyperLogLog: the analysis of a near-optimal
cardinality estimation algorithm").

Shape: one streaming ``map_batches`` pass emits ONE register row per block
(2^p uint8 registers ≈ 4 KB at p=12); a bucketed elementwise-max groupby
tree-reduces millions of block rows to ``num_buckets`` rows, and the driver
folds those into the estimate — driver state is O(num_buckets · 2^p) bytes,
independent of the data.  Registers merge by elementwise max, so the sketch
is also the right accumulator for incremental corpora (union = max).

Error: the standard 1.04/√m relative standard error (≈1.6 % at p=12), with
the linear-counting small-range correction.  Hashing is the same md5-head
family as the shingle pipelines (stable across runs and parallelism, so the
estimate is DETERMINISTIC for a given input — pinned by tests).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

HLL_P = 12  # 4096 registers, RSE ≈ 1.6%


# per-process memo (the dedup._token_hashes pattern, ADVICE r4): values —
# terms, urls — repeat heavily across blocks, so md5 runs once per DISTINCT
# value per worker, not once per occurrence
_HASH64_CACHE: dict = {}
_HASH64_CACHE_MAX = 2_000_000


def _hash64(values) -> np.ndarray:
    """Stable 64-bit hashes of arbitrary values (md5 head, like
    ``dedup._token_hashes`` but full-width — HLL needs uniform 64-bit),
    memoized per process."""
    import hashlib

    cache = _HASH64_CACHE
    if len(cache) > _HASH64_CACHE_MAX:
        cache.clear()
    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        # key the memo by the SERIALIZED form, not the raw value: python
        # dicts equate 1 == 1.0 == True, which would alias md5('1') to
        # md5('1.0') across mixed-typed columns in one worker
        b = v if isinstance(v, bytes) else str(v).encode("utf-8")
        h = cache.get(b)
        if h is None:
            h = int.from_bytes(
                hashlib.md5(b, usedforsecurity=False).digest()[:8], "big"
            )
            cache[b] = h
        out[i] = h
    return out


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: re-spread values whose high bits are not
    uniform (e.g. the 61-bit cached token hashes) into uniform 64-bit —
    HLL's register index comes from the TOP p bits."""
    x = np.asarray(x, dtype=np.uint64).copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _registers_from_hashes(h: np.ndarray, p: int) -> np.ndarray:
    """2^p uint8 registers from a batch of 64-bit hashes: register index =
    top p bits, rho = 1 + leading zeros of the remaining (64-p) bits,
    register = max rho.  Vectorized: rho via the bit length of the
    remainder, max via ``np.maximum.at``."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if not len(h):
        return regs
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    # suffix moved to the top bits, low p bits padded with ones so rest>0
    # and an all-zero suffix yields exactly the rho cap of 64-p+1
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
    # floor(log2(rest)) via binary shift walk (float log2 is unsafe at 64
    # bits); leading zeros = 63 - floor(log2), rho = leading zeros + 1
    width = np.zeros(len(h), dtype=np.uint8)
    cur = rest.copy()
    for s in (32, 16, 8, 4, 2, 1):
        mask = cur >= (np.uint64(1) << np.uint64(s))
        width[mask] += s
        cur = np.where(mask, cur >> np.uint64(s), cur)
    rho = (64 - width).astype(np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def _estimate(regs: np.ndarray) -> float:
    """Bias-corrected HLL estimate with the linear-counting small-range
    branch (the classic two-regime estimator)."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        return m * np.log(m / zeros)  # linear counting
    return float(est)


def approx_distinct(
    ds: "ray.data.Dataset",
    col: str,
    p: int = HLL_P,
    num_buckets: int = 16,
    explode=None,
) -> float:
    """Approximate distinct count of ``col`` (or of the values produced by
    ``explode(batch) -> list`` when given — e.g. tokens-per-doc).  An
    ``explode`` returning a ``np.uint64`` array is treated as PRE-HASHED
    uniform 64-bit values (the vectorized hot path — see
    ``analysis.approx_distinct_tokens``).  One streaming pass; the
    exchange is ``blocks`` register rows tree-reduced through
    ``num_buckets`` groups; the driver folds ``num_buckets`` 4 KB rows."""
    m = 1 << p

    def block_regs(batch: pa.Table) -> pa.Table:
        values = (
            explode(batch)
            if explode is not None
            else batch[col].to_pylist()
        )
        h = (
            values
            if isinstance(values, np.ndarray) and values.dtype == np.uint64
            else _hash64(values)
        )
        regs = _registers_from_hashes(h, p)
        # bucket by register-content hash so the max-combine tree fans in
        b = int(regs.sum()) % num_buckets
        return pa.table(
            {
                "bucket": pa.array([b], pa.int32()),
                "regs": pa.array([regs.tobytes()], pa.binary()),
            }
        )

    def combine(group: pa.Table) -> pa.Table:
        acc = np.zeros(m, dtype=np.uint8)
        for r in group["regs"].to_pylist():
            np.maximum(acc, np.frombuffer(r, dtype=np.uint8), out=acc)
        return pa.table({"regs": pa.array([acc.tobytes()], pa.binary())})

    rows = (
        ds.map_batches(block_regs, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(combine, batch_format="pyarrow")
        .take_all()
    )
    acc = np.zeros(m, dtype=np.uint8)
    for r in rows:
        np.maximum(acc, np.frombuffer(r["regs"], dtype=np.uint8), out=acc)
    return _estimate(acc)


def merge_registers(reg_blobs) -> np.ndarray:
    """Union of serialized sketches (elementwise max) — incremental-corpus
    accumulation."""
    its = [np.frombuffer(b, dtype=np.uint8) for b in reg_blobs]
    acc = np.zeros(len(its[0]), dtype=np.uint8)
    for r in its:
        np.maximum(acc, r, out=acc)
    return acc


# ---------------------------------------------------------------------------
# count-min sketch + heavy hitters (approximate top-k without a term shuffle)
# ---------------------------------------------------------------------------

CMS_D = 4        # hash rows
CMS_W = 1 << 14  # counters per row (16384): eps ≈ 2/W over-estimate bound
HH_CANDIDATES = 256  # heavy_hitters: local top values kept per block
HH_BUCKETS = 8  # heavy_hitters: width of the partial-sketch SUM tree


def _salt(j: int) -> np.uint64:
    """Per-row salt, masked to 64 bits (np.uint64() rejects ints >= 2^64)."""
    return np.uint64((0x9E3779B97F4A7C15 * (j + 1)) & 0xFFFFFFFFFFFFFFFF)


def _cms_query(cms: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Point estimates (min over rows) for pre-hashed values."""
    d, w = cms.shape
    est = np.full(len(h), np.iinfo(np.int64).max, dtype=np.int64)
    for j in range(d):
        idx = (mix64(h ^ _salt(j))
               % np.uint64(w)).astype(np.int64)
        est = np.minimum(est, cms[j][idx])
    return est


def heavy_hitters(ds: "ray.data.Dataset", explode, k: int = 20) -> list:
    """Approximate top-``k`` (value, count) without shuffling the value
    stream — the 100 TB heavy-hitters primitive beside the exact
    ``top_terms`` groupby.  ``explode(batch) -> list[str]`` yields the
    value occurrences (e.g. tokens).

    One streaming pass per block emits (a) a d×w count-min partial
    (``CMS_D``×``CMS_W``) — merged by a bucketed SUM tree,
    O(``HH_BUCKETS``·d·w·8 B) driver state — and (b) the block's local
    top-``HH_CANDIDATES`` values (a true heavy hitter is a local heavy
    hitter in at least one block, so the candidate union contains the
    global top-k whenever k ≪ blocks × ``HH_CANDIDATES``).  Final counts
    = count-min point estimates (min over rows; one-sided ≤ eps·N
    over-count, never under) over the deduped candidate set, top-k by
    (count desc, value asc)."""
    import collections

    def block_part(batch: pa.Table) -> pa.Table:
        values = explode(batch)
        cnt = collections.Counter(values)
        top = cnt.most_common(HH_CANDIDATES)
        h = _hash64(list(cnt.keys())) if cnt else np.empty(0, np.uint64)
        reps = np.fromiter(cnt.values(), dtype=np.int64, count=len(cnt))
        cms = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        for j in range(CMS_D):
            idx = (mix64(h ^ _salt(j))
                   % np.uint64(CMS_W)).astype(np.int64)
            np.add.at(cms[j], idx, reps)
        b = int(cms.sum()) % HH_BUCKETS
        return pa.table(
            {
                "bucket": pa.array([b], pa.int32()),
                "cms": pa.array([cms.tobytes()], pa.binary()),
                "cand": pa.array([[v for v, _ in top]],
                                 pa.list_(pa.string())),
            }
        )

    def combine(group: pa.Table) -> pa.Table:
        acc = np.zeros(CMS_D * CMS_W, dtype=np.int64)
        cands: set = set()
        for r, c in zip(group["cms"].to_pylist(),
                        group["cand"].to_pylist()):
            acc += np.frombuffer(r, dtype=np.int64)
            cands.update(c)
        return pa.table(
            {
                "cms": pa.array([acc.tobytes()], pa.binary()),
                "cand": pa.array([sorted(cands)], pa.list_(pa.string())),
            }
        )

    rows = (
        ds.map_batches(block_part, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(combine, batch_format="pyarrow")
        .take_all()
    )
    cms = np.zeros(CMS_D * CMS_W, dtype=np.int64)
    cands: set = set()
    for r in rows:
        cms += np.frombuffer(r["cms"], dtype=np.int64)
        cands.update(r["cand"])
    cms = cms.reshape(CMS_D, CMS_W)
    cand_list = sorted(cands)
    if not cand_list:
        return []
    est = _cms_query(cms, _hash64(cand_list))
    order = sorted(range(len(cand_list)), key=lambda i: (-est[i], cand_list[i]))
    return [(cand_list[i], int(est[i])) for i in order[:k]]
