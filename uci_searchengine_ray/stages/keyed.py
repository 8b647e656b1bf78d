"""The keyed-group shuffle every curation, dedup and per-user relational
operator shares: hash each row's key to one of ``num_buckets`` buckets,
``groupby`` the small-cardinality bucket column, and run a vectorized
per-bucket function (numpy sort + segment ops) over all keys of a bucket
at once.

Ray's generic sort-based aggregate calls Python once per group; at ~10⁶
near-singleton key groups (pairs, line hashes, content hashes) that
overhead dominates a pipeline (measured 9-16 s vs ~2 s for the bucketed
numpy path at sf0.1).  Ray calls ``fn`` only for non-empty buckets, so a
bucket function needs no empty-group guard (pinned by
``tests/test_keyed.py``).
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

BUCKETS = 64  # default shuffle width of the keyed operators

Key = Union[str, Sequence[str]]


def pair_hash(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """uint64 multiply-xor mix of two int64 id arrays, so dense id ranges
    spread."""
    h = a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h ^= b.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    return h ^ (h >> np.uint64(33))


def _hex_head(col: pa.ChunkedArray) -> np.ndarray:
    """``int(s[:8], 16)`` of each string, as uint32, parsed from Arrow's
    value buffer in one ``bytes.fromhex`` call.  A key that is null,
    shorter than 8 characters or not hex raises ``ValueError``."""
    heads = pc.utf8_slice_codeunits(col, 0, 8).cast(pa.string()).combine_chunks()
    n = len(heads)
    if heads.null_count or pc.any(pc.not_equal(pc.binary_length(heads), 8)).as_py():
        raise ValueError("hex keys must be 8 or more ASCII characters")
    lo = np.frombuffer(heads.buffers()[1], np.int32, 1, heads.offset * 4)[0]
    raw = bytes.fromhex(  # ValueError on a non-hex digit
        heads.buffers()[2].to_pybytes()[lo: lo + 8 * n].decode("ascii"))
    if len(raw) != 4 * n:  # fromhex skips whitespace
        raise ValueError("hex keys must not hold whitespace")
    return np.frombuffer(raw, ">u4")


def add_bucket(batch: pa.Table, key: Key, num_buckets: int) -> pa.Table:
    """``batch`` plus an int32 ``bucket`` column.  The formula follows the
    key's Arrow type:

    - integer column (already-uniform hashes or doc ids): the int64 bit
      pattern as uint64, mod ``num_buckets``;
    - string column (hex digests such as sha256): the first 8 hex chars
      mod ``num_buckets`` (``_hex_head``) — uniform because the key is
      itself a hash;
    - ``(doc_a, doc_b)`` pair: ``pair_hash`` of both ids."""
    if not isinstance(key, str):
        a, b = (batch[c].to_numpy(zero_copy_only=False) for c in key)
        buckets = pair_hash(a, b) % np.uint64(num_buckets)
    elif pa.types.is_integer(batch.schema.field(key).type):
        keys = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
        buckets = keys.view(np.uint64) % np.uint64(num_buckets)
    else:
        buckets = _hex_head(batch[key]) % np.uint32(num_buckets)
    return batch.append_column("bucket", pa.array(buckets.astype(np.int32)))


def bucket_groups(
    ds: "ray.data.Dataset",
    key: Key,
    num_buckets: int,
    fn: Callable[[pa.Table], pa.Table],
) -> "ray.data.Dataset":
    """``fn`` applied to each non-empty bucket of ``ds`` keyed on ``key``
    (see ``add_bucket``): every row of one key reaches the same call."""
    return (
        ds.map_batches(
            lambda t: add_bucket(t, key, num_buckets),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("bucket")
        .map_groups(fn, batch_format="pyarrow")
    )
