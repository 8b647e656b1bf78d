"""The keyed-group kernel (``stages/keyed``) and the Ray contract it rests
on: ``groupby(k).map_groups(fn)`` calls ``fn`` only with non-empty groups
that carry the dataset's columns, so bucket functions carry no
empty-group guard."""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pytest

INT_KEYS = [0, 1, 63, 64, -1, -64, -7_000_000_000_123, 2**62 + 5,
            -(2**63), 2**63 - 1, 123456789012345]
HEX_KEYS = [hashlib.sha256(s.encode()).hexdigest()
            for s in ["", "a", "hello world", "def f(x):\n    return x\n",
                      "ffff"]]
PAIR_A = [1, 2, -5, 10**15, -(2**63), 42]
PAIR_B = [2, 3, 7, 10**15 + 1, 2**63 - 1, -42]


@pytest.mark.parametrize(
    "key,n,expected",
    [
        ("doc_id", 64, [0, 1, 63, 0, 63, 0, 5, 5, 0, 63, 57]),
        ("doc_id", 128, [0, 1, 63, 64, 127, 64, 5, 5, 0, 127, 121]),
        ("doc_id", 256, [0, 1, 63, 64, 255, 192, 133, 5, 0, 255, 121]),
        ("doc_id", 7, [0, 1, 0, 1, 1, 1, 5, 2, 1, 0, 5]),
        ("content_sha256", 64, [2, 18, 57, 48, 11]),
        ("content_sha256", 7, [1, 2, 1, 3, 2]),
        (("doc_a", "doc_b"), 64, [42, 37, 24, 62, 16, 52]),
        (("doc_a", "doc_b"), 3, [1, 1, 0, 0, 0, 0]),
    ],
)
def test_bucket_formulas_are_pinned(key, n, expected):
    """Each key type keeps the bucket it had under the per-type bucket
    functions this kernel replaced (values computed from those), so every
    shuffle keeps its shape and skew: int64 keys (negative doc ids too) as
    uint64 mod n, hex digests by their first 8 hex chars, and doc pairs by
    the multiply-xor mix."""
    from uci_searchengine_ray.stages.keyed import add_bucket

    tables = {
        "doc_id": pa.table({"doc_id": pa.array(INT_KEYS, pa.int64())}),
        "content_sha256": pa.table(
            {"content_sha256": pa.array(HEX_KEYS, pa.string())}
        ),
        ("doc_a", "doc_b"): pa.table(
            {"doc_a": pa.array(PAIR_A, pa.int64()),
             "doc_b": pa.array(PAIR_B, pa.int64())}
        ),
    }
    out = add_bucket(tables[key], key, n)
    assert out.schema.field("bucket").type == pa.int32()
    assert out["bucket"].to_pylist() == expected
    assert out.drop_columns(["bucket"]).equals(tables[key])


def test_hex_bucket_matches_the_python_formula():
    """The vectorized hex path gives ``int(s[:8], 16) % n`` for random
    digests of either case, keys longer than 8 characters, sliced and
    multi-chunk columns of both string types; a null, a key under 8
    characters or a head that is not 8 hex digits raises instead of getting
    a bucket."""
    import numpy as np

    from uci_searchengine_ray.stages.keyed import add_bucket

    rng = np.random.default_rng(7)
    keys = [
        hashlib.sha256(rng.bytes(16)).hexdigest()[: int(rng.integers(8, 65))]
        for _ in range(3000)
    ]
    keys = [k.upper() if rng.random() < 0.3 else k for k in keys]
    for n in (1, 7, 64, 1000, 2**31 - 1):
        for col in (
            pa.array(keys),
            pa.chunked_array([keys[:5], [], keys[5:]], pa.large_string()),
            pa.array(keys).slice(11, 2000),
        ):
            got = add_bucket(pa.table({"k": col}), "k", n)["bucket"]
            assert got.to_pylist() == [
                int(s[:8], 16) % n for s in col.to_pylist()
            ]
    for bad in (None, "", "abc1234", "0x123456789", "+1234567a", "12_34567a",
                "12 34 56 78", "abcdefgh", "1234567é"):
        with pytest.raises(ValueError):
            add_bucket(
                pa.table({"k": pa.array([HEX_KEYS[0], bad], pa.string())}),
                "k", 64,
            )


@pytest.mark.parametrize("key", ["doc_id", "content_sha256",
                                 ("doc_a", "doc_b")])
def test_bucket_groups_delivers_each_key_to_one_call(ray_session, key):
    """Rows of one key spread over many blocks all reach the same ``fn``
    call: each key comes out of exactly one call, with its full count."""
    import ray
    from uci_searchengine_ray.config import configure_data_context
    from uci_searchengine_ray.stages.keyed import bucket_groups

    configure_data_context()
    cols = [key] if isinstance(key, str) else list(key)

    def summary(group: pa.Table) -> pa.Table:
        """One row per distinct key of this call, with its row count."""
        return group.group_by(cols).aggregate([([], "count_all")])

    n_keys, reps = 40, 5
    rows = [i % n_keys - 20 for i in range(n_keys * reps)]
    tbl = pa.table(
        {
            "doc_id": pa.array(rows, pa.int64()),
            "content_sha256": pa.array(
                [hashlib.sha256(str(r).encode()).hexdigest() for r in rows]
            ),
            "doc_a": pa.array(rows, pa.int64()),
            "doc_b": pa.array([r * 7 + 3 for r in rows], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(10)
    out = bucket_groups(ds, key, 4, summary).take_all()
    assert len(out) == n_keys  # one row per key: no key split across calls
    assert all(r["count_all"] == reps for r in out)


def test_map_groups_never_sees_an_empty_group(ray_session):
    """The Ray contract the bucket functions rely on: under the engine's
    data context, ``map_groups`` never calls ``fn`` with an empty or
    column-less table — for an empty input, for blocks that all filter to
    0 rows, or for empty blocks mixed with full ones (whose groups must
    still come out right).  A Ray upgrade that breaks this fails here."""
    import ray
    from uci_searchengine_ray.config import configure_data_context

    configure_data_context()

    def sums(group: pa.Table) -> pa.Table:
        assert group.num_rows > 0 and "k" in group.column_names, group.schema
        return group.group_by("k").aggregate([("v", "sum")])

    def grouped(ds):
        rows = ds.groupby("k").map_groups(
            sums, batch_format="pyarrow"
        ).take_all()
        return {r["k"]: r["v_sum"] for r in rows}

    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    assert grouped(ray.data.from_arrow(schema.empty_table())) == {}

    full = pa.table({"k": pa.array([i % 5 for i in range(200)], pa.int64()),
                     "v": pa.array(list(range(200)), pa.int64())})
    blocks = ray.data.from_arrow(full).repartition(20).materialize()
    assert blocks.num_blocks() == 20
    assert grouped(blocks.filter(lambda r: r["k"] < 0)) == {}

    parts = [full.slice(0, 60), schema.empty_table(), full.slice(60, 90),
             schema.empty_table(), schema.empty_table(), full.slice(150)]
    mixed = ray.data.from_arrow(parts).union(
        ray.data.from_arrow(full).repartition(4).filter(lambda r: r["v"] < 0)
    )
    want = {k: sum(v for v in range(200) if v % 5 == k) for k in range(5)}
    assert grouped(mixed) == want
