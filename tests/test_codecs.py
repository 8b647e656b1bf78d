"""varbyte/delta round-trip fixtures (SURVEY.md §5.1, FIXTURES.md §5)."""

import functools

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uci_searchengine_ray.functions import codecs


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0],
        [1],
        [127],
        [128],
        [16383],
        [16384],
        [2**62],
        [0, 1, 2, 3],
        list(range(1000)),
        [5, 1_000_000_000, 2**55],
    ],
)
def test_varbyte_roundtrip(values):
    arr = np.array(values, dtype=np.uint64)
    assert codecs.varbyte_decode(codecs.varbyte_encode(arr)).tolist() == values


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
def test_varbyte_roundtrip_fuzz(values):
    arr = np.array(values, dtype=np.uint64)
    assert codecs.varbyte_decode(codecs.varbyte_encode(arr)).tolist() == values


@pytest.mark.parametrize(
    "ids",
    [
        [7],
        [0, 1, 2, 3],             # gap=1 runs
        [3, 10, 11, 5000, 2**40],  # large gaps
        list(range(100, 600, 7)),
    ],
)
def test_delta_ids_roundtrip(ids):
    arr = np.array(ids, dtype=np.int64)
    assert codecs.decode_ids(codecs.encode_ids(arr)).tolist() == ids


def test_delta_rejects_unsorted():
    with pytest.raises(ValueError):
        codecs.delta_encode(np.array([3, 3], dtype=np.int64))
    with pytest.raises(ValueError):
        codecs.delta_encode(np.array([5, 4], dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**50), min_size=1, max_size=300))
def test_delta_roundtrip_fuzz(idset):
    ids = np.array(sorted(idset), dtype=np.int64)
    assert codecs.decode_ids(codecs.encode_ids(ids)).tolist() == ids.tolist()


def test_compression_is_compact():
    """Dense ascending ids ≈ 1 byte/posting after delta+varbyte."""
    ids = np.arange(10_000, dtype=np.int64)
    assert len(codecs.encode_ids(ids)) < 11_000


def test_segmented_encode_matches_per_segment():
    import numpy as np

    from uci_searchengine_ray.functions import codecs

    rng = np.random.default_rng(7)
    # many tiny segments with mixed magnitudes (1-byte and multi-byte values)
    segs = []
    for _ in range(200):
        n = int(rng.integers(1, 6))
        ids = np.sort(rng.integers(0, 1 << 40, size=n, dtype=np.int64))
        ids = np.unique(ids)
        tfs = rng.integers(1, 300, len(ids)).astype(np.int64)
        # per posting, tf ascending token positions
        pos = [np.sort(rng.choice(1 << 16, size=tf, replace=False))
               for tf in tfs]
        segs.append((ids, tfs, pos))
    flat_ids = np.concatenate([s[0] for s in segs])
    flat_tfs = np.concatenate([s[1] for s in segs])
    flat_pos = np.concatenate([p for s in segs for p in s[2]])
    starts = np.cumsum([0] + [len(s[0]) for s in segs[:-1]])

    got_ids = codecs.varbyte_encode_segments(
        codecs.delta_encode_segments(flat_ids, starts), starts
    )
    got_tfs = codecs.varbyte_encode_segments(flat_tfs, starts)
    enc_ids, enc_tfs, enc_pos = codecs.encode_postings(
        flat_ids, flat_tfs, starts,
        codecs.position_deltas(flat_pos, flat_tfs),
    )
    # the encoders return Arrow binary arrays: compare their values as bytes
    for i, (ids, tfs, pos) in enumerate(segs):
        assert got_ids[i].as_py() == enc_ids[i].as_py() == codecs.encode_ids(ids)
        assert got_tfs[i].as_py() == enc_tfs[i].as_py() == codecs.encode_plain(tfs)
        assert enc_pos[i].as_py() == codecs.encode_plain(
            np.concatenate([codecs.delta_encode(p) for p in pos]))
        assert list(codecs.decode_ids(got_ids[i].as_py())) == list(ids)
        got_pos = codecs.decode_positions(enc_pos.slice(i, 1), tfs)
        assert [p.tolist() for p in got_pos] == [p.tolist() for p in pos]
    # without positions every positions blob is empty
    assert codecs.encode_postings(flat_ids, flat_tfs, starts)[2].to_pylist() == (
        [b""] * len(segs))


def test_decode_postings_matches_per_block(built_index):
    """For every term of the session index, one ``decode_postings`` pass
    over its blocks equals the per-block decodes concatenated; a truncated
    last blob and a wrong posting count both raise."""
    import os

    import pyarrow.dataset as pa_ds

    tbl = pa_ds.dataset(
        os.path.join(built_index, "postings"), format="parquet"
    ).to_table(columns=["term", "block_id", "n", "doc_ids", "tfs"])
    tbl = tbl.sort_by([("term", "ascending"), ("block_id", "ascending")])
    per_term = {}
    for t, n, ids_b, tfs_b in zip(*(tbl[c].to_pylist()
                                    for c in ("term", "n", "doc_ids", "tfs"))):
        per_term.setdefault(t, []).append((n, ids_b, tfs_b))
    assert len(per_term) > 100
    assert any(len(blocks) > 1 for blocks in per_term.values())
    blobs = functools.partial(pa.array, type=pa.large_binary())
    for t, blocks in per_term.items():
        ns, ids_bs, tfs_bs = (list(c) for c in zip(*blocks))
        ids, tfs = codecs.decode_postings(blobs(ids_bs), blobs(tfs_bs), ns)
        assert ids.dtype == tfs.dtype == np.int64
        assert ids.tolist() == np.concatenate(
            [codecs.decode_ids(b) for b in ids_bs]).tolist(), t
        assert tfs.tolist() == np.concatenate(
            [codecs.decode_plain(b) for b in tfs_bs]).tolist(), t

    ns, ids_bs, tfs_bs = (list(c) for c in zip(*max(per_term.values(), key=len)))
    # a blob cut short loses a value or leaves an unterminated tail
    with pytest.raises(ValueError):
        codecs.decode_postings(
            blobs(ids_bs[:-1] + [ids_bs[-1][:-1]]), blobs(tfs_bs), ns)
    with pytest.raises(ValueError, match="truncated"):
        codecs.decode_postings(
            blobs(ids_bs[:-1] + [ids_bs[-1] + b"\x01"]), blobs(tfs_bs), ns)
    with pytest.raises(ValueError, match="expected"):
        codecs.decode_postings(blobs(ids_bs), blobs(tfs_bs), ns[:-1] + [ns[-1] + 1])


def test_segmented_delta_rejects_descending_within_segment():
    import numpy as np
    import pytest

    from uci_searchengine_ray.functions import codecs

    with pytest.raises(ValueError):
        codecs.delta_encode_segments(
            np.array([1, 5, 3], dtype=np.int64), np.array([0])
        )
    # descending ACROSS a segment boundary is fine (segments are independent)
    out = codecs.delta_encode_segments(
        np.array([10, 20, 3, 9], dtype=np.int64), np.array([0, 2])
    )
    assert list(out) == [10, 10, 3, 6]


def _segments(seed=11, n_segs=40):
    """Encoded random segments: (ids, tfs, positions) blobs as Arrow arrays,
    the posting counts and each segment's tfs."""
    rng = np.random.default_rng(seed)
    ns = rng.integers(1, 6, n_segs)
    ids = np.concatenate([np.sort(rng.choice(1 << 20, n, replace=False))
                          for n in ns]).astype(np.int64)
    tfs = rng.integers(1, 200, len(ids)).astype(np.int64)
    pos = np.concatenate([np.sort(rng.choice(1 << 16, tf, replace=False))
                          for tf in tfs]).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(ns)[:-1]))
    enc = codecs.encode_postings(ids, tfs, starts,
                                 codecs.position_deltas(pos, tfs))
    return enc, ns, np.split(tfs, starts[1:])


@pytest.mark.parametrize("view", ["offset", "chunked", "empty"])
def test_decode_reads_arrow_buffers(view):
    """The decoders read an Arrow binary array's value buffer between its
    first and last offset: a sliced array (non-zero offset), a multi-chunk
    ``ChunkedArray`` and an empty array each decode to the per-segment
    ``decode_ids`` / ``decode_plain``."""
    (ids_b, tfs_b, pos_b), ns, seg_tfs = _segments()
    lo, hi = (0, 0) if view == "empty" else (7, 31)

    def cut(arr):
        part = arr.slice(lo, hi - lo)
        if view == "chunked":
            return pa.chunked_array([part.slice(0, 5), part.slice(5, 0),
                                     part.slice(5)])
        return part

    def flat(arrays):
        return np.concatenate([np.empty(0, np.int64), *arrays]).tolist()

    ids, tfs = codecs.decode_postings(cut(ids_b), cut(tfs_b), ns[lo:hi])
    want_ids = [codecs.decode_ids(b) for b in ids_b.to_pylist()[lo:hi]]
    want_tfs = [codecs.decode_plain(b) for b in tfs_b.to_pylist()[lo:hi]]
    assert ids.tolist() == flat(want_ids)
    assert tfs.tolist() == flat(want_tfs)
    got_pos = codecs.decode_positions(
        cut(pos_b), np.concatenate([np.empty(0, np.int64), *seg_tfs[lo:hi]]))
    want_pos = []
    for b, t in zip(pos_b.to_pylist()[lo:hi], seg_tfs[lo:hi]):
        deltas = codecs.decode_plain(b)
        want_pos += [codecs.delta_decode(d)
                     for d in np.split(deltas, np.cumsum(t)[:-1])]
    assert flat(got_pos) == flat(want_pos)


def test_decode_rejects_truncated_arrow_blob():
    """A blob cut short inside an Arrow array still raises ``ValueError``,
    sliced or not; a payload that is not ``large_binary`` raises
    ``TypeError``."""
    (ids_b, tfs_b, _), ns, _ = _segments()
    blobs = ids_b.to_pylist()
    cut = pa.array(blobs[:-1] + [blobs[-1][:-1]], pa.large_binary())
    with pytest.raises(ValueError):
        codecs.decode_postings(cut, tfs_b, ns)
    with pytest.raises(ValueError):
        codecs.decode_postings(cut.slice(3), tfs_b.slice(3), ns[3:])
    with pytest.raises(ValueError, match="truncated"):
        codecs.decode_postings(
            pa.array(blobs[:-1] + [blobs[-1] + b"\x01"], pa.large_binary()),
            tfs_b, ns)
    with pytest.raises(TypeError):
        codecs.decode_postings(ids_b.cast(pa.binary()), tfs_b, ns)
