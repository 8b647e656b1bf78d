"""Posting-list compression: delta + variable-byte (VByte) codecs, vectorized
with numpy.  This module alone knows the posting payload format: phase 1
encodes its runs, phase 2 decodes runs and encodes blocks, and the query
side decodes blocks, all through ``encode_postings``, ``decode_postings``
and the position helpers below.

The reference stores one SQLite row per posting (models.py:182-197) with no
compression and no ordering guarantee (SURVEY.md §2.6 K5).  The rebuild keeps
posting lists doc-ascending and delta+varbyte-encodes them.  A posting block
stores doc *ordinals* (dense ranks 0..N-1 of the snapshot's doc ids), so a gap
is about N/df and mostly takes one or two bytes, plus varbyte tfs and
optional delta-encoded positions.  A phase-1 run encodes its docs' ranks
within its tokenize batch the same way.

Payload of one segment (a run or a block) of n postings:
  ids        varbyte of [first id, gap1, gap2, ...] (gaps >= 1);
  tfs        varbyte of the n tfs;
  positions  per posting, its tf token positions as [first, gap, ...],
             concatenated over the n postings, then varbyte'd (empty when
             the index stores no positions).

Encoding: classic VByte — 7 payload bits per byte, high bit set on the LAST
byte of each integer (terminator convention), little-endian payload order.
The terminator convention makes a concatenation of blobs one decodable
stream, so many segments decode in one pass.

Both encode and decode are numpy-vectorized (no per-integer Python loop): the
encoder fills byte columns position-by-position (≤10 positions for uint64); the
decoder uses reduceat over terminator-delimited groups.

Payload columns stay ``large_binary`` Arrow arrays end to end, with no
``bytes`` object per run or block: ``encode_postings`` builds each column over
its one encoded byte buffer and the segments' cut offsets, and the decoders
read a column's value buffer between its first and last offset.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def varbyte_encode(values: np.ndarray) -> bytes:
    """Encode a 1-D array of non-negative integers (< 2**63) to VByte bytes."""
    return _varbyte_bytes(values)[0].tobytes()


def varbyte_decode(data) -> np.ndarray:
    """Decode VByte bytes (or a uint8 array of them) back to a uint64 array.

    Raises ``ValueError`` on a truncated stream (final byte lacks the
    terminator bit) — a corrupt index file must fail loudly, not decode to
    garbage doc_ids."""
    b = np.frombuffer(data, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    if not b[-1] & 0x80:
        raise ValueError(
            f"truncated varbyte stream ({b.size} bytes, unterminated tail)"
        )
    term = (b & 0x80) != 0
    ends = np.flatnonzero(term)
    starts = np.concatenate(([0], ends[:-1] + 1))
    payload = (b & np.uint8(0x7F)).astype(np.uint64)
    # shift of each byte = its offset within its value's run
    run_id = np.cumsum(term) - term  # index of the value each byte belongs to
    shifts = np.arange(b.size, dtype=np.int64) - starts[run_id]
    weighted = payload << shifts.astype(np.uint64) * np.uint64(7)
    return np.add.reduceat(weighted, starts)


def _varbyte_bytes(values) -> tuple:
    """(VByte bytes of ``values`` as one uint8 array, each value's start
    offset in it): one vectorized pass, no per-value Python."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    if int(v.max()) >= (1 << 63):
        raise ValueError("varbyte_encode: values must be < 2**63")
    # number of 7-bit groups per value (at least 1)
    nbytes = np.ones(v.size, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nbytes += (tmp > 0).astype(np.int64)
        tmp >>= np.uint64(7)
    out = np.empty(int(nbytes.sum()), dtype=np.uint8)
    # start offset of each value's byte run
    starts = _exclusive_cumsum(nbytes)
    rem = v.copy()
    for pos in range(int(nbytes.max())):
        mask = nbytes > pos
        idx = starts[mask] + pos
        payload = (rem[mask] & np.uint64(0x7F)).astype(np.uint8)
        is_last = (nbytes[mask] == pos + 1).astype(np.uint8) << 7
        out[idx] = payload | is_last
        rem[mask] >>= np.uint64(7)
    return out, starts


def varbyte_encode_segments(values: np.ndarray, seg_starts) -> pa.Array:
    """One vectorized VByte pass over a CONCATENATION of segments, returning
    a ``large_binary`` Arrow array of one value per segment — each value
    byte-identical to ``varbyte_encode`` of that segment, with the numpy
    call overhead paid once for the whole batch instead of once per (tiny)
    run.  The array is built over the encoded bytes and their cut offsets
    (no ``bytes`` object per segment).  ``seg_starts`` are the segment
    start indices (first must be 0); the last segment ends at
    ``len(values)``.

    Motivation: phase-1 run encoding calls the codec ~30k times per 2k-doc
    batch on arrays of 1-5 values; per-call overhead was 65% of the whole
    tokenize stage (profiled) — this batches it away.
    """
    out, starts = _varbyte_bytes(values)
    byte_cuts = np.append(starts, out.size)
    return _binary_array(out, np.append(
        byte_cuts[np.asarray(seg_starts, dtype=np.int64)], out.size))


def _binary_array(data: np.ndarray, cuts: np.ndarray) -> pa.Array:
    """A ``large_binary`` array over the buffer of ``data`` whose value i
    is ``data[cuts[i]:cuts[i + 1]]``."""
    return pa.Array.from_buffers(
        pa.large_binary(), len(cuts) - 1,
        [None, pa.py_buffer(cuts), pa.py_buffer(data)])


def delta_encode_segments(
    sorted_ids: np.ndarray, seg_starts: np.ndarray
) -> np.ndarray:
    """Per-segment delta encoding in one pass: within each segment the output
    is [first, gap1, ...] exactly like ``delta_encode`` on that slice."""
    a = np.asarray(sorted_ids, dtype=np.int64)
    seg_starts = np.asarray(seg_starts, dtype=np.int64)
    if a.size == 0:
        return a.astype(np.uint64)
    d = np.empty_like(a)
    d[0] = a[0]
    d[1:] = np.diff(a)
    d[seg_starts] = a[seg_starts]
    interior = np.ones(a.size, dtype=bool)
    interior[seg_starts] = False
    if interior.any() and int(d[interior].min()) <= 0:
        raise ValueError("delta_encode requires strictly ascending segments")
    if a.size and int(a[seg_starts].min()) < 0:
        raise ValueError("delta_encode requires non-negative ids")
    return d.astype(np.uint64)


def delta_encode(sorted_ids: np.ndarray) -> np.ndarray:
    """Strictly-ascending int array -> [first, gap1, gap2, ...] (gaps >= 1)."""
    return delta_encode_segments(sorted_ids, [0])


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    return np.cumsum(np.asarray(deltas, dtype=np.uint64)).astype(np.int64)


def _value_bytes(blobs) -> np.ndarray:
    """The values of a ``large_binary`` Arrow array, concatenated: a uint8
    view of its value buffer between its first and last offset (a sliced
    array's offset is honoured), copied only to join the chunks of a
    ``ChunkedArray``."""
    if isinstance(blobs, pa.ChunkedArray):
        parts = [_value_bytes(c) for c in blobs.chunks]
        return parts[0] if len(parts) == 1 else np.concatenate(
            [np.empty(0, np.uint8), *parts])
    if blobs.type != pa.large_binary():
        raise TypeError(
            f"expected a large_binary Arrow array, got {blobs.type}")
    if blobs.null_count:
        raise ValueError(f"payload column has {blobs.null_count} nulls")
    if len(blobs) == 0:
        return np.empty(0, np.uint8)
    _, offsets, data = blobs.buffers()
    offsets = np.frombuffer(offsets, dtype=np.int64, count=len(blobs) + 1,
                            offset=blobs.offset * 8)
    lo, hi = int(offsets[0]), int(offsets[-1])
    if hi == lo:
        return np.empty(0, np.uint8)
    return np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)


def varbyte_decode_concat(blobs, counts: np.ndarray) -> np.ndarray:
    """Decode MANY varbyte blobs — the values of a ``large_binary`` Arrow
    array — in one pass over its value buffer (terminator convention makes
    the concatenation decodable as a single stream).  ``counts`` is unused for
    decoding (values self-delimit) but validates the result length — the
    decode-side twin of ``varbyte_encode_segments``: per-run or per-block
    decode calls cost more in numpy call overhead than in bytes."""
    vals = varbyte_decode(_value_bytes(blobs))
    expect = int(np.asarray(counts).sum())
    if len(vals) != expect:
        raise ValueError(f"decoded {len(vals)} values, expected {expect}")
    return vals


def delta_decode_segments(
    deltas: np.ndarray, seg_starts: np.ndarray
) -> np.ndarray:
    """Per-segment delta decode in one pass: within each segment the output
    equals ``delta_decode`` of that slice (cumsum with resets)."""
    d = np.asarray(deltas, dtype=np.uint64)
    if d.size == 0:
        return d.astype(np.int64)
    seg_starts = np.asarray(seg_starts, dtype=np.int64)
    v = np.cumsum(d)
    seg_lens = np.diff(np.concatenate((seg_starts, [d.size])))
    base = np.zeros(len(seg_starts), dtype=np.uint64)
    base[1:] = v[seg_starts[1:] - 1]
    return (v - np.repeat(base, seg_lens)).astype(np.int64)


def _exclusive_cumsum(counts) -> np.ndarray:
    """Start index of each segment of the given lengths."""
    c = np.asarray(counts, dtype=np.int64)
    out = np.zeros(c.size, dtype=np.int64)
    np.cumsum(c[:-1], out=out[1:])
    return out


def encode_postings(ids, tfs, starts, pos_deltas=None):
    """Postings sorted by (segment, id) → one (ids, tfs, positions) blob per
    segment, as three ``large_binary`` Arrow arrays.  ``starts`` are the
    segment start indices (the first is 0): phase 1 passes its run starts,
    phase 2 its block starts.  ``pos_deltas`` holds ``tfs[i]`` values per
    posting (see ``position_deltas``); without it every positions blob is
    empty.
    Byte-identical to ``encode_ids`` / ``encode_plain`` per segment, with
    the numpy call overhead paid once for the whole batch."""
    starts = np.asarray(starts, dtype=np.int64)
    ids_blobs = varbyte_encode_segments(delta_encode_segments(ids, starts), starts)
    tfs_blobs = varbyte_encode_segments(tfs, starts)
    if pos_deltas is None:
        pos_blobs = _binary_array(np.empty(0, np.uint8),
                                  np.zeros(len(starts) + 1, dtype=np.int64))
    else:
        pos_blobs = varbyte_encode_segments(
            pos_deltas, _exclusive_cumsum(tfs)[starts]
        )
    return ids_blobs, tfs_blobs, pos_blobs


def decode_postings(ids_blobs, tfs_blobs, counts):
    """(ids, tfs) of consecutive segments of ``counts[i]`` postings each,
    concatenated, from the segments' blobs as ``large_binary`` Arrow arrays
    (or ``ChunkedArray``s): one varbyte pass per column over the value
    buffer, then one delta pass with a reset at each segment start.  A
    truncated stream or a ``counts`` sum that does not match the decoded
    length raises ``ValueError``."""
    counts = np.asarray(counts, dtype=np.int64)
    ids = delta_decode_segments(
        varbyte_decode_concat(ids_blobs, counts), _exclusive_cumsum(counts)
    )
    tfs = varbyte_decode_concat(tfs_blobs, counts).astype(np.int64)
    return ids, tfs


def position_deltas(positions: np.ndarray, tfs: np.ndarray) -> np.ndarray:
    """Flat absolute token positions (``tfs[i]`` ascending ones per posting)
    → the flat deltas ``encode_postings`` takes, reset at each posting."""
    return delta_encode_segments(positions, _exclusive_cumsum(tfs))


def decode_position_deltas(pos_blobs, tfs: np.ndarray) -> np.ndarray:
    """The flat per-posting position deltas of the positions blobs (a
    ``large_binary`` Arrow array) whose postings have term frequencies
    ``tfs`` (one varbyte pass)."""
    return varbyte_decode_concat(pos_blobs, tfs)


def decode_positions(pos_blobs, tfs: np.ndarray) -> list:
    """Per posting, its absolute token positions: the flat deltas, then one
    cumsum-with-resets pass (not one numpy call per posting), split."""
    starts = _exclusive_cumsum(tfs)
    absolute = delta_decode_segments(decode_position_deltas(pos_blobs, tfs), starts)
    return np.split(absolute, starts[1:])


def encode_ids(sorted_ids: np.ndarray) -> bytes:
    """delta + varbyte for a strictly-ascending doc_id list."""
    return varbyte_encode(delta_encode(sorted_ids))


def decode_ids(data: bytes) -> np.ndarray:
    return delta_decode(varbyte_decode(data))


def encode_plain(values: np.ndarray) -> bytes:
    """varbyte without delta (for tf payloads, small positives)."""
    return varbyte_encode(np.asarray(values, dtype=np.uint64))


def decode_plain(data: bytes) -> np.ndarray:
    return varbyte_decode(data).astype(np.int64)
