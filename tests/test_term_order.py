"""Phase 1 sorts a batch's postings by integer term ranks and phase 2 orders
runs with an Arrow sort of the term column; both must give exactly the
order of Python ``str`` comparison.  The runs and blocks of a batch whose
terms include non-ASCII letters, prefix pairs and digit runs are compared,
byte for byte, with a reference built here by per-segment codec calls in
the order of ``np.argsort`` over the term strings."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from pyarrow import fs as pafs

from uci_searchengine_ray.functions import codecs
from uci_searchengine_ray.functions.hashing import stable_doc_id, term_shard
from uci_searchengine_ray.functions.tokenizer import tokenize_reference
from uci_searchengine_ray.stages.postings import (
    BLOCK_SCHEMA, RUN_SCHEMA, TokenizeEncodeRuns, key_ranges,
    make_merge_shard)

N_KEYS = 8
BLOCK_SIZE = 4
# é, ß, CJK (𠀀 is past the BMP, so UTF-16 would sort it before ｶ),
# letters whose lowercase is longer (Ⱥ: 2 UTF-8 bytes, ⱥ: 3; İ: one code
# point, i̇: two), prefix pairs and digit runs of several lengths
SPECIAL = ["é", "ße", "straße", "中文", "日本語", "𠀀", "ｶﾅ", "Ⱥb", "İstanbul",
           "ab", "abc", "abd", "a", "z", "1", "10", "2", "007", "0099", "ñu",
           "Ωmega"]


def _batch(seed: int, n_docs: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    letters = list("abcxyzéßñ中文İȺ") + list("0123")
    vocab = SPECIAL + ["".join(rng.choice(letters, rng.integers(1, 6)))
                       for _ in range(300)]
    docs = [" ".join(SPECIAL)] + [" ".join(rng.choice(vocab, rng.integers(0, 40)))
                                  for _ in range(n_docs - 1)]
    return pa.table({
        "repo": [f"r{seed}"] * n_docs,
        "path": [f"f{i}.py" for i in range(n_docs)],
        "commit": ["c"] * n_docs,
        "lang": ["python"] * n_docs,
        "content": docs,
    })


def _doc_ids(batch: pa.Table):
    return [stable_doc_id(*row) for row in zip(
        *(batch[k].to_pylist() for k in ("repo", "path", "commit")))]


def _postings(batch: pa.Table):
    """Per term, its postings as (doc id, token positions), from the
    reference tokenizer."""
    out = {}
    for doc_id, text in zip(_doc_ids(batch), batch["content"].to_pylist()):
        occ = {}
        for i, tok in enumerate(tokenize_reference(text)):
            occ.setdefault(tok, []).append(i)
        for term, pos in occ.items():
            out.setdefault(term, []).append((doc_id, pos))
    return out


def _string_order(terms):
    arr = np.asarray(list(terms), dtype=object)
    return arr[np.argsort(arr)].tolist()


def _payload(postings, ids, positional):
    """(ids, tfs, positions) blobs of postings sorted by id, one per-segment
    codec call each; ``ids`` maps a doc id to what the segment stores."""
    postings = sorted(postings)
    pos = (codecs.encode_plain(np.concatenate(
        [codecs.delta_encode(np.asarray(p)) for _, p in postings]))
        if positional else b"")
    return (codecs.encode_ids(np.array([ids[d] for d, _ in postings])),
            codecs.encode_plain([len(p) for _, p in postings]), pos)


def _reference_runs(batch, positional):
    per_term = _postings(batch)
    rank = {d: k for k, d in enumerate(sorted(_doc_ids(batch)))}
    rows = []
    for term in _string_order(per_term):
        ids, tfs, pos = _payload(per_term[term], rank, positional)
        rows.append({"term": term, "merge_key": term_shard(term, N_KEYS),
                     "n": len(per_term[term]), "ids_enc": ids,
                     "tfs_enc": tfs, "pos_enc": pos})
    rows.sort(key=lambda r: r["merge_key"])  # stable: term order per key
    return rows


def _reference_blocks(batches, positional):
    per_term = {}
    for b in batches:
        for term, post in _postings(b).items():
            per_term.setdefault(term, []).extend(post)
    ordinal = {d: k for k, d in enumerate(sorted(
        d for b in batches for d in _doc_ids(b)))}
    rows = []
    for key in range(N_KEYS):
        for term in _string_order(t for t in per_term
                                  if term_shard(t, N_KEYS) == key):
            post = sorted(per_term[term])
            for block_id, lo in enumerate(range(0, len(post), BLOCK_SIZE)):
                part = post[lo:lo + BLOCK_SIZE]
                ids, tfs, pos = _payload(part, ordinal, positional)
                rows.append({"term": term, "df": len(post),
                             "block_id": block_id, "n": len(part),
                             "doc_ids": ids, "tfs": tfs, "positions": pos})
    return rows


@pytest.mark.parametrize("positional", [False, True])
def test_runs_and_blocks_follow_string_order(tmp_path, positional):
    batches = [_batch(1, 60), _batch(2, 45)]
    meta_dir, runs_dir = str(tmp_path / "meta"), str(tmp_path / "runs")
    os.makedirs(meta_dir)
    os.makedirs(runs_dir)
    stage = TokenizeEncodeRuns(
        "reference", N_KEYS, pafs.LocalFileSystem(), meta_dir, runs_dir,
        key_starts=[lo for lo, _ in key_ranges(N_KEYS, 3)],
        store_positions=positional)

    runs = []
    for b in batches:
        (stem,) = stage(b)["stem"].to_pylist()
        got = pq.read_table(os.path.join(runs_dir, f"runs-{stem}.parquet"))
        assert got.schema.equals(RUN_SCHEMA)
        assert got.to_pylist() == _reference_runs(b, positional)
        runs.append(got)
    terms = {t for r in runs for t in r["term"].to_pylist()}
    assert {"é", "ße", "中文", "日本語", "𠀀", "ｶﾅ", "ⱥb", "stanbul", "ab",
            "abc", "1", "10", "007"} <= terms
    assert len({term_shard(t, N_KEYS) for t in terms}) == N_KEYS

    # the merge: each batch's ranks map to ordinals in the union of ids
    ids = [np.sort(_doc_ids(b)) for b in batches]
    union = np.sort(np.concatenate(ids))
    ordinals = np.concatenate([np.searchsorted(union, a) for a in ids])
    offsets = np.concatenate(([0], np.cumsum([len(a) for a in ids])))
    tagged = pa.concat_tables([
        r.append_column("batch", pa.array(np.full(r.num_rows, i, np.int32)))
        for i, r in enumerate(runs)])
    merge = make_merge_shard(block_size=BLOCK_SIZE)
    keys = tagged["merge_key"].to_numpy()
    blocks = pa.concat_tables(
        [merge(tagged.filter(keys == k), ordinals, offsets)
         for k in range(N_KEYS)])
    assert blocks.schema.equals(BLOCK_SCHEMA)
    assert blocks.to_pylist() == _reference_blocks(batches, positional)
    assert max(blocks["block_id"].to_pylist()) > 0
