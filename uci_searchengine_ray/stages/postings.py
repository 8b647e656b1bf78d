"""Posting-list construction stages (SURVEY.md §7 step 3, §4 "Skew" row).

The reference inserts one uncompressed SQLite row per posting in insertion
order (crawler.py:460-466, models.py:182-197).  The rebuild constructs sorted,
delta+varbyte-compressed posting blocks in two stages:

  phase 1 — ``TokenizeEncodeRuns`` (one task per planned batch, NO
      shuffle): tokenize a corpus batch, combine per-doc TFs in-batch
      (SURVEY §2.5 A1), sort the postings by (term, doc) — over integers:
      a posting sorts by its term's rank among the batch's distinct terms
      — and emit one compressed *run* row per term per batch.  A run names
      each doc by its *rank* among the batch's ascending doc ids, so its
      gaps are small; raw postings never cross the object store.  The
      phase-1→2 exchange is
      one runs file per batch, ``runs-{first id}-{n}.parquet`` beside the
      batch's ``meta-{first id}-{n}.parquet``: rows sorted by (merge_key =
      hash(term) % merge keys, term), one row group per phase-2 task's key
      range (``key_ranges``) with statistics on ``merge_key`` only — a
      disk-backed shuffle with no sort.  The task returns one summary row
      (``SUMMARY_SCHEMA``) for the build's counts.

  phase 2 — each merge task takes one key range, reads it from every runs
      file in one filtered scan (the statistics prune the other row
      groups) and makes one ``merge_shard`` call per key: the runs are put
      in term order by a stable Arrow sort of the term column, their
      payload columns decoded in one pass per column (disjoint doc sets
      per term), their batch ranks mapped to
      doc *ordinals* (rank in the snapshot's ascending doc_meta ids, as
      ``state.docstore.batch_ordinals`` defines them), merge-sorted and
      re-encoded into fixed-size blocks with df; many terms merge in one
      vectorized call (no per-term Ray scheduling).
      ``build_index`` derives the key count from the corpus size (at least
      64, ~7.8k docs per key past 500k docs), so one key's postings stay
      worker-sized; stopword filtering in code mode removes the worst Zipf
      offenders outright.

A block holds the ordinals, tfs and, optionally, the positions of up to
``block_size`` postings; scorers read doc lengths by ordinal from the doc
table.  ``functions.codecs`` alone knows how run and block payloads are
encoded: both phases call its ``encode_postings`` and the merge its
``decode_postings``, never a varbyte or delta primitive, and payloads stay
Arrow binary arrays from encode to decode (no ``bytes`` object per run or
block).
``build_index`` adds each block row's ``merge_key`` and writes one postings
file per merge task, one row group per key, so the query side prunes a
term's read to its key's row groups.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import codecs
from ..functions.hashing import term_shard
from ..functions.tokenizer import TOKENIZERS
from ..state import storage

RUN_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("merge_key", pa.int32()),
        ("n", pa.int32()),
        # doc ranks within the run's batch, and tfs (codecs.encode_postings)
        ("ids_enc", pa.large_binary()),
        ("tfs_enc", pa.large_binary()),
        # optional positional payload (codecs.encode_postings); empty
        # bytes when positions are disabled
        ("pos_enc", pa.large_binary()),
    ]
)

# one row per tokenize batch: its file stem ("{first id}-{n}"), doc and
# token counts and the bytes of its runs file
SUMMARY_SCHEMA = pa.schema(
    [
        ("stem", pa.string()),
        ("docs", pa.int64()),
        ("tokens", pa.int64()),
        ("run_bytes", pa.int64()),
    ]
)

BLOCK_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("block_id", pa.int32()),
        ("n", pa.int32()),
        ("doc_ids", pa.large_binary()),
        ("tfs", pa.large_binary()),
        ("positions", pa.large_binary()),
    ]
)


def key_ranges(n_keys: int, n_tasks: int) -> List[Tuple[int, int]]:
    """The contiguous ``[lo, hi)`` merge-key ranges of the phase-2 merge
    tasks, as even as ``np.array_split`` cuts them; phase 1 cuts each runs
    file's row groups at the same keys."""
    return [(int(part[0]), int(part[-1]) + 1)
            for part in np.array_split(np.arange(n_keys), n_tasks) if len(part)]


def _starts(lens: np.ndarray) -> np.ndarray:
    """Start index of each segment of the given lengths."""
    lens = np.asarray(lens, dtype=np.int64)
    return np.cumsum(lens) - lens


def _permute_segments(flat: np.ndarray, lens: np.ndarray,
                      order: np.ndarray) -> np.ndarray:
    """``flat`` cut into segments of ``lens``, the segments put in
    ``order``: one gather index, no per-segment slice."""
    lens_o = lens[order]
    gather = (np.repeat(_starts(lens)[order] - _starts(lens_o), lens_o)
              + np.arange(len(flat), dtype=np.int64))
    return flat[gather]


class TokenizeEncodeRuns:
    """Fused tokenize → per-doc TF → per-(term, batch) compressed run stage.

    A picklable callable run as stateless Ray Data tasks; the tokenizer's
    compiled regexes are module-level.  Per batch, all per-posting work is
    numpy or Arrow over integer term codes, never a sort of strings; the
    per-item Python is the tokenize and TF count per document and the
    merge-key hash per distinct term in the batch.  Each call writes the
    batch's doc-meta and runs files into ``meta_dir`` and ``runs_dir`` on
    ``fs`` (a picklable ``pyarrow.fs`` handle) and returns its summary row.
    """

    def __init__(
        self,
        mode: str,
        num_merge_keys: int,
        fs,
        meta_dir: str,
        runs_dir: str,
        key_starts: Sequence[int],
        store_positions: bool = False,
        store_content: bool = True,
    ):
        self._tokenize = TOKENIZERS[mode]
        self._num_merge_keys = num_merge_keys
        self._fs = fs
        self._meta_dir = meta_dir
        self._runs_dir = runs_dir
        # first key of each phase-2 key range: a runs file's row groups
        # start at these keys
        self._key_starts = np.asarray(key_starts, dtype=np.int64)
        self._store_positions = store_positions
        self._store_content = store_content

    def _write_meta(self, batch: pa.Table, doc_ids, doc_lens, stem: str) -> None:
        """The batch's doc-meta file, written from the tokenize task so the
        corpus is read ONCE for both outputs; its name (first doc_id + row
        count) makes a retried task overwrite its own file."""
        from .tokenize import doc_meta_batch

        meta = doc_meta_batch(batch, doc_lens=doc_lens, doc_ids=doc_ids)
        if not self._store_content:
            meta = meta.drop_columns(["content"])
        # zstd: the content column dominates the bytes; phase 1 at high
        # parallelism is disk-write-bound, so stronger compression is net CPU
        # well spent
        storage.write_table_idempotent(
            self._fs, meta, self._meta_dir, f"meta-{stem}.parquet",
            compression="zstd",
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .tokenize import _batch_doc_ids

        doc_ids = _batch_doc_ids(batch)
        if not doc_ids:
            return SUMMARY_SCHEMA.empty_table()
        # fail EARLY and clearly on duplicate identity — otherwise the
        # zero delta surfaces hours later as a cryptic codec error deep in
        # the merge ("delta_encode requires strictly ascending segments")
        uniq, counts = np.unique(doc_ids, return_counts=True)
        if len(uniq) != len(doc_ids):
            dups = uniq[counts > 1][:5].tolist()
            raise ValueError(
                f"duplicate doc_id(s) in corpus batch: {dups} — document "
                "identity is stable_doc_id(repo, path, commit); the same "
                "natural key appears more than once in the input"
            )
        contents = batch["content"].to_pylist()

        terms: List[str] = []
        post_tf: List[int] = []
        # per doc, its postings' token positions in posting order
        post_pos: List[np.ndarray] = []
        used_doc: List[int] = []  # docs that produced postings…
        used_n: List[int] = []  # …their distinct-term counts (np.repeat)
        doc_lens_out: List[int] = []  # per input row, for the meta sidecar
        tokenize = self._tokenize
        want_pos = self._store_positions
        for doc_id, content in zip(doc_ids, contents):
            if not content:
                doc_lens_out.append(0)
                continue
            toks = tokenize(content)
            doc_lens_out.append(len(toks))
            if not toks:
                continue
            if want_pos:
                # stable argsort groups equal tokens; the sorted indices ARE
                # the ascending token positions per term (replaces a per-
                # token Python dict — postings get globally re-sorted by
                # (term, doc) below, so per-doc term order is immaterial)
                arr = np.asarray(toks, dtype=object)
                t_order = np.argsort(arr, kind="stable")
                s_toks = arr[t_order]
                t_brk = np.flatnonzero(s_toks[1:] != s_toks[:-1]) + 1
                t_starts = np.concatenate(([0], t_brk))
                t_ends = np.concatenate((t_brk, [len(arr)]))
                terms.extend(s_toks[t_starts])
                post_tf.extend((t_ends - t_starts).tolist())
                post_pos.append(t_order.astype(np.int64, copy=False))
                n_terms = len(t_starts)
            else:
                freq = Counter(toks)
                terms.extend(freq.keys())
                post_tf.extend(freq.values())
                n_terms = len(freq)
            used_doc.append(doc_id)
            used_n.append(n_terms)

        stem = f"{doc_ids[0]}-{len(doc_ids)}"
        self._write_meta(batch, doc_ids, doc_lens_out, stem)
        runs = self._encode_runs(
            uniq, terms, post_tf, post_pos, used_doc, used_n)
        mk = runs["merge_key"].to_numpy()
        run_bytes = storage.write_table_idempotent(
            self._fs, runs, self._runs_dir, f"runs-{stem}.parquet",
            row_group_starts=np.searchsorted(mk, self._key_starts[1:]).tolist(),
            write_statistics=["merge_key"],
        )
        return pa.table(
            {"stem": [stem], "docs": [len(doc_ids)],
             "tokens": [sum(doc_lens_out)], "run_bytes": [run_bytes]},
            schema=SUMMARY_SCHEMA,
        )

    def _encode_runs(self, sorted_ids, terms, post_tf, post_pos, used_doc,
                     used_n) -> pa.Table:
        """The batch's runs (``RUN_SCHEMA``) sorted by (merge_key, term):
        one row per distinct term, its docs as ranks in ``sorted_ids``."""
        if not terms:
            return RUN_SCHEMA.empty_table()
        # dictionary-encode the terms and sort the distinct ones once (UTF-8
        # byte order is str order): a posting's term is then its integer
        # rank, and run i is the term of rank i.  large_string: a batch's
        # term bytes may pass the 2 GiB a string array's offsets hold
        codes = pa.array(terms, pa.large_string()).dictionary_encode()
        by_term = pc.sort_indices(codes.dictionary).to_numpy()
        run_terms = codes.dictionary.take(by_term).cast(pa.string())
        rank_of_code = np.empty(len(by_term), dtype=np.int64)
        rank_of_code[by_term] = np.arange(len(by_term))
        term_rank = rank_of_code[codes.indices.to_numpy()]
        doc_rank = np.repeat(np.searchsorted(sorted_ids, used_doc),
                             np.asarray(used_n, dtype=np.int64))
        tfs = np.asarray(post_tf, dtype=np.int64)
        order = np.lexsort((doc_rank, term_rank))
        n = np.bincount(term_rank, minlength=len(by_term))
        pos_deltas = None
        if self._store_positions:
            # a posting's tf is its count of positions
            pos_deltas = codecs.position_deltas(
                _permute_segments(np.concatenate(post_pos), tfs, order),
                tfs[order])
        # ONE vectorized encode pass per payload column, split at run
        # boundaries — byte-identical to per-run encoding but without ~3
        # numpy codec calls per tiny run (65% of stage time, profiled)
        ids_enc, tfs_enc, pos_enc = codecs.encode_postings(
            doc_rank[order], tfs[order], _starts(n), pos_deltas
        )
        merge_keys = np.fromiter(
            (term_shard(t, self._num_merge_keys) for t in run_terms.to_pylist()),
            dtype=np.int32, count=len(run_terms))
        runs = pa.table(
            {
                "term": run_terms,
                "merge_key": pa.array(merge_keys, pa.int32()),
                "n": pa.array(n.astype(np.int32), pa.int32()),
                "ids_enc": ids_enc,
                "tfs_enc": tfs_enc,
                "pos_enc": pos_enc,
            },
            schema=RUN_SCHEMA,
        )
        # runs are term-sorted, so a stable sort by key gives (key, term)
        return runs.take(np.argsort(merge_keys, kind="stable"))


def make_merge_shard(
    block_size: int,
) -> Callable[[pa.Table, np.ndarray, np.ndarray], pa.Table]:
    """Phase-2 merge body factory: one merge key's runs (many terms), each
    tagged with the index of its ``batch``, and the batches' doc ordinals
    (``state.docstore.batch_ordinals``: batch b's rank k is ordinal
    ``ordinals[offsets[b] + k]``) → final block rows (``BLOCK_SCHEMA``)
    whose ``doc_ids`` hold ordinals."""

    def merge_shard(group: pa.Table, ordinals: np.ndarray,
                    offsets: np.ndarray) -> pa.Table:
        """Decode every run in one codec pass, map its batch ranks to
        ordinals (one gather), ONE global lexsort over (term, ordinal) for
        all postings, block aggregates at block starts and one segmented
        re-encode at block boundaries — many terms per call, no per-term or
        per-block codec call.

        Positional runs never need absolute positions: each posting's
        payload is already a self-contained delta stream, so the merge is a
        SEGMENT PERMUTATION of the flat deltas into the sorted posting
        order (one np.repeat-built gather index)."""
        if group.num_rows == 0:
            return BLOCK_SCHEMA.empty_table()
        positional = pc.binary_length(group["pos_enc"]).to_numpy() > 0
        if positional.any() and not positional.all():
            # a block whose position payload covers only SOME postings
            # would be silently mis-split by the query side (positions are
            # cut at cumsum(tf) boundaries), so this state is a build-config
            # error, not a mergeable input — build_index pins
            # store_positions in build_config.json to prevent it; reject
            # clearly if reached through direct use
            raise ValueError(
                "merge group mixes positional and non-positional runs "
                "(store_positions changed between builds of the same "
                "index?) — rebuild with mode='fresh' or a consistent "
                "store_positions"
            )

        # runs in term order: a stable sort (UTF-8 byte order is str
        # order), then the payload columns taken into it and decoded in
        # one pass over their value buffers
        run_order = pc.sort_indices(group["term"])
        group = group.take(run_order)
        terms_o = group["term"].combine_chunks()
        ns_o = group["n"].to_numpy().astype(np.int64)
        ranks, tfs_pre = codecs.decode_postings(
            group["ids_enc"], group["tfs_enc"], ns_o)
        offsets = np.asarray(offsets, dtype=np.int64)
        batch = np.repeat(group["batch"].to_numpy(), ns_o)
        sizes = np.diff(offsets)[batch]
        past = np.flatnonzero(ranks >= sizes)
        if len(past):
            i = int(past[0])
            raise ValueError(
                f"runs hold doc rank {int(ranks[i])} of a batch of "
                f"{int(sizes[i])} docs: the snapshot's runs and doc_meta "
                "disagree"
            )
        ords = np.asarray(ordinals)[offsets[batch] + ranks]

        # distinct terms (runs are term-sorted): per-term posting segments
        t_brk = np.flatnonzero(pc.not_equal(
            terms_o[1:], terms_o[:-1]).to_numpy(zero_copy_only=False)) + 1
        uniq_terms = terms_o.take(np.concatenate(([0], t_brk)))
        run_term_rank = np.zeros(len(terms_o), dtype=np.int64)
        run_term_rank[t_brk] = 1
        run_term_rank = np.cumsum(run_term_rank)             # per run
        post_term_rank = np.repeat(run_term_rank, ns_o)      # per posting

        o = np.lexsort((ords, post_term_rank))               # ONE global sort
        ords, tfs_all = ords[o], tfs_pre[o]

        seg_lens = np.bincount(post_term_rank, minlength=len(uniq_terms)).astype(np.int64)
        seg_starts = _starts(seg_lens)

        # duplicate-doc_id detection must be WITHIN-term and must not lean on
        # the encoder: its ascending check resets at every block start, so
        # a duplicate landing exactly on a block boundary would be silently
        # accepted (block i's last doc equal to block i+1's first, which the
        # scorer would count twice).  After the lexsort ordinals are
        # ascending within each term, so any adjacent equal pair with equal
        # term rank is a duplicate; the term-rank mask also keeps a
        # legitimate cross-term coincidence (last doc of term A == first doc
        # of term B) from being misreported.
        ptr_sorted = post_term_rank[o]
        dup = np.flatnonzero(
            (ords[1:] == ords[:-1]) & (ptr_sorted[1:] == ptr_sorted[:-1])
        )
        if len(dup):
            i = int(dup[0])
            raise ValueError(
                f"duplicate doc ordinal {int(ords[i + 1])} in postings of "
                f"term {uniq_terms[int(ptr_sorted[i])].as_py()!r}: two runs "
                "of the term name the same doc"
            )

        # blocks per term; df per term is its segment length, since a
        # term's postings all sit in this merge key
        nb = (seg_lens + block_size - 1) // block_size
        total_blocks = int(nb.sum())
        term_of_block = np.repeat(np.arange(len(uniq_terms)), nb)
        blk_within = np.arange(total_blocks) - np.repeat(_starts(nb), nb)
        blk_starts = seg_starts[term_of_block] + blk_within * block_size
        blk_ends = np.minimum(
            blk_starts + block_size,
            (seg_starts + seg_lens)[term_of_block],
        )

        pos_deltas = None
        if positional[0]:
            # every run's flat delta stream at once, per-posting segments
            # permuted into sorted order
            pos_deltas = _permute_segments(
                codecs.decode_position_deltas(group["pos_enc"], tfs_pre),
                tfs_pre, o)

        # (duplicates were rejected above; the codec's own ascending check
        # remains as a backstop for non-block-boundary corruption)
        ids_b, tfs_b, pos_b = codecs.encode_postings(
            ords, tfs_all, blk_starts, pos_deltas
        )
        return pa.table(
            {
                "term": uniq_terms.take(term_of_block),
                "df": pa.array(seg_lens[term_of_block], pa.int64()),
                "block_id": pa.array(blk_within.astype(np.int32), pa.int32()),
                "n": pa.array((blk_ends - blk_starts).astype(np.int32), pa.int32()),
                "doc_ids": ids_b,
                "tfs": tfs_b,
                "positions": pos_b,
            },
            schema=BLOCK_SCHEMA,
        )

    return merge_shard
