"""Query engine: snapshot reader, reference tf·idf scorer (conformance mode),
one exact BM25 scorer (term-at-a-time into a dense accumulator over doc
ordinals, with an optional top-k cut), and ``QueryScorer``, whose
``search`` is the one query path: HTTP, CLI, Ray replicas and the
``map_batches`` stage all answer through it (SURVEY.md §2.3 T4, §7 step 4).

The reference's ``SearchService.search`` (search.py:67-126) is rebuilt as:
  - index state loaded ONCE per scorer in ``__init__`` (term dictionary +
    df, corpus stats, posting blocks) — vs the reference's per-(term,doc)
    SQLite round-trips (search.py:18-39);
  - per-doc token length read once per scorer, with the doc ids, from its
    one doc table (``state.docstore``) and looked up by doc ordinal — vs
    re-tokenizing the whole doc per query term (search.py:92);
  - snippets fetched only for the returned page via DocStore point lookups;
  - exact total_results / total_pages in every mode (search.py:119-126).

Reference scoring mode implements SURVEY.md §1.4 exactly: duplicate query
terms contribute per occurrence in token order (search.py:89), tf = count /
doc_len, idf = ln(N/(df+1)) (search.py:98), score>0 filter (search.py:102),
deterministic order (score desc, doc_id asc).

Serving imports neither Ray nor ``pyarrow.dataset``: the snapshot is read
through ``pyarrow.parquet`` (here and in ``state.docstore``), ``search_batch``
imports ``ray.data`` when called, and ``ScorerReplica`` (the Ray actor class)
is built on first access.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import EngineConfig
from ..functions import codecs
from ..functions.hashing import term_shard
from ..functions.scoring import (
    bm25_idf, bm25_term_score, build_snippet, ref_idf, ref_tf)
from ..functions.tokenizer import TOKENIZERS
from ..state import storage
from ..state.docstore import (
    SNAPSHOT_FORMAT, DocStore, int64_array, int64_view, load_stats, string_array)

RESULT_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.int32()),
        ("doc_id", pa.int64()),
        ("score", pa.float64()),
        ("url", pa.string()),
        ("title", pa.string()),
        ("snippet", pa.string()),
        ("total_results", pa.int64()),
        ("total_pages", pa.int64()),
    ]
)


class _LRU(OrderedDict):
    """term → cached value, least recently used first; ``nbytes`` is the
    sum of the values' sizes as given to ``put``."""

    def __init__(self):
        super().__init__()
        self.nbytes = 0
        self._sizes: Dict[str, int] = {}

    def put(self, term: str, value, nbytes: int) -> None:
        self[term] = value
        self._sizes[term] = nbytes
        self.nbytes += nbytes

    def drop(self, term: str) -> None:
        del self[term]
        self.nbytes -= self._sizes.pop(term)


class _Blocks(NamedTuple):
    """One term's encoded blocks in block order: each block's posting count
    and its three payload columns, Arrow binary arrays compacted to this
    term's blocks (``functions.codecs`` decodes them)."""

    n: np.ndarray
    doc_ids: pa.Array
    tfs: pa.Array
    positions: pa.Array


class PostingsIndex:
    """Lazily-loading view of one snapshot's posting blocks and term dfs.

    ``__init__`` loads ONLY block metadata (each block's term and df) —
    never the binary payloads: at 100× corpus the per-actor resident
    metadata stays ~1/1000 of the index bytes (VERDICT r1 "What's wrong"
    #1).  Payload columns (each block's posting count and encoded blobs)
    are fetched on demand, all of one query's terms in one call
    (``prefetch``), and LRU-cached under a byte budget.  Every block row
    of a format-2 snapshot carries its ``merge_key`` (``term_shard(term,
    stats["num_merge_groups"])``) and the build writes one row group per
    key, so ``__init__`` maps each key to its (file, row group) pairs from
    the postings files' footer statistics, and a term's read is those row
    groups alone.  (Merge keys hash terms, so term min/max statistics
    would prune nothing.)

    The index speaks doc *ordinals*, as its blocks store them:
    ``postings(term)`` is (ordinals, tfs).  ``docs`` is the doc table that
    defines them (``DocStore``; a ``QueryScorer`` hands in its own).  Blocks
    stay encoded until touched, and a term's blocks decode in one
    ``codecs.decode_postings`` pass; decoded postings and BM25 (doc
    ordinal, contribution) lists are LRU-cached per term, and the three
    caches share the one byte budget.
    """

    _PAYLOAD_COLS = ("doc_ids", "tfs", "positions")

    def __init__(
        self,
        index_dir: str,
        payload_budget_bytes: int = 256 << 20,
        docs: Optional[DocStore] = None,
    ):
        self.index_dir = index_dir
        self.stats = load_stats(index_dir)
        if self.stats.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"index {index_dir!r} predates snapshot format "
                f"{SNAPSHOT_FORMAT} (posting blocks keyed by doc ordinal); "
                "upgrade it with build_index(corpus, index_dir, "
                "mode=\"rebuild\"), which keeps its runs and re-merges them"
            )
        self.n_docs = int(self.stats["n_docs"])
        self.avgdl = float(self.stats["avgdl"])
        self.k1 = float(self.stats["bm25_k1"])
        self.b = float(self.stats["bm25_b"])
        self.docs = docs or DocStore(index_dir, pages=False)

        self._fs, root = storage.resolve(index_dir)
        self._terms: Dict[str, dict] = {}
        self._payloads = _LRU()  # term → encoded blocks
        self._decoded = _LRU()   # term → (doc ordinals, tfs)
        self._scored = _LRU()    # term → (doc ordinals, BM25 contributions)
        self._budget = payload_budget_bytes
        self._pinned: frozenset = frozenset()  # the current query's terms
        self._num_keys = int(self.stats["num_merge_groups"])
        # postings files with their footers, and merge key → the (file,
        # row group) pairs whose merge_key statistics cover it
        self._files: List[Tuple[str, "pq.FileMetaData"]] = []
        self._key_groups: Dict[int, List[Tuple[int, int]]] = {}
        self.meta_bytes = 0  # resident block-metadata accounting (bench)
        self.blocks_decoded = 0  # posting blocks decoded over the lifetime

        # an empty-but-valid snapshot has no postings files
        for path in storage.ls_files(self._fs, storage.join(root, "postings"),
                                     suffix=".parquet"):
            with pq.ParquetFile(path, filesystem=self._fs) as f:
                md = f.metadata
                tbl = f.read(columns=["term", "df"])
            self._index_row_groups(len(self._files), md)
            self._files.append((path, md))
            self.meta_bytes += tbl.nbytes
            for term, df in zip(tbl["term"].to_pylist(), tbl["df"].to_pylist()):
                e = self._terms.setdefault(term, {"df": df, "blocks": 0})
                e["blocks"] += 1

    def _index_row_groups(self, file_idx: int, md: "pq.FileMetaData") -> None:
        """Add file ``file_idx``'s row groups to the key map, each under
        every key its ``merge_key`` min/max statistics span (a row group
        without them under every key)."""
        col = md.schema.names.index("merge_key")
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(col).statistics
            lo, hi = ((st.min, st.max) if st is not None and st.has_min_max
                      else (0, self._num_keys - 1))
            for key in range(lo, hi + 1):
                self._key_groups.setdefault(key, []).append((file_idx, rg))

    def __contains__(self, term: str) -> bool:
        return term in self._terms

    def df(self, term: str) -> int:
        e = self._terms.get(term)
        return int(e["df"]) if e else 0

    def terms(self):
        return self._terms.keys()

    def n_blocks(self, term: str) -> int:
        e = self._terms.get(term)
        return e["blocks"] if e else 0

    # -- payload management ------------------------------------------------

    def _evict(self) -> None:
        """Drop least-recently-used entries until the three caches fit the
        one byte budget: decoded postings first, then scored lists, then
        encoded payloads (the only ones a miss reads from disk again).  The
        current query's terms are never dropped, whatever they cost."""
        caches = (self._decoded, self._scored, self._payloads)
        for lru in caches:
            while sum(c.nbytes for c in caches) > self._budget:
                old = next((t for t in lru if t not in self._pinned), None)
                if old is None:
                    break
                lru.drop(old)

    def prefetch(self, terms: Sequence[str]) -> None:
        """Fetch payload blobs for the given terms (call once per query with
        all its terms): the row groups of their merge keys, one read per
        postings file.  ``terms`` become the current query's, which no
        cache evicts until the next call; terms already resident are
        refreshed in LRU order."""
        self._pinned = frozenset(terms)
        missing = []
        for t in terms:
            if t in self._payloads:
                self._payloads.move_to_end(t)
            elif t in self._terms:
                missing.append(t)
        if not missing:
            return
        tbl = self._read_terms(missing)
        by_term: Dict[str, list] = {t: [] for t in missing}
        for row, (t, block_id) in enumerate(zip(tbl["term"].to_pylist(),
                                                tbl["block_id"].to_pylist())):
            by_term[t].append((block_id, row))
        for t, rows in by_term.items():
            # a take copies the term's blocks into buffers of their own, so
            # a cache entry pins no other term's bytes
            part = tbl.take(int64_array([row for _, row in sorted(rows)]))
            blocks = _Blocks(
                np.array(part["n"].to_pylist(), dtype=np.int64),
                *(part[c].combine_chunks() for c in self._PAYLOAD_COLS))
            self._payloads.put(t, blocks, blocks.n.nbytes + sum(
                a.nbytes for a in blocks[1:]))
        self._evict()

    def _read_terms(self, terms: Sequence[str]) -> pa.Table:
        """The block rows of ``terms`` (term, block_id, n and the payload
        columns): their merge keys' row groups, then the terms' rows."""
        by_file: Dict[int, set] = {}
        for key in {term_shard(t, self._num_keys) for t in terms}:
            for fi, rg in self._key_groups.get(key, ()):
                by_file.setdefault(fi, set()).add(rg)
        parts = []
        for fi, rgs in sorted(by_file.items()):
            path, md = self._files[fi]
            with pq.ParquetFile(path, metadata=md, filesystem=self._fs) as f:
                parts.append(f.read_row_groups(
                    sorted(rgs),
                    columns=["term", "block_id", "n", *self._PAYLOAD_COLS]))
        tbl = pa.concat_tables(parts)
        return tbl.filter(pc.is_in(tbl["term"], value_set=string_array(terms)))

    def _payload(self, term: str) -> "_Blocks":
        got = self._payloads.get(term)
        if got is None:
            self.prefetch([term])
            got = self._payloads[term]
        else:
            self._payloads.move_to_end(term)
        return got

    def decode_block(self, term: str, block_idx: int):
        """(doc ordinals, tfs) of one block of ``term``."""
        b = self._payload(term)
        self.blocks_decoded += 1
        return codecs.decode_postings(b.doc_ids.slice(block_idx, 1),
                                      b.tfs.slice(block_idx, 1),
                                      b.n[block_idx:block_idx + 1])

    def positions(self, term: str) -> List[np.ndarray]:
        """Per-posting absolute token positions for a term (requires an index
        built with store_positions=True), aligned with ``postings(term)``."""
        b = self._payload(term)
        if not int64_view(pc.binary_length(b.positions)).all():
            raise ValueError(
                f"index has no positional payload for term {term!r} "
                "(build with EngineConfig(store_positions=True))"
            )
        return codecs.decode_positions(b.positions, self.postings(term)[1])

    def _decode(self, term: str) -> Tuple[np.ndarray, np.ndarray]:
        """(doc ordinals, tfs) of every block of ``term`` in one codec pass;
        ordinals past the last doc (a corrupt block) raise ValueError."""
        b = self._payload(term)
        ords, tfs = codecs.decode_postings(b.doc_ids, b.tfs, b.n)
        self.blocks_decoded += len(b.n)
        if ords[-1] >= self.n_docs:
            raise ValueError(
                f"index {self.index_dir!r}: term {term!r} has a posting for "
                f"doc ordinal {int(ords[-1])}, past the {self.n_docs} docs "
                "of doc_meta; the snapshot is inconsistent"
            )
        return ords, tfs

    def postings(self, term: str) -> Tuple[np.ndarray, np.ndarray]:
        """Full decoded (doc ordinals, tfs) for a term; LRU-cached under
        the byte budget."""
        hit = self._decoded.get(term)
        if hit is not None:
            self._decoded.move_to_end(term)
            return hit
        out = self._decode(term)
        self._decoded.put(term, out, sum(a.nbytes for a in out))
        self._evict()
        return out

    # -- BM25 over dense doc ordinals ----------------------------------------

    def bm25_postings(
        self, terms: Sequence[str]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per term, (doc ordinals, BM25 contributions) of its postings, in
        doc order.  Contributions are query-independent (idf is per term),
        so each term's pair is computed once and LRU-cached under the byte
        budget; ``terms`` themselves are never evicted by this call."""
        missing = [t for t in terms if t not in self._scored]
        if missing:
            self.prefetch(terms)  # one pruned scan for the missing ones
            lens = self.docs.lens
            for t in missing:
                ords, tfs = self._decode(t)
                contribs = bm25_term_score(
                    tfs, lens[ords], bm25_idf(self.df(t), self.n_docs),
                    self.avgdl, self.k1, self.b)
                self._scored.put(t, (ords, contribs),
                                 ords.nbytes + contribs.nbytes)
            self._evict()
        out = []
        for t in terms:
            self._scored.move_to_end(t)
            out.append(self._scored[t])
        return out


# ---------------------------------------------------------------------------
# scorers
# ---------------------------------------------------------------------------

def score_reference(index: PostingsIndex, query: str) -> Tuple[np.ndarray, np.ndarray]:
    """Exact reference-mode scoring (SURVEY.md §1.4). Returns (doc_ids, scores)
    ordered by (score desc, doc_id asc), score>0 only.  Ranks doc ordinals,
    which sort as doc ids do."""
    tokens = TOKENIZERS["reference"](query)
    present = [t for t in tokens if t in index]
    if not present:
        return np.empty(0, dtype=np.int64), np.empty(0)
    index.prefetch(sorted(set(present)))  # one pruned scan for all terms
    union = np.unique(np.concatenate([index.postings(t)[0] for t in set(present)]))
    acc = np.zeros(len(union), dtype=np.float64)
    for tok in present:  # token order, duplicates twice — search.py:89
        ords, tfs = index.postings(tok)
        tf = ref_tf(tfs, index.docs.lens[ords])
        acc[np.searchsorted(union, ords)] += tf * ref_idf(index.df(tok), index.n_docs)
    keep = acc > 0  # search.py:102
    ords, scores = union[keep], acc[keep]
    order = np.lexsort((ords, -scores))
    return index.docs.ids[ords[order]], scores[order]


def score_phrase(
    index: PostingsIndex, phrase: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact phrase matching via positional postings — the reference's
    *intended* ``InvertedIndex.position`` variant (search.py:26-39; the
    wired schema never stored positions, SURVEY §1 note 2).

    Returns (doc_ids, n_occurrences) for docs containing the tokenized
    phrase contiguously, n>0, ordered (n desc, doc_id asc).  Candidates =
    intersection of the phrase terms' posting lists (rarest-first);
    occurrences counted by intersecting shifted position sets.
    """
    tokens = TOKENIZERS["reference"](phrase)
    if not tokens or any(t not in index for t in tokens):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    index.prefetch(sorted(set(tokens)))
    post = {t: index.postings(t) for t in set(tokens)}
    pos = {t: index.positions(t) for t in set(tokens)}
    # candidate docs: intersect posting lists, rarest term first
    by_df = sorted(set(tokens), key=lambda t: index.df(t))
    cand = post[by_df[0]][0]
    for t in by_df[1:]:
        cand = np.intersect1d(cand, post[t][0], assume_unique=True)
        if len(cand) == 0:
            break

    out_ords, out_n = [], []
    for doc in cand.tolist():
        live = None
        for k, t in enumerate(tokens):
            idx_in_postings = int(np.searchsorted(post[t][0], doc))
            p = pos[t][idx_in_postings] - k  # align occurrence starts
            live = p if live is None else np.intersect1d(live, p, assume_unique=True)
            if len(live) == 0:
                break
        n = len(live) if live is not None else 0
        if n:
            out_ords.append(doc)
            out_n.append(n)
    ords = np.array(out_ords, dtype=np.int64)
    ns = np.array(out_n, dtype=np.int64)
    order = np.lexsort((ords, -ns))  # ordinals sort as doc ids do
    return index.docs.ids[ords[order]], ns[order]


def score_bm25_taat(
    index: PostingsIndex,
    query: str,
    top_k: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact BM25 over the unique query terms, term-at-a-time into one dense
    accumulator indexed by doc ordinal (``PostingsIndex.bm25_postings``).
    Returns (doc_ids, scores) ordered (score desc, doc_id asc), cut at
    ``top_k`` when given.

    ``np.bincount`` adds each doc's contributions in input order, which is
    term-major sorted-term order: the same floating-point addition sequence
    as ``np.unique`` + ``np.add.at`` over the concatenated lists, so scores
    and tie order do not depend on the accumulator (the tests keep that
    formulation as the reference).  The top-k cut keeps every score at or
    above the k-th before ordering, so exact ties across the cut resolve by
    doc id.  Ordinals sort as doc ids do.

    ``stats`` (if given) receives ``blocks_decoded`` (posting blocks this
    call decoded), ``blocks_total`` (the query terms' blocks) and ``hits``
    (the exact number of matching docs, before the top-k cut).
    """
    tokens = TOKENIZERS["code"](query)
    uniq = sorted(set(t for t in tokens if t in index))
    decoded_before = index.blocks_decoded
    lists = index.bm25_postings(uniq)
    if stats is not None:
        stats["blocks_decoded"] = index.blocks_decoded - decoded_before
        stats["blocks_total"] = sum(index.n_blocks(t) for t in uniq)
        stats["hits"] = 0
    if not uniq:
        return np.empty(0, dtype=np.int64), np.empty(0)
    acc = np.bincount(
        np.concatenate([ords for ords, _ in lists]),
        weights=np.concatenate([contribs for _, contribs in lists]),
    )
    # every contribution is > 0 (tf >= 1, and idf > 0 because df <= N), so
    # the matched docs are exactly the nonzero accumulator slots
    hit = np.flatnonzero(acc)
    if stats is not None:
        stats["hits"] = len(hit)
    scores = acc[hit]
    if top_k is not None and 0 < top_k < len(hit):
        kth = np.partition(scores, len(scores) - top_k)[len(scores) - top_k]
        keep = scores >= kth
        hit, scores = hit[keep], scores[keep]
    order = np.lexsort((hit, -scores))[:top_k]
    return index.docs.ids[hit[order]], scores[order]


def score_bm25_wand(
    index: PostingsIndex, query: str, top_k: int = 10, stats: Optional[dict] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``top_k`` BM25, the scoring call of serving mode ``bm25_wand``:
    :func:`score_bm25_taat` cut at ``top_k`` (same ids, scores and
    ``stats``).  The name is the mode's; block-max WAND pruning lost to the
    dense accumulator on every warm regime measured (BASELINE.md)."""
    return score_bm25_taat(index, query, top_k=top_k, stats=stats)


# ---------------------------------------------------------------------------
# serving: the one query path
# ---------------------------------------------------------------------------

class QueryScorer:
    """One warm query engine over a snapshot.  ``__init__`` loads the term
    stats, the posting-block metadata and the doc store once; ``search``
    answers one (query, page, per_page) with the reference envelope
    (search.py:119-126).  ``__call__`` is the same answer as a stage for
    ``queries_ds.map_batches(QueryScorer, fn_constructor_kwargs=...)``.

    Modes:
      - "reference": exact §1.4 tf·idf conformance scoring
      - "bm25" / "bm25_wand" (one mode, two names): exact BM25 ranked down
        to max(page · per_page, top_k) (``score_bm25_wand``).
    ``total_results`` / ``total_pages`` are exact in every mode.
    """

    def __init__(
        self,
        index_dir: str,
        mode: str = "reference",
        top_k: int = 100,
        with_snippets: bool = True,
    ):
        if mode not in ("reference", "bm25", "bm25_wand"):
            raise ValueError(f"unknown scoring mode {mode!r}")
        # one doc_meta read per scorer: its index and its page lookups
        # share the one doc table
        docs = DocStore(index_dir, pages=with_snippets)
        self.index = PostingsIndex(index_dir, docs=docs)
        self.mode = mode
        self.top_k = top_k
        self.docstore = docs if with_snippets else None
        self._last: Optional[Tuple] = None  # (query, cut, ids, scores, total)

    def _score(self, query: str, need: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """(ids, scores, total): the ranking, at least its first ``need``
        docs, and the exact match count.  The last query is memoized, so
        its other pages inside the same cut do not score again."""
        cut = None if self.mode == "reference" else max(need, self.top_k)
        if self._last is not None and self._last[:2] == (query, cut):
            return self._last[2:]
        if cut is None:
            ids, scores = score_reference(self.index, query)
            total = len(ids)
        else:
            st: dict = {}
            ids, scores = score_bm25_wand(self.index, query, top_k=cut, stats=st)
            total = st["hits"]
        self._last = (query, cut, ids, scores, total)
        return ids, scores, total

    def search(self, query: str, page: int = 1, per_page: int = 10) -> dict:
        """The envelope for one page of ``query``'s ranking.  ``page`` and
        ``per_page`` clamp to at least 1 (a negative page would slice the
        ranking's tail); a page past the last hit has no results and the
        exact totals."""
        page, per_page = max(1, int(page)), max(1, int(per_page))
        lo = (page - 1) * per_page
        ids, scores, total = self._score(query, need=lo + per_page)
        page_ids = ids[lo:lo + per_page].tolist()
        page_scores = scores[lo:lo + per_page].tolist()
        meta: Dict[int, dict] = {}
        if self.docstore is not None and page_ids:
            meta = self.docstore.fetch(page_ids)
        # snippet highlight terms follow the SCORING tokenizer: in code
        # modes a doc may match only via split sub-tokens, which the
        # reference tokenizer would not find in the text
        qterms = TOKENIZERS[
            "reference" if self.mode == "reference" else "code"
        ](query)
        results = []
        for doc_id, score in zip(page_ids, page_scores):
            d = meta.get(doc_id, {})
            results.append({
                "url": d.get("url", ""),
                "title": d.get("title", ""),
                "snippet": (build_snippet(d.get("content") or "", qterms)
                            if self.docstore is not None else ""),
                "score": score,
                "doc_id": doc_id,
            })
        return {
            "query": query,
            "total_results": total,
            "page": page,
            "per_page": per_page,
            "total_pages": (total + per_page - 1) // per_page,  # search.py:124
            "results": results,
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        """One ``RESULT_SCHEMA`` row per result of :meth:`search` for each
        (query_id, query[, page, per_page]) row; only a null or absent page
        / per_page takes its default (1 / 10)."""
        n = batch.num_rows
        pages, pps = (
            batch[c].to_pylist() if c in batch.column_names else [None] * n
            for c in ("page", "per_page")
        )
        rows = []
        for qid, query, page, per_page in zip(
            batch["query_id"].to_pylist(), batch["query"].to_pylist(),
            pages, pps,
        ):
            env = self.search(query, 1 if page is None else page,
                              10 if per_page is None else per_page)
            lo = (env["page"] - 1) * env["per_page"]
            for rank, res in enumerate(env["results"], lo + 1):
                rows.append({"query_id": qid, "rank": rank, **res,
                             "total_results": env["total_results"],
                             "total_pages": env["total_pages"]})
        return pa.Table.from_pylist(rows, schema=RESULT_SCHEMA)


def search_batch(
    index_dir: str,
    queries: "ray.data.Dataset | List[dict]",
    mode: str = "reference",
    cfg: Optional[EngineConfig] = None,
    concurrency: int = 2,
    batch_size: int = 64,
    with_snippets: bool = True,
) -> "ray.data.Dataset":
    """Score a Dataset (or list) of queries through the actor pool."""
    import ray.data

    cfg = cfg or EngineConfig()
    if isinstance(queries, list):
        queries = ray.data.from_items(queries)
    return queries.map_batches(
        QueryScorer,
        fn_constructor_kwargs=dict(
            index_dir=index_dir,
            mode=mode,
            top_k=cfg.top_k,
            with_snippets=with_snippets,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class _ScorerReplica:
    """One warm ``QueryScorer`` per actor PROCESS — the GIL-free serving
    replica behind ``SearchServer(scorer_replicas=N)``, as the Ray actor
    class ``ScorerReplica`` (``ray.remote(num_cpus=1)`` of this class).
    In-process scoring holds the interpreter lock, so one server process
    scores one query at a time (measured: a pool of 8 in-process scorers
    served 8 concurrent HTTP clients BELOW one client's throughput); N
    replicas put each scorer on its own core, so concurrent qps scales
    with replicas until the index's payload reads bound it.  Answers are
    byte-identical to the in-process path (same scorer, same snippets)."""

    def __init__(self, index_dir: str, mode: str = "reference"):
        self._scorer = QueryScorer(index_dir, mode=mode)

    def search(self, query: str, page: int = 1, per_page: int = 10) -> dict:
        return self._scorer.search(query, page, per_page)


def __getattr__(name: str):
    """``ScorerReplica``, the Ray actor class of ``_ScorerReplica``, built
    on first access (PEP 562) so that importing this module imports no
    Ray; later lookups find it in the module globals."""
    if name == "ScorerReplica":
        import ray

        globals()[name] = ray.remote(num_cpus=1)(_ScorerReplica)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def search_one(
    index_dir: str,
    query: str,
    page: int = 1,
    per_page: int = 10,
    mode: str = "reference",
) -> dict:
    """Single-query envelope matching the reference response shape
    (search.py:119-126), computed driver-side without an actor pool.

    Builds a fresh scorer per call — a long-lived serving process should
    hold one ``QueryScorer`` and call its ``search`` instead (the REST
    façade does), keeping the lazy index's payload LRU warm."""
    return QueryScorer(index_dir, mode=mode).search(query, page, per_page)


def search_with_scorer(
    scorer: "QueryScorer", query: str, page: int = 1, per_page: int = 10
) -> dict:
    """``scorer.search``: the serving entry point, looked up on this
    module per request."""
    return scorer.search(query, page=page, per_page=per_page)
