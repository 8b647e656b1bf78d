"""Corpus sources.

Primary input shape (BASELINE.json input_hint):
    repo:string, path:string, commit:string, lang:string, content:large_string

Two sources:
  1. ``write_synthetic_corpus`` — the deterministic (seed-fixed) synthetic
     source-code corpus of FIXTURES.md §1, written as N parquet files so reads
     parallelize.  Replaces the reference's HTTP fetcher (crawler.py:64-74):
     the rebuilt engine ingests Parquet, it does not crawl.
  2. ``read_corpus`` / ``corpus_from_documents`` — read a corpus directory, or
     adapt the driver-provided ``documents.parquet``
     (doc_id,text,lang,source,n_chars) to the corpus shape via a thin
     column-rename map_batches (FIXTURES.md §6).

Schemas are explicit, never inferred.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import List, Optional

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

CORPUS_SCHEMA = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.large_string()),
    ]
)

_LANGS = ["py", "js", "java", "go", "rs", "md"]
_EXT = {"py": "py", "js": "js", "java": "java", "go": "go", "rs": "rs", "md": "md"}

# Vocabulary pools for synthetic content.  Hot terms appear in (almost) every
# doc to force Zipf skew in the groupby(term) shuffle; "return" appears in
# EVERY doc (df == N edge case); "zzz_absent_term" is guaranteed never
# generated (0-df query edge case).
_HOT_TERMS = ["the", "self", "return", "i", "x"]
_PLAIN_WORDS = [
    "error", "value", "result", "data", "index", "token", "parse", "stream",
    "block", "merge", "shard", "query", "score", "count", "batch", "vector",
]
_SNAKE_NAMES = ["snake_case_name", "build_index", "doc_len", "term_freq", "max_score"]
_CAMEL_NAMES = ["camelCaseName", "getValue", "HTTPServer", "parseJSON", "innerLoop"]
_OPERATORS = ["==", "->", "+=", "&&", "||", "::", "{}", "()", ";"]
_UNICODE_WORDS = ["naïve", "übung", "変数"]

EVERY_DOC_TERM = "return"
ABSENT_TERM = "zzz_absent_term"


def _commit_of(i: int) -> str:
    return hashlib.sha1(f"commit-{i}".encode()).hexdigest()


def _make_content(i: int, rng: random.Random, lines_scale: int = 1) -> str:
    """Deterministic pseudo source code for doc i.  ``lines_scale`` multiplies
    the line count (realistic source files are KBs; used by the scaling
    bench)."""
    # special rows
    if i % 97 == 13:
        return ""  # empty content row
    if i % 97 == 29:
        return "!!! ... ??? ;;; ***"  # punctuation-only: tokenizes to nothing
    parts: List[str] = []
    n_lines = (3 + (i % 6)) * lines_scale
    for _ in range(n_lines):
        line = [
            "def" if rng.random() < 0.3 else "fn",
            rng.choice(_SNAKE_NAMES),
            rng.choice(_OPERATORS),
            rng.choice(_CAMEL_NAMES),
            str(rng.randint(0, 9999)),
            rng.choice(_PLAIN_WORDS),
            rng.choice(_HOT_TERMS),
            rng.choice(_HOT_TERMS),
        ]
        parts.append(" ".join(line))
    if i % 11 == 5:
        parts.append(" ".join(_UNICODE_WORDS))
    parts.append(f"{EVERY_DOC_TERM} {rng.choice(_PLAIN_WORDS)}")
    content = "\n".join(parts)
    if i % 53 == 7 and i >= 53:
        # exact duplicate of an earlier doc's content (dedup fixture)
        return _make_content(i - 53, random.Random(10_000 + (i - 53)), lines_scale)
    return content


def synthetic_corpus_table(start: int, stop: int, lines_scale: int = 1) -> pa.Table:
    """Rows [start, stop) of the deterministic synthetic corpus (seed=42)."""
    repos, paths, commits, langs, contents = [], [], [], [], []
    for i in range(start, stop):
        lang = _LANGS[i % len(_LANGS)]
        repos.append(f"org{i % 7}/proj{i % 23}")
        paths.append(f"src/pkg{i % 11}/mod_{i}.{_EXT[lang]}")
        commits.append(_commit_of(i))
        langs.append(lang)
        contents.append(_make_content(i, random.Random(10_000 + i), lines_scale))
    return pa.table(
        {
            "repo": pa.array(repos, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array(commits, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "content": pa.array(contents, pa.large_string()),
        },
        schema=CORPUS_SCHEMA,
    )


def write_synthetic_corpus(
    out_dir: str, n_docs: int = 2000, n_files: int = 8, lines_scale: int = 1
) -> str:
    """Write the synthetic corpus as ``n_files`` parquet files under out_dir.

    Files are row ranges — deterministic layout, independent of parallelism —
    so resume/lineage tests can address input partitions by file name.
    Generation itself parallelizes over files via Ray tasks when a session is
    up (driver-side loop otherwise).  Stale ``part-*.parquet`` files from a
    previous (larger) run at the same path are removed first — otherwise a
    re-run with fewer files silently serves a MIXED corpus to every reader.
    """
    os.makedirs(out_dir, exist_ok=True)
    for f in os.listdir(out_dir):
        if f.startswith("part-") and f.endswith(".parquet"):
            os.unlink(os.path.join(out_dir, f))
    per = (n_docs + n_files - 1) // n_files
    ranges = []
    for f in range(n_files):
        lo, hi = f * per, min((f + 1) * per, n_docs)
        if lo < hi:
            ranges.append((f, lo, hi))

    def _write_one(f, lo, hi):
        pq.write_table(
            synthetic_corpus_table(lo, hi, lines_scale),
            os.path.join(out_dir, f"part-{f:05d}.parquet"),
        )

    if ray.is_initialized() and len(ranges) > 1:
        import ray as _ray

        @_ray.remote
        def _task(f, lo, hi):
            _write_one(f, lo, hi)

        _ray.get([_task.remote(*r) for r in ranges])
    else:
        for r in ranges:
            _write_one(*r)
    return out_dir


def read_corpus(path: str, columns: Optional[List[str]] = None) -> "ray.data.Dataset":
    """Read a corpus directory/file with column pruning at the read."""
    return ray.data.read_parquet(path, columns=columns)


def adapt_documents_batch(batch: pa.Table) -> pa.Table:
    """Batch adapter: driver ``documents`` row shape → corpus shape.

    text→content; repo/path/commit synthesized deterministically from
    source/doc_id (FIXTURES.md §6).  doc_id is preserved as the engine doc id.
    """
    doc_ids = batch["doc_id"].to_pylist()
    sources = batch["source"].to_pylist()
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "repo": pa.array([f"testdata/{s}" for s in sources], pa.string()),
            "path": pa.array(
                [f"{s}/doc_{d}.txt" for s, d in zip(sources, doc_ids)],
                pa.string(),
            ),
            "commit": pa.array(
                [hashlib.sha1(f"doc-{d}".encode()).hexdigest() for d in doc_ids],
                pa.string(),
            ),
            "lang": batch["lang"],
            "content": batch["text"].cast(pa.large_string()),
        }
    )


_LANG_BY_EXT = {
    "py": "py", "js": "js", "ts": "js", "java": "java", "go": "go",
    "rs": "rs", "md": "md", "c": "c", "h": "c", "cpp": "cpp", "txt": "md",
}


def corpus_from_source_tree(
    root: str, repo: str = "local/tree", commit: str = "worktree"
) -> "ray.data.Dataset":
    """Ingest a directory tree of raw source files into the corpus shape —
    the real-world entry path when the input is a checkout rather than
    pre-built Parquet.  Uses ``read_binary_files(include_paths=True)`` so the
    read parallelizes per file; decoding is utf-8 with replacement (never
    fails the job; binary junk becomes replacement chars and is quarantined
    downstream by content rules if desired)."""
    root = os.path.abspath(root)
    ds = ray.data.read_binary_files(root, include_paths=True)

    def to_corpus(batch: pa.Table) -> pa.Table:
        paths = batch["path"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        rels, langs, contents = [], [], []
        for p, b in zip(paths, blobs):
            rel = os.path.relpath(p, root)
            rels.append(rel)
            ext = rel.rsplit(".", 1)[-1].lower() if "." in rel else ""
            langs.append(_LANG_BY_EXT.get(ext, "other"))
            contents.append((b or b"").decode("utf-8", errors="replace"))
        n = len(rels)
        return pa.table(
            {
                "repo": pa.array([repo] * n, pa.string()),
                "path": pa.array(rels, pa.string()),
                "commit": pa.array([commit] * n, pa.string()),
                "lang": pa.array(langs, pa.string()),
                "content": pa.array(contents, pa.large_string()),
            },
            schema=CORPUS_SCHEMA,
        )

    return ds.map_batches(to_corpus, batch_format="pyarrow", zero_copy_batch=True)


def _rows_to_corpus(
    batch: pa.Table,
    text_col: str,
    lang_col: Optional[str],
    id_col: Optional[str],
    repo: str,
) -> pa.Table:
    """Generic row-shape → corpus-shape adapter body (JSONL/CSV ingest).

    Identity: ``id_col`` (int64) passes through as the engine doc_id;
    otherwise path derives from the content sha1, so identity is
    deterministic across re-ingests — exact-duplicate texts then collide
    on doc_id and the build fails LOUDLY (tokenize's duplicate-id guard):
    run ``exact_dedup`` / dedup the raw rows first, which a training
    pipeline wants anyway."""
    n = batch.num_rows
    if n > 0 and text_col not in batch.column_names:
        # a WRONG --text-col must fail loudly, not drop every row: only
        # genuinely empty reader blocks take the empty-schema branch below
        raise KeyError(
            f"text column {text_col!r} not in input columns "
            f"{batch.column_names} — pass text_col=<the right name>"
        )
    if n == 0:
        # Arrow's NDJSON reader can emit empty zero-column blocks; return
        # the corpus schema so downstream unions see one shape
        cols = {} if id_col is None else {"doc_id": pa.array([], pa.int64())}
        cols.update(
            {
                "repo": pa.array([], pa.string()),
                "path": pa.array([], pa.string()),
                "commit": pa.array([], pa.string()),
                "lang": pa.array([], pa.string()),
                "content": pa.array([], pa.large_string()),
            }
        )
        return pa.table(cols)
    content = batch[text_col].cast(pa.large_string())
    if lang_col is not None and lang_col in batch.column_names:
        lang = batch[lang_col].cast(pa.string())
    else:
        lang = pa.array(["other"] * n, pa.string())
    if id_col is not None:
        ids = batch[id_col].cast(pa.int64())
        paths = [f"row_{d}.txt" for d in ids.to_pylist()]
        cols = {"doc_id": ids}
    else:
        paths = [
            f"doc_{hashlib.sha1((c or '').encode()).hexdigest()[:20]}.txt"
            for c in content.to_pylist()
        ]
        cols = {}
    cols.update(
        {
            "repo": pa.array([repo] * n, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array(["ingest"] * n, pa.string()),
            "lang": lang,
            "content": content,
        }
    )
    return pa.table(cols)


def corpus_from_jsonl(
    path: str,
    text_col: str = "text",
    lang_col: Optional[str] = None,
    id_col: Optional[str] = None,
    repo: str = "jsonl/ingest",
) -> "ray.data.Dataset":
    """Ingest newline-delimited JSON (the pretraining-corpus interchange
    format) into the corpus shape.  ``ray.data.read_json`` drives Arrow's
    C++ NDJSON reader per file — the read parallelizes per file and
    streams with block splitting, so a TB-scale JSONL dump never
    materializes.  ``.gz`` members decompress inline (the common
    pretraining-dump layout).  Chain into ``write_corpus`` +
    ``build_index`` (the build's resume contract is parquet-file-based)."""
    exts = (".jsonl", ".json", ".ndjson")
    gz_exts = tuple(f"{e}.gz" for e in exts)
    if os.path.isdir(path):
        # recursive walk, split by compression: gzip must be declared per
        # READ (arrow_open_stream_args applies to every file of a read),
        # so mixed plain/gz dumps become two reads unioned back together
        plain, gz = [], []
        for root, _, files in os.walk(path):
            for f in sorted(files):
                full = os.path.join(root, f)
                if f.endswith(gz_exts):
                    gz.append(full)
                elif f.endswith(exts):
                    plain.append(full)
        if not plain and not gz:
            raise FileNotFoundError(
                f"no {'/'.join(exts)}(.gz) files under {path}"
            )
    else:
        plain, gz = ([], [path]) if path.endswith(".gz") else ([path], [])
    # the file lists are final: ray's own extension filter would drop the
    # .ndjson members (its default list has only json/jsonl)
    parts = []
    if plain:
        parts.append(ray.data.read_json(plain, file_extensions=None))
    if gz:
        parts.append(
            ray.data.read_json(
                gz, arrow_open_stream_args={"compression": "gzip"},
                file_extensions=None,
            )
        )
    ds = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
    return ds.map_batches(
        lambda b: _rows_to_corpus(b, text_col, lang_col, id_col, repo),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def corpus_from_csv(
    path: str,
    text_col: str = "text",
    lang_col: Optional[str] = None,
    id_col: Optional[str] = None,
    repo: str = "csv/ingest",
) -> "ray.data.Dataset":
    """CSV twin of ``corpus_from_jsonl`` (Arrow C++ CSV reader)."""
    ds = ray.data.read_csv(path)
    return ds.map_batches(
        lambda b: _rows_to_corpus(b, text_col, lang_col, id_col, repo),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# marks a directory as write_corpus output, which later writes may clear
CORPUS_MARKER = ".uciray_corpus"


def write_corpus(ds: "ray.data.Dataset", out_dir: str) -> str:
    """Materialize a corpus-shaped Dataset as a parquet directory the
    index build can consume (and resume over: the build's checkpoint
    groups hash FILE names, so the part files written here are the
    incremental-ingest unit).  Stale part files from a previous run are
    CLEARED first — ray's writer uses fresh UUID names per run, so a
    re-ingest into the same dir would otherwise silently serve a MIXED
    corpus (the write_synthetic_corpus hazard, ADVICE r4).

    Only a directory this function wrote is cleared: the first write leaves
    a ``.uciray_corpus`` marker, and a non-empty directory without one is
    refused rather than emptied."""
    marker = os.path.join(out_dir, CORPUS_MARKER)
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        if not os.path.exists(marker):
            raise ValueError(
                f"write_corpus: {out_dir!r} is non-empty and was not written "
                f"by write_corpus (no {CORPUS_MARKER} marker); its parquet "
                "files would be deleted — pass an empty or new directory."
            )
        for f in os.listdir(out_dir):
            if f.endswith(".parquet"):
                os.remove(os.path.join(out_dir, f))
    os.makedirs(out_dir, exist_ok=True)
    with open(marker, "w") as fh:
        fh.write("corpus written by write_corpus; its parquet parts are "
                 "replaced on the next write\n")
    ds.write_parquet(out_dir)
    return out_dir


def corpus_from_documents(sf_dir: str) -> "ray.data.Dataset":
    """Adapt driver testdata ``documents.parquet`` to the corpus shape."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    )
    return ds.map_batches(
        adapt_documents_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# synthetic DOCUMENTS table (testdata shape) for curation-at-scale benches
# ---------------------------------------------------------------------------

_DOC_LANGS = ["en", "de", "es", "fr"]
# per-lang marker words (mirror functions/textstats.LANG_MARKERS so lang-ID
# resolves to the declared lang) + neutral filler that is neither a marker
# nor an English stopword, keeping curate's stopword-ratio filter happy
_DOC_MARKERS = {
    "en": ["that", "it", "is"],
    "de": ["der", "und", "nicht"],
    "es": ["el", "que", "los"],
    "fr": ["les", "des", "pour"],
}
_DOC_FILLER = [
    "merge", "vector", "stream", "kernel", "shard", "batch", "quorum",
    "lattice", "cursor", "anchor", "triple", "octave", "matrix", "funnel",
    "column", "window", "filter", "query", "token", "corpus", "sample",
    "bucket", "prefix", "ledger", "socket", "packet", "branch", "tensor",
]


def synthetic_documents_table(
    start: int, stop: int, tokens_per_doc: int = 120, dup_every: int = 50
) -> pa.Table:
    """Rows [start, stop) of a deterministic documents table
    (doc_id, text, lang, source, n_chars — the testdata shape).  Every
    ``dup_every``-th doc copies its predecessor's text (planted exact/near
    dups for the dedup family); ~3 lang markers per doc make lang-ID
    deterministic; filler avoids English stopwords so curate's quality
    filter passes."""
    import numpy as np

    filler = np.asarray(_DOC_FILLER, dtype=object)

    def gen_text(i: int) -> str:
        """Pure function of i — any [start, stop) partitioning of the
        generation yields identical rows."""
        if dup_every and i % dup_every == dup_every - 1 and i > 0:
            return gen_text(i - 1)  # planted exact dup of the predecessor
        lang = _DOC_LANGS[i % len(_DOC_LANGS)]
        r = np.random.default_rng(31337 + i)
        n = tokens_per_doc + int(r.integers(-20, 21))
        toks = list(filler[r.integers(0, len(filler), size=max(n, 5))])
        for m in _DOC_MARKERS[lang]:
            toks[int(r.integers(0, len(toks)))] = m
        return " ".join(toks)

    texts = [gen_text(i) for i in range(start, stop)]
    langs = [_DOC_LANGS[i % len(_DOC_LANGS)] for i in range(start, stop)]
    ids = list(range(start, stop))
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "source": pa.array([f"s{i % 5}" for i in ids], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def write_synthetic_documents(
    out_dir: str, n_docs: int = 60_000, n_files: int = 32,
    tokens_per_doc: int = 120,
) -> str:
    """Write the synthetic documents table as a multi-file
    ``documents.parquet/`` directory dataset under ``out_dir`` (sf_dir
    layout, so every pipelines.* operator runs on it unchanged)."""
    ddir = os.path.join(out_dir, "documents.parquet")
    os.makedirs(ddir, exist_ok=True)
    per = (n_docs + n_files - 1) // n_files
    ranges = [
        (f, f * per, min((f + 1) * per, n_docs))
        for f in range(n_files)
        if f * per < n_docs
    ]

    def _write_one(f, lo, hi):
        pq.write_table(
            synthetic_documents_table(lo, hi, tokens_per_doc),
            os.path.join(ddir, f"part-{f:05d}.parquet"),
        )

    if ray.is_initialized() and len(ranges) > 1:
        import ray as _ray

        @_ray.remote
        def _task(f, lo, hi):
            _write_one(f, lo, hi)

        _ray.get([_task.remote(*r) for r in ranges])
    else:
        for r in ranges:
            _write_one(*r)
    return out_dir
