"""Seeded benchmark inputs: corpora and query mixes.

Every generator is a pure function of its seed, so the same ``--seed``
gives byte-identical parquet files and the same request sequence.  The
engine under test only ever sees the files and the HTTP requests made
from them; none of its own generators are used, so a change to the
engine cannot change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# --------------------------------------------------------------------------
# documents table in the shape of the driver test data (doc_id, text, lang,
# source, n_chars): 30 common words as in sf0.1 plus a Zipf-weighted tail of
# synthetic words, so that query terms exist in rare, mid and hot df bands
# --------------------------------------------------------------------------

HOT_WORDS = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
DOC_LANGS = ("en", "zh", "es", "fr", "de")
DOC_LANG_P = (0.41, 0.15, 0.15, 0.15, 0.14)
_CONS = "bcdfghjklmnprstvz"
_VOWS = "aeiou"
TAIL_WORDS = 3000  # synthetic tail vocabulary of the documents table
TAIL_SHARE = 0.2  # share of document tokens drawn from that tail
DUP_EVERY = 625  # every DUP_EVERY-th document copies an earlier one


def _tail_words(rng: np.random.Generator, n: int) -> List[str]:
    """n distinct pronounceable lowercase words (3 syllables each)."""
    out, seen = [], set(HOT_WORDS)
    while len(out) < n:
        c = rng.integers(0, len(_CONS), size=3)
        v = rng.integers(0, len(_VOWS), size=3)
        w = "".join(_CONS[a] + _VOWS[b] for a, b in zip(c, v)) + _CONS[c[0]]
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _zipf_p(n: int, s: float = 1.1) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


def documents_table(seed: int, n_docs: int) -> pa.Table:
    """sf0.1-shaped documents: 10-100 tokens each, ~20% of tokens from the
    Zipf tail, 'dup' in ~5% of docs and every ``DUP_EVERY``-th doc an exact
    copy of an earlier one (the dedup operators' planted work)."""
    rng = np.random.default_rng([seed, 1])
    tail_vocab = np.asarray(_tail_words(rng, TAIL_WORDS), dtype=object)
    tail_p = _zipf_p(TAIL_WORDS)
    hot = np.asarray(HOT_WORDS, dtype=object)
    texts: List[str] = []
    for i in range(n_docs):
        if i and i % DUP_EVERY == 0:
            texts.append(texts[int(rng.integers(0, i))])
            continue
        n = int(rng.integers(10, 101))
        is_tail = rng.random(n) < TAIL_SHARE
        toks = hot[rng.integers(0, len(hot), size=n)]
        k = int(is_tail.sum())
        if k:
            toks[is_tail] = tail_vocab[rng.choice(TAIL_WORDS, size=k, p=tail_p)]
        if rng.random() < 0.05:
            toks[int(rng.integers(0, n))] = "dup"
        texts.append(" ".join(toks))
    langs = rng.choice(len(DOC_LANGS), size=n_docs, p=DOC_LANG_P)
    return pa.table({
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([DOC_LANGS[k] for k in langs], pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(n_docs)], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def write_documents(sf_dir: str, seed: int, n_docs: int) -> str:
    """Write ``<sf_dir>/documents.parquet`` (the layout every
    ``pipelines.*`` operator reads) and return sf_dir."""
    os.makedirs(sf_dir, exist_ok=True)
    pq.write_table(documents_table(seed, n_docs),
                   os.path.join(sf_dir, "documents.parquet"))
    return sf_dir


# --------------------------------------------------------------------------
# source-code corpus (repo, path, commit, lang, content) for code-mode builds
# --------------------------------------------------------------------------

CODE_LANGS = ("py", "js", "java", "go", "rs")
CODE_HOT = ("self", "return", "value", "index", "result", "data")
CODE_OPS = ("==", "->", "+=", "&&", "||", "::", "{}", "()", ";", "=")
CODE_KEYWORDS = ("def", "fn", "let", "for", "if", "while")
N_IDENTS = 40_000  # distinct identifiers, Zipf-drawn into the code lines
CORPUS_FILES = 8  # parquet files the code corpus is split into
CORPUS_SCHEMA = pa.schema([
    ("repo", pa.string()), ("path", pa.string()), ("commit", pa.string()),
    ("lang", pa.string()), ("content", pa.large_string()),
])


def _identifiers(rng: np.random.Generator, n: int) -> List[str]:
    """n identifiers, alternately snake_case and camelCase, built from
    two or three tail words (the code tokenizer splits them back)."""
    parts = _tail_words(rng, max(64, n // 4))
    out = []
    for i in range(n):
        k = 2 + int(rng.integers(0, 2))
        ws = [parts[j] for j in rng.integers(0, len(parts), size=k)]
        out.append("_".join(ws) if i % 2 else ws[0] + "".join(w.title() for w in ws[1:]))
    return out


def code_corpus_table(seed: int, n_docs: int) -> pa.Table:
    """The seeded code corpus: 3-8 lines per file, each line a keyword,
    two Zipf-drawn identifiers, an operator, a hot word and a number."""
    rng = np.random.default_rng([seed, 2])
    idents = np.asarray(_identifiers(rng, N_IDENTS), dtype=object)
    cdf = np.cumsum(_zipf_p(N_IDENTS, 1.05))
    n_lines = 3 + rng.integers(0, 6, size=n_docs)
    n = int(n_lines.sum())
    names = idents[np.minimum(np.searchsorted(cdf, rng.random(2 * n)), N_IDENTS - 1)]
    kw = rng.integers(0, len(CODE_KEYWORDS), size=n)
    op = rng.integers(0, len(CODE_OPS), size=n)
    hot = rng.integers(0, len(CODE_HOT), size=n)
    num = rng.integers(0, 1000, size=n)
    lines = [
        f"{CODE_KEYWORDS[kw[j]]} {names[2 * j]} {CODE_OPS[op[j]]} "
        f"{names[2 * j + 1]}({CODE_HOT[hot[j]]}, {num[j]})"
        for j in range(n)
    ]
    ends = np.cumsum(n_lines)
    contents = ["\n".join(lines[e - k:e]) + "\nreturn"
                for e, k in zip(ends.tolist(), n_lines.tolist())]
    langs = [CODE_LANGS[i % len(CODE_LANGS)] for i in range(n_docs)]
    return pa.table([
        [f"org{i % 13}/proj{i % 97}" for i in range(n_docs)],
        [f"src/pkg{i % 17}/mod_{i}.{lang}" for i, lang in enumerate(langs)],
        [hashlib.sha1(f"{seed}-{i}".encode()).hexdigest() for i in range(n_docs)],
        langs,
        contents,
    ], schema=CORPUS_SCHEMA)


def write_code_corpus(out_dir: str, seed: int, n_docs: int) -> str:
    """The corpus as ``CORPUS_FILES`` parquet row-range files under
    out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    for f in os.listdir(out_dir):
        os.unlink(os.path.join(out_dir, f))
    table = code_corpus_table(seed, n_docs)
    per = -(-n_docs // CORPUS_FILES)
    for f in range(CORPUS_FILES):
        if f * per < n_docs:
            pq.write_table(table.slice(f * per, per),
                           os.path.join(out_dir, f"part-{f:05d}.parquet"))
    return out_dir


# --------------------------------------------------------------------------
# query mixes
# --------------------------------------------------------------------------

SMALL_QUERIES = 40  # distinct query strings of search_small
LARGE_QUERIES = 48  # distinct query strings of search_large
PAGES = 3  # requests ask for page 1..PAGES


def df_bands(df: Dict[str, int], n_docs: int) -> Dict[str, List[str]]:
    """Terms split by document frequency: rare (df <= 5), mid (1%-10% of
    docs) and hot (>= 20% of docs).  Rare and mid are sorted by term, hot
    by falling df (then term)."""
    rare = sorted(t for t, d in df.items() if 1 <= d <= 5)
    mid = sorted(t for t, d in df.items() if 0.01 * n_docs <= d <= 0.1 * n_docs)
    hot = sorted((t for t, d in df.items() if d >= 0.2 * n_docs),
                 key=lambda t: (-df[t], t))
    return {"rare": rare, "mid": mid, "hot": hot}


def _pick(rng: np.random.Generator, pool: Sequence[str]) -> str:
    return pool[int(rng.integers(0, len(pool)))]


def small_queries(seed: int, bands: Dict[str, List[str]],
                  golden: Sequence[str]) -> List[str]:
    """Distinct query strings for ``search_small``: the golden conformance
    set plus 1-3 term draws mixing the rare, mid and hot bands."""
    rng = np.random.default_rng([seed, 4])
    shapes = (("rare",), ("mid",), ("hot",), ("rare", "hot"), ("mid", "hot"),
              ("rare", "mid"), ("hot", "hot"), ("mid", "mid", "hot"))
    out = list(golden)
    while len(out) < SMALL_QUERIES:
        shape = shapes[int(rng.integers(0, len(shapes)))]
        q = " ".join(_pick(rng, bands[b]) for b in shape)
        if q not in out:
            out.append(q)
    return out


def large_queries(seed: int, bands: Dict[str, List[str]]) -> List[str]:
    """Distinct query strings for ``search_large``: half pair a rare term
    with a dense one (WAND skips most blocks), half pair two dense terms
    (WAND decodes nearly every block).  The dense terms are taken in df
    order rather than drawn, so a seed changes only which rare terms
    appear."""
    rng = np.random.default_rng([seed, 5])
    hot, half = bands["hot"], LARGE_QUERIES // 2
    if len(hot) < 4 or len(bands["rare"]) < half:
        raise ValueError("corpus too small for the search_large query mix")
    rare = rng.choice(bands["rare"], size=half, replace=False)
    out = [f"{r} {hot[i % len(hot)]}" for i, r in enumerate(rare)]
    # dense pairs: neighbours in df order, then one rank further apart
    out += [f"{hot[i % len(hot)]} {hot[(i + 1 + i // len(hot)) % len(hot)]}"
            for i in range(half)]
    return out


def request_sequence(seed: int, queries: Sequence[str], n: int
                     ) -> List[Tuple[str, int]]:
    """n (query, page) requests: every (query, page 1..PAGES) pair once
    per cycle, each cycle in a fresh seeded order."""
    rng = np.random.default_rng([seed, 6])
    pairs = [(q, p) for q in queries for p in range(1, PAGES + 1)]
    out: List[Tuple[str, int]] = []
    while len(out) < n:
        out.extend(pairs[i] for i in rng.permutation(len(pairs)))
    return out[:n]


def mix_shape(seq: Sequence[Tuple[str, int]], hits: Dict[str, int]) -> dict:
    """Shares of the request mix that decide cache behaviour: zero-hit
    queries, pages past the first, and consecutive repeats of one query
    (the scorer memoizes its last query)."""
    n = len(seq)
    return {
        "zero_hit_share": sum(1 for q, _ in seq if hits[q] == 0) / n,
        "page_gt1_share": sum(1 for _, p in seq if p > 1) / n,
        "repeat_share": sum(1 for a, b in zip(seq, seq[1:]) if a[0] == b[0]) / n,
    }
