"""Index-structure invariants on the built snapshot (FIXTURES.md §5,
SURVEY.md §5 item 3)."""

import glob
import os

import numpy as np
import pyarrow.dataset as pa_ds
import pyarrow.parquet as pq
import pytest

from uci_searchengine_ray.functions import codecs
from uci_searchengine_ray.functions.hashing import content_sha256, stable_doc_id
from uci_searchengine_ray.functions.tokenizer import tokenize_reference
from uci_searchengine_ray.pipelines.index_build import load_stats
from uci_searchengine_ray.sources.corpus import synthetic_corpus_table

N_DOCS = 600


@pytest.fixture(scope="module")
def corpus_rows():
    tbl = synthetic_corpus_table(0, N_DOCS)
    return [
        {
            "doc_id": stable_doc_id(r, p, c),
            "repo": r, "path": p, "commit": c, "content": t,
        }
        for r, p, c, t in zip(
            tbl["repo"].to_pylist(), tbl["path"].to_pylist(),
            tbl["commit"].to_pylist(), tbl["content"].to_pylist(),
        )
    ]


@pytest.fixture(scope="module")
def blocks(built_index):
    ds = pa_ds.dataset(
        os.path.join(built_index, "postings"), format="parquet", partitioning="hive"
    )
    return ds.to_table().to_pylist()


def test_snapshot_layout(built_index):
    assert os.path.exists(os.path.join(built_index, "stats.json"))
    assert glob.glob(os.path.join(built_index, "postings", "*.parquet"))
    assert glob.glob(os.path.join(built_index, "doc_meta", "group=*", "*.parquet"))
    assert os.path.exists(os.path.join(built_index, "_manifest", "manifest.jsonl"))


def test_doc_ids_strictly_ascending(blocks):
    """Within and across blocks of a term (FIXTURES §5)."""
    per_term = {}
    for b in sorted(blocks, key=lambda b: (b["term"], b["block_id"])):
        ids = codecs.decode_ids(b["doc_ids"])
        assert np.all(np.diff(ids) > 0), b["term"]
        assert len(ids) == b["n"]
        prev = per_term.get(b["term"])
        if prev is not None:
            assert ids[0] > prev, f"blocks overlap for {b['term']}"
        per_term[b["term"]] = int(ids[-1])


def test_df_and_doclen_invariants(built_index, blocks, corpus_rows):
    """Σ df == distinct (term,doc) pairs; block doc ids are ordinals into
    the ascending doc_meta ids; Σ tf per doc == its doc_meta doc_len; df on
    every block equals the term's total posting count."""
    meta = pa_ds.dataset(
        os.path.join(built_index, "doc_meta"), format="parquet"
    ).to_table(columns=["doc_id", "doc_len"])
    order = np.argsort(meta["doc_id"].to_numpy())
    sorted_ids = meta["doc_id"].to_numpy()[order]
    doc_len = dict(zip(sorted_ids.tolist(),
                       meta["doc_len"].to_numpy()[order].tolist()))
    n_docs = load_stats(built_index)["n_docs"]
    assert len(sorted_ids) == n_docs
    tf_by_doc = {}
    seen_pairs = 0
    df_by_term = {}
    for b in blocks:
        ords = codecs.decode_ids(b["doc_ids"])
        tfs = codecs.decode_plain(b["tfs"])
        assert np.all(np.diff(ords) > 0) and 0 <= ords[0] and ords[-1] < n_docs
        seen_pairs += len(ords)
        df_by_term.setdefault(b["term"], []).append((b["df"], len(ords)))
        for o, tf in zip(ords, tfs):
            d = int(sorted_ids[o])
            tf_by_doc[d] = tf_by_doc.get(d, 0) + int(tf)

    for term, entries in df_by_term.items():
        df = entries[0][0]
        assert all(e[0] == df for e in entries)
        assert sum(e[1] for e in entries) == df, term
    # Σ df over terms == count of distinct (term, doc) pairs
    assert sum(entries[0][0] for entries in df_by_term.values()) == seen_pairs

    # cross-check against independent tokenization of the corpus
    expected = {}
    for row in corpus_rows:
        toks = tokenize_reference(row["content"])
        if toks:
            expected[row["doc_id"]] = len(toks)
    assert tf_by_doc == expected
    assert {d: doc_len[d] for d in tf_by_doc} == expected


def test_sha256_invariant_end_to_end(built_index, corpus_rows):
    """Per-row content_sha256 equality through the pipeline (input_hint)."""
    meta = pa_ds.dataset(
        os.path.join(built_index, "doc_meta"), format="parquet"
    ).to_table(columns=["doc_id", "content_sha256", "content"]).to_pylist()
    by_id = {r["doc_id"]: r for r in meta}
    assert len(by_id) == N_DOCS
    for row in corpus_rows:
        m = by_id[row["doc_id"]]
        assert m["content_sha256"] == content_sha256(row["content"])
        assert m["content"] == row["content"]


def test_n_counts_empty_docs(built_index, corpus_rows):
    """N includes docs with empty/punctuation-only content (search.py:85
    counts uncrawled stubs)."""
    stats = load_stats(built_index)
    assert stats["n_docs"] == N_DOCS
    empties = [r for r in corpus_rows if not tokenize_reference(r["content"])]
    assert empties, "fixture must contain untokenizable docs"


def test_n_terms_counts_block_terms_without_term_stats(built_index, blocks):
    """The blocks carry each term's df; no second (term, df) table is
    written, and n_terms is the number of distinct block terms."""
    assert not os.path.exists(os.path.join(built_index, "term_stats"))
    assert load_stats(built_index)["n_terms"] == len({b["term"] for b in blocks})
