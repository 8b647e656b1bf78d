"""Positional index + phrase search: golden cases, and the strong invariant
that stored positions reconstruct the tokenizer's output exactly."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.functions.hashing import stable_doc_id
from uci_searchengine_ray.functions.tokenizer import tokenize_reference
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.pipelines.search import PostingsIndex, score_phrase
from uci_searchengine_ray.sources.corpus import synthetic_corpus_table, write_synthetic_corpus


@pytest.fixture(scope="module")
def pos_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("pos")
    corpus = str(root / "c")
    write_synthetic_corpus(corpus, n_docs=300, n_files=4)
    snap = str(root / "i")
    build_index(
        corpus, snap,
        EngineConfig(mode="reference", block_size=16,
                     ckpt_groups=2, store_positions=True),
        mode="fresh",
    )
    return PostingsIndex(snap)


def test_positions_reconstruct_tokens(pos_index):
    """For every term/posting: tokenize(doc)[p] == term at each stored
    position, and the position count equals tf."""
    tbl = synthetic_corpus_table(0, 300)
    tokens_by_doc = {
        stable_doc_id(r, p, c): tokenize_reference(t)
        for r, p, c, t in zip(
            tbl["repo"].to_pylist(), tbl["path"].to_pylist(),
            tbl["commit"].to_pylist(), tbl["content"].to_pylist(),
        )
    }
    checked = 0
    for term in list(pos_index.terms())[:200]:
        ords, tfs = pos_index.postings(term)
        ids = pos_index.docs.ids[ords]
        poss = pos_index.positions(term)
        assert len(poss) == len(ids)
        for doc, tf, p in zip(ids.tolist(), tfs.tolist(), poss):
            toks = tokens_by_doc[doc]
            assert len(p) == tf
            assert np.all(np.diff(p) > 0)
            assert all(toks[int(i)] == term for i in p)
            checked += 1
    assert checked > 500


def test_phrase_golden(ray_session, tmp_path):
    docs = [
        (1, "spark join the table spark join again"),
        (2, "join spark is not spark join no wait it is"),
        (3, "nothing here"),
        (4, "the the the end"),
    ]
    tbl = pa.table(
        {
            "repo": pa.array(["o/r"] * 4), "path": pa.array([f"f{i}.py" for i, _ in docs]),
            "commit": pa.array(["c"] * 4), "lang": pa.array(["py"] * 4),
            "doc_id": pa.array([i for i, _ in docs], pa.int64()),
            "content": pa.array([t for _, t in docs], pa.large_string()),
        }
    )
    (tmp_path / "c").mkdir()
    pq.write_table(tbl, str(tmp_path / "c" / "p.parquet"))
    snap = str(tmp_path / "i")
    build_index(
        str(tmp_path / "c"), snap,
        EngineConfig(mode="reference", ckpt_groups=1,
                     block_size=2, store_positions=True),
        mode="fresh",
    )
    idx = PostingsIndex(snap)
    cases = {
        "spark join": [(1, 2), (2, 1)],
        "the the": [(4, 2)],          # overlapping occurrences both count
        "is not spark": [(2, 1)],
        "join again": [(1, 1)],
        "absent phrase": [],
        "": [],
        "Spark, JOIN!": [(1, 2), (2, 1)],  # query is tokenizer-normalized
    }
    for phrase, expect in cases.items():
        ids, ns = score_phrase(idx, phrase)
        assert list(zip(ids.tolist(), ns.tolist())) == expect, phrase


def test_positions_absent_without_flag(built_index):
    idx = PostingsIndex(built_index)
    term = next(iter(idx.terms()))
    with pytest.raises(ValueError, match="store_positions"):
        idx.positions(term)
