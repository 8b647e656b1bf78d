"""Raw source-tree ingest → corpus shape → index → search."""

import os

import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines.index_build import build_index, load_stats
from uci_searchengine_ray.pipelines.search import PostingsIndex, score_bm25_taat
from uci_searchengine_ray.sources.corpus import corpus_from_source_tree


def test_source_tree_ingest_to_search(ray_session, tmp_path):
    tree = tmp_path / "repo"
    (tree / "pkg").mkdir(parents=True)
    (tree / "pkg" / "mod.py").write_text(
        "def uniqueFunctionName():\n    return special_marker_token\n"
    )
    (tree / "README.md").write_text("# Title\nplain words here\n")
    (tree / "data.bin").write_bytes(b"\xff\xfe\x00binary")

    ds = corpus_from_source_tree(str(tree), repo="org/demo")
    rows = {r["path"]: r for r in ds.take_all()}
    assert set(rows) == {os.path.join("pkg", "mod.py"), "README.md", "data.bin"}
    assert rows[os.path.join("pkg", "mod.py")]["lang"] == "py"
    assert rows["README.md"]["lang"] == "md"
    assert rows["data.bin"]["lang"] == "other"
    assert "special_marker_token" in rows[os.path.join("pkg", "mod.py")]["content"]

    # write as parquet corpus and index it in code mode
    import pyarrow as pa
    import pyarrow.parquet as pq

    cdir = tmp_path / "c"
    cdir.mkdir()
    pq.write_table(pa.concat_tables([pa.Table.from_pylist(
        list(rows.values()),
        schema=ds.schema().base_schema if hasattr(ds.schema(), "base_schema") else None,
    )]), str(cdir / "p.parquet"))
    snap = str(tmp_path / "i")
    build_index(str(cdir), snap,
                EngineConfig(mode="code", ckpt_groups=1),
                mode="fresh")
    assert load_stats(snap)["n_docs"] == 3
    idx = PostingsIndex(snap)
    # code tokenizer splits uniqueFunctionName -> unique/function/name
    ids, scores = score_bm25_taat(idx, "unique function name marker")
    assert len(ids) >= 1 and scores[0] > 0
