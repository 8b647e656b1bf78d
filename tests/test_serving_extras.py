"""Quarantine listing."""

import pyarrow as pa
import pyarrow.parquet as pq

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines.index_build import build_index, load_stats
from uci_searchengine_ray.state.docstore import quarantine_listing


def test_quarantine_listing(ray_session, tmp_path):
    corpus = tmp_path / "qcorpus"
    corpus.mkdir()
    tbl = pa.table(
        {
            "repo": pa.array(["o/r"] * 4, pa.string()),
            "path": pa.array([f"f{i}.py" for i in range(4)], pa.string()),
            "commit": pa.array(["c"] * 4, pa.string()),
            "lang": pa.array(["py"] * 4, pa.string()),
            "content": pa.array(["ok text", None, "more words", None],
                                pa.large_string()),
        }
    )
    pq.write_table(tbl, str(corpus / "part-0.parquet"))
    snap = str(tmp_path / "qsnap")
    cfg = EngineConfig(mode="reference", ckpt_groups=1)
    build_index(str(corpus), snap, cfg, mode="fresh")

    listed = quarantine_listing(snap)
    assert listed.num_rows == 2
    assert all(listed["failed"].to_pylist())
    ids = listed["doc_id"].to_pylist()
    assert ids == sorted(ids)
    assert quarantine_listing(snap, limit=1).to_pylist() == listed.to_pylist()[:1]
    # failed docs still count toward N (reference counts uncrawled stubs)
    assert load_stats(snap)["n_docs"] == 4
