"""The snapshot format: posting blocks store doc ordinals and no doc
lengths, older snapshots fail to load until ``rebuild`` re-merges their
runs, and serving a snapshot starts no Ray."""

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.dataset as pa_ds
import pyarrow.parquet as pq
import pytest
from older_runs import to_hashed_id_runs
from test_search import GOLDEN_QUERIES

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.functions import codecs
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.pipelines.search import PostingsIndex, search_one
from uci_searchengine_ray.state.docstore import DocStore

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CFG = EngineConfig(mode="reference", block_size=32, ckpt_groups=4)


def _drop_format_field(snap):
    path = os.path.join(snap, "stats.json")
    with open(path) as f:
        stats = json.load(f)
    del stats["format"]
    with open(path, "w") as f:
        json.dump(stats, f)


def _to_parent_encoding(snap):
    """Rewrite ``snap`` as the previous format wrote it: block ``doc_ids``
    and runs hold hashed doc ids, blocks and runs carry per-posting doc
    lengths (``doc_lens`` / ``dls_enc``), runs sit in ``merge_key=M/``
    dirs, and neither stats.json nor build_config.json names a format."""
    docs = DocStore(snap, pages=False)
    ids, lens = docs.ids, docs.lens
    len_of = dict(zip(ids.tolist(), lens.tolist()))
    for path in sorted(pa_ds.dataset(os.path.join(snap, "postings")).files):
        tbl = pq.read_table(path)
        hashed = [ids[codecs.decode_ids(b)] for b in tbl["doc_ids"].to_pylist()]
        tbl = tbl.set_column(
            tbl.schema.get_field_index("doc_ids"), "doc_ids",
            pa.array([codecs.encode_ids(h) for h in hashed], pa.large_binary()))
        dls = [codecs.encode_plain([len_of[d] for d in h.tolist()]) for h in hashed]
        tbl = tbl.add_column(tbl.schema.get_field_index("positions"), "doc_lens",
                             pa.array(dls, pa.large_binary()))
        pq.write_table(tbl, path)
    to_hashed_id_runs(snap)
    runs = pa_ds.dataset(os.path.join(snap, "runs"), format="parquet")
    for path in runs.files:
        tbl = pq.read_table(path)
        dls = [codecs.encode_plain([len_of[d] for d in codecs.decode_ids(b).tolist()])
               for b in tbl["ids_enc"].to_pylist()]
        tbl = tbl.add_column(tbl.schema.get_field_index("pos_enc"), "dls_enc",
                             pa.array(dls, pa.large_binary()))
        pq.write_table(tbl, path)
    _drop_format_field(snap)


def test_snapshot_without_format_field_asks_for_rebuild(built_index, tmp_path):
    snap = str(tmp_path / "snap")
    shutil.copytree(built_index, snap)
    _drop_format_field(snap)
    with pytest.raises(ValueError, match='mode="rebuild"'):
        PostingsIndex(snap)


def test_rebuild_upgrades_parent_encoding(
    built_index, synthetic_corpus_dir, tmp_path
):
    snap = str(tmp_path / "snap")
    shutil.copytree(built_index, snap)
    _to_parent_encoding(snap)
    assert "doc_lens" in pq.read_schema(
        pa_ds.dataset(os.path.join(snap, "postings")).files[0]).names
    with pytest.raises(ValueError, match='mode="rebuild"'):
        search_one(snap, "return")
    build_index(synthetic_corpus_dir, snap, CFG, mode="rebuild")
    for mode in ("reference", "bm25"):
        for q in GOLDEN_QUERIES:
            for page in (1, 2):
                assert (search_one(snap, q, page=page, mode=mode)
                        == search_one(built_index, q, page=page, mode=mode)), q


@pytest.fixture(scope="module")
def positional_index(ray_session, synthetic_corpus_dir, tmp_path_factory):
    snap = str(tmp_path_factory.mktemp("positional") / "snap")
    cfg = EngineConfig(mode="reference", block_size=32, ckpt_groups=1,
                       store_positions=True)
    return build_index(synthetic_corpus_dir, snap, cfg, mode="fresh")


_SERVE_WITHOUT_RAY = r"""
import http.client, json, os, sys
from uci_searchengine_ray.pipelines.search import (
    PostingsIndex, QueryScorer, score_phrase)
from uci_searchengine_ray.server import SearchServer

index_dir, positional = sys.argv[1:3]
srv = SearchServer(index_dir, mode="bm25_wand", scorer_pool_size=1)
port = srv.serve(host="127.0.0.1", port=0)
bodies = []
for path in ["/api/search?query=" + q.replace(" ", "+")
             for q in ("return", "the self value", "zzz_absent_term")] + [
        "/api/crawler/statistics", "/api/crawler/failed-urls"]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("GET", path)
    resp = conn.getresponse()
    bodies.append((resp.status, json.loads(resp.read())))
    conn.close()
srv.close()
ref = QueryScorer(index_dir, mode="reference").search("the self value")
phrase_ids, _ = score_phrase(PostingsIndex(positional), "return self")


def parent(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[1])
    except OSError:  # the process ended after the listing
        return None


children = [int(p) for p in os.listdir("/proc")
            if p.isdigit() and parent(p) == os.getpid()]
print(json.dumps({
    "modules": [m for m in ("ray", "ray.data", "pyarrow.dataset", "pandas")
                if m in sys.modules],
    "children": children,
    "status": [s for s, _ in bodies],
    "hits": [b["total_results"] for _, b in bodies[:3]],
    "n_docs": bodies[3][1]["documents_crawled"],
    "failed_urls": bodies[4][1]["failed_urls"],
    "reference_hits": ref["total_results"], "phrase_hits": len(phrase_ids),
}))
"""


def test_serving_starts_no_ray(built_index, positional_index):
    """A fresh process without a Ray session opens snapshots, answers
    queries over HTTP and the statistics and failed-urls routes, and scores
    in reference mode and by phrase: it never imports Ray, Ray Data,
    ``pyarrow.dataset`` or pandas, and leaves no child process behind."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RAY_")}
    env["PYTHONPATH"] = REPO
    out = subprocess.run(
        [sys.executable, "-c", _SERVE_WITHOUT_RAY, built_index, positional_index],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["modules"] == []
    assert got["children"] == []
    assert got["status"] == [200] * 5
    assert got["hits"][0] > 0 and got["hits"][2] == 0
    assert got["n_docs"] == 600 and got["failed_urls"] == []
    assert got["reference_hits"] > 0 and got["phrase_hits"] > 0
