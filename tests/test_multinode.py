"""Simulated multi-node smoke test (VERDICT r4 #5).

Everything before this ran single-node ``ray.init(address="local")``;
this drives the three contracts that actually differ on a real cluster —
cross-node object transfer during index build, query over a built
snapshot, and the shared-filesystem spool of ``strip_dup_spans`` — through
``ray.cluster_utils.Cluster`` with two simulated nodes.  In the sandbox
both "nodes" share one machine (so /tmp doubles as the shared fs the
spool contract requires); the point is exercising Ray's real multi-node
scheduling + object-store transfer paths, not network hardware.

Runs in a SUBPROCESS: the pytest session fixture owns a local Ray
instance, and a simulated cluster needs its own GCS.
"""

import os
import subprocess
import sys

_SCRIPT = r"""
import json
import os
import sys

# the sandbox presets RAY_ADDRESS=local; a simulated cluster must win
os.environ.pop("RAY_ADDRESS", None)

import ray
from ray.cluster_utils import Cluster

cluster = Cluster(
    initialize_head=True,
    head_node_args={"num_cpus": 2, "include_dashboard": False},
)
worker = cluster.add_node(num_cpus=4)
ray.init(address=cluster.address, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

alive = [n for n in ray.nodes() if n["Alive"]]
assert len(alive) == 2, f"expected 2 alive nodes, got {len(alive)}"

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.functions.hashing import stable_doc_id
from uci_searchengine_ray.oracle import OracleIndex
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.pipelines.search import PostingsIndex, score_reference
from uci_searchengine_ray.sources.corpus import (
    synthetic_corpus_table,
    write_synthetic_corpus,
)

root = sys.argv[1]

# --- placement probe: record which node each map task runs on; with 6
# tasks held concurrently on a 2+4-CPU cluster, both nodes MUST host work
import time

@ray.remote(num_cpus=1)
def _where(_):
    time.sleep(2.0)
    return ray.get_runtime_context().get_node_id()

nodes_used = set(ray.get([_where.remote(i) for i in range(6)]))
assert len(nodes_used) == 2, f"probe tasks landed on {len(nodes_used)} node(s)"

# --- 1. index build across both nodes (blocks >> CPUs so the build's
# map/merge tasks spread; their outputs transfer between object stores)
corpus = write_synthetic_corpus(os.path.join(root, "corpus"), n_docs=400, n_files=8)
idx = build_index(
    corpus,
    os.path.join(root, "idx"),
    EngineConfig(mode="reference", block_size=32),
    mode="fresh",
)

# --- 2. query the snapshot, cross-checked against the in-memory oracle
tbl = synthetic_corpus_table(0, 400)
docs = [
    (stable_doc_id(r, p, c), t)
    for r, p, c, t in zip(*(tbl[k].to_pylist() for k in ("repo", "path", "commit", "content")))
]
oi, pi = OracleIndex(docs), PostingsIndex(idx)
for q in ["return", "the self", "zzz_absent_term"]:
    ids, _ = score_reference(pi, q)
    want = [r["doc_id"] for r in oi.search(q, per_page=10**9)["results"]]
    assert list(ids) == want, f"query {q!r} diverged on the cluster"

# --- 3. strip_dup_spans through the shared-fs spool contract (explicit
# spool_dir on the fs both nodes see, exactly as the docstring requires)
import pyarrow as pa
import pyarrow.parquet as pq

from uci_searchengine_ray.pipelines.cleaning import dup_spans, strip_dup_spans

docdir = os.path.join(root, "docs")
os.makedirs(docdir)
header = "shared license header tokens repeated verbatim across documents here"
texts = [f"{header} unique body {i} alpha beta gamma" for i in range(64)]
pq.write_table(
    pa.table(
        {
            "doc_id": pa.array(range(64), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    ),
    os.path.join(docdir, "documents.parquet"),
)
spool = os.path.join(root, "spool")
out = strip_dup_spans(docdir, w=5, min_df=32, spool_dir=spool).to_pandas()
assert len(out) == 64
assert (out["n_kept"] < out["n_tokens"]).all(), "header spans not stripped"
assert not out["clean_text"].str.contains("license").any()
n_spans = dup_spans(docdir, w=5, min_df=32).count()
assert n_spans > 0

print(json.dumps({"nodes": len(alive), "probe_nodes": len(nodes_used),
                  "stripped_docs": int(len(out)), "dup_spans": int(n_spans)}))
ray.shutdown()
cluster.shutdown()
"""


def test_two_node_cluster_build_query_strip(tmp_path):
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = repo + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=570,
        env=env,
        cwd=repo,
    )
    assert proc.returncode == 0, (
        f"multi-node smoke failed\n--- stdout ---\n{proc.stdout[-4000:]}"
        f"\n--- stderr ---\n{proc.stderr[-4000:]}"
    )
    import json

    line = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")][-1]
    got = json.loads(line)
    assert got["nodes"] == 2
    assert got["probe_nodes"] == 2
    assert got["stripped_docs"] == 64
