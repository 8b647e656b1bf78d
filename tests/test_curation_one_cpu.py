"""The curation operators finish on a 1-CPU Ray cluster.

Each per-batch curation stage runs as stateless Ray Data tasks that fuse
with the ReadParquet scan.  An actor pool in one of these stages would hold
the only CPU slot, starve the read and hang the job, so this test runs the
five broadcast/spool operators in a fresh ``ray.init(num_cpus=1)``
subprocess under a hard timeout and checks their answers against the
DuckDB oracle.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 240
FRAMES = ["boilerplate_lines", "strip_dup_spans", "decontaminate",
          "export_shards"]

_SCRIPT = r"""
import json
import os
import sys

import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from uci_searchengine_ray.config import configure_data_context

configure_data_context()
from uci_searchengine_ray.pipelines import cleaning, export

sf, out = sys.argv[1], sys.argv[2]
frames = {
    "boilerplate_lines": cleaning.boilerplate_lines(sf),
    "strip_dup_spans": cleaning.strip_dup_spans(
        sf, spool_dir=os.path.join(out, "spool")
    ),
    "decontaminate": cleaning.decontaminate(sf),
    "export_shards": export.export_shards_summary(sf),
}
for name, ds in frames.items():
    ds.to_pandas().to_parquet(os.path.join(out, name + ".parquet"))
res = export.export_pretraining(sf, os.path.join(out, "export"))
with open(os.path.join(out, "export.json"), "w") as f:
    json.dump({"docs": res["docs"]}, f)
ray.shutdown()
"""


def _check_correctness():
    sys.path.insert(0, os.path.join(REPO, "scripts"))
    try:
        import check_correctness
    finally:
        sys.path.pop(0)
    return check_correctness


def test_curation_runs_on_one_cpu(tmp_path):
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    # own session: a hung run's Ray cluster is killed with it; output goes
    # to a file, so no pipe held by a leftover worker can block the read
    log = tmp_path / "run.log"
    with open(log, "w") as f:
        proc = subprocess.Popen(
            [sys.executable, "-c", _SCRIPT, SF, str(tmp_path)],
            stdout=f,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=REPO,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail(f"1-CPU curation run hung past {TIMEOUT_S} s\n"
                        f"{log.read_text()[-4000:]}")
    assert proc.returncode == 0, log.read_text()[-4000:]
    export_docs = json.loads((tmp_path / "export.json").read_text())["docs"]

    import __ray_entry__ as e

    canon = _check_correctness().canon
    con = duckdb.connect()
    for p in glob.glob(os.path.join(SF, "*.parquet")):
        name = os.path.basename(p)[: -len(".parquet")]
        con.execute(
            f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{p}')"
        )
    sql = e.oracle_sql()
    for name in FRAMES:
        mine = canon(pd.read_parquet(tmp_path / f"{name}.parquet"))
        theirs = canon(con.execute(sql[name]).fetchdf())
        assert len(mine) > 0, name
        pd.testing.assert_frame_equal(mine, theirs, check_dtype=False,
                                      obj=name)
    shards = con.execute(sql["export_shards"]).fetchdf()
    assert export_docs == int(shards["n_docs"].sum())
