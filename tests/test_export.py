"""Pretraining export (pipelines/export.py): keep-list = curate survivors
minus the eval split minus benchmark-contaminated docs, deterministic Knuth
shard assignment, partitioned parquet write with a shuffle-free text
join-back.  Conformance vs the composed DuckDB oracle + planted-edge pins."""

from __future__ import annotations

import os
import random

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"

# non-stopword, non-marker filler vocabulary (passes the stopword-ratio and
# lang filters when salted with a few 'en' markers)
FILLER = [
    "merge", "vector", "stream", "kernel", "shard", "batch", "quorum",
    "lattice", "cursor", "anchor", "triple", "octave", "matrix", "funnel",
]
SPAN = "zebra quill nimbus fjord glyph vortex prism ember basalt".split()


def _passing_text(rng: random.Random, extra: str = "") -> str:
    toks = [rng.choice(FILLER) for _ in range(40)] + ["the", "and", "of"]
    rng.shuffle(toks)
    return " ".join(toks) + ((" " + extra) if extra else "")


def _write_docs(path: str, texts, langs):
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs),
                "source": pa.array([f"s{i % 3}" for i in range(n)]),
                "n_chars": pa.array(
                    np.asarray([len(t) for t in texts], np.int64)
                ),
            }
        ),
        os.path.join(path, "documents.parquet"),
    )


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def _oracle(sf_dir: str, key: str) -> pd.DataFrame:
    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{os.path.join(sf_dir, 'documents.parquet')}')"
    )
    return con.execute(e.oracle_sql()[key]).fetchdf()


def test_export_shards_planted(ray_session, tmp_path):
    """Planted corpus: an eval doc leaks a 9-token span into one otherwise
    curate-passing doc (→ contaminated, excluded), one exact-dup pair (one
    survivor), one quality-failing doc.  Summary must match the composed
    oracle AND the keep-list must reflect every planted exclusion."""
    from uci_searchengine_ray.pipelines import export

    rng = random.Random(11)
    n = 48
    texts = [_passing_text(rng) for _ in range(n)]
    langs = ["en"] * n
    texts[0] = " ".join(SPAN) + " " + texts[0]  # doc 0: eval (0 % 37 == 0)
    texts[5] = _passing_text(rng, extra=" ".join(SPAN))  # contaminated
    texts[9] = texts[8]          # exact dup → curate keeps doc 8 only
    texts[12] = "too short"      # fails the min-token filter
    texts[13] = texts[13]
    langs[14] = "fr"             # declared fr, predicted en → filtered

    d = tmp_path / "exp"
    d.mkdir()
    _write_docs(str(d), texts, langs)

    mine = _canon(export.export_shards_summary(str(d)).to_pandas())
    theirs = _canon(_oracle(str(d), "export_shards"))
    assert list(mine.columns) == list(theirs.columns)
    pd.testing.assert_frame_equal(mine, theirs, check_dtype=False)

    kl = export.keep_list(str(d)).to_pandas()
    kept = set(kl["doc_id"])
    assert 0 not in kept and 37 not in kept      # eval split never exported
    assert 5 not in kept                         # contaminated excluded
    assert 8 in kept and 9 not in kept           # dup keeps lowest doc_id
    assert 12 not in kept and 14 not in kept     # quality/lang filtered
    assert int(mine["n_docs"].sum()) == len(kl)


def test_export_shards_conformance_sf(ray_session):
    """Real-testdata conformance at sf0.001 (same check the driver runs)."""
    from uci_searchengine_ray.pipelines import export

    mine = _canon(export.export_shards_summary(SF).to_pandas())
    theirs = _canon(_oracle(SF, "export_shards"))
    assert len(mine) > 0
    pd.testing.assert_frame_equal(mine, theirs, check_dtype=False)


def test_export_pretraining_write(ray_session, tmp_path):
    """The write path: partitioned shard=K dirs, exported ids == keep-list
    ids, shard column consistent with the keep-list hash, text preserved."""
    import ray.data

    from uci_searchengine_ray.pipelines import export

    out = tmp_path / "out"
    res = export.export_pretraining(SF, str(out))
    kl = export.keep_list(SF).to_pandas()
    assert res["docs"] == len(kl)

    parts = sorted(os.listdir(os.path.join(str(out), "data")))
    assert all(p.startswith("shard=") for p in parts)
    # every shard dir carries its completion marker
    assert all(
        os.path.exists(os.path.join(str(out), "data", p, "_COMPLETE"))
        for p in parts
    )

    data = ray.data.read_parquet(
        os.path.join(str(out), "data"), file_extensions=["parquet"]
    ).to_pandas()
    assert set(data["doc_id"]) == set(kl["doc_id"])
    assert data["text"].notna().all()
    m = data.merge(
        kl[["doc_id", "shard"]], on="doc_id", suffixes=("", "_kl")
    )
    assert (m["shard"].astype(np.int64) == m["shard_kl"]).all()
    # deterministic shard hash: recomputable from doc_id alone
    ids = m["doc_id"].to_numpy(np.int64)
    assert (
        export._shard_of(ids, export.EXPORT_SHARDS)
        == m["shard"].astype(np.int64).to_numpy()
    ).all()


def test_export_resume_skips_finished_shards(ray_session, tmp_path):
    """Shard-granular resume: completed shards are untouched (file mtimes),
    a partial (marker-less) shard is rebuilt, and the resumed output is
    row-identical to a fresh export."""
    import glob
    import shutil

    import ray.data

    from uci_searchengine_ray.pipelines import export

    out = tmp_path / "out"
    export.export_pretraining(SF, str(out))
    data = os.path.join(str(out), "data")
    fresh = (
        ray.data.read_parquet(data, file_extensions=["parquet"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    shards = sorted(os.listdir(data))
    victim = os.path.join(data, shards[0])  # simulate a crash mid-shard
    os.remove(os.path.join(victim, "_COMPLETE"))
    survivors = [os.path.join(data, s) for s in shards[1:]]
    mtimes = {
        f: os.path.getmtime(f)
        for s in survivors
        for f in glob.glob(os.path.join(s, "*.parquet"))
    }

    res = export.export_pretraining(SF, str(out), resume=True)
    assert res["skipped_shards"] == [
        int(s.split("=", 1)[1]) for s in shards[1:]
    ]
    # completed shards' files untouched
    for f, t in mtimes.items():
        assert os.path.getmtime(f) == t, f
    # rebuilt output row-identical to the fresh export
    resumed = (
        ray.data.read_parquet(data, file_extensions=["parquet"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(
        fresh[sorted(fresh.columns)], resumed[sorted(resumed.columns)]
    )
    assert os.path.exists(os.path.join(victim, "_COMPLETE"))

    # fully-finished rerun: no shard rebuilt
    res2 = export.export_pretraining(SF, str(out), resume=True)
    assert len(res2["skipped_shards"]) == len(shards)


def test_export_refuses_foreign_out_dir(ray_session, tmp_path):
    """A fresh or resumed export never clears an ``out_dir`` it did not
    write: files there survive and the call raises."""
    from uci_searchengine_ray.pipelines import export

    out = tmp_path / "out"
    (out / "data").mkdir(parents=True)
    (out / "data" / "keep.txt").write_text("not export's")
    for resume in (False, True):
        with pytest.raises(ValueError, match="not written by"):
            export.export_pretraining(SF, str(out), resume=resume)
        assert (out / "data" / "keep.txt").read_text() == "not export's"


def test_export_empty_keep_list(ray_session, tmp_path):
    """Both docs are eval split (doc_id % 37 == 0), so nothing is exported:
    the empty keep-list spool still joins and the count is 0."""
    from uci_searchengine_ray.pipelines import export

    d = tmp_path / "ev"
    d.mkdir()
    rng = random.Random(3)
    texts = [_passing_text(rng), _passing_text(rng)]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 37], pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en", "en"]),
                "source": pa.array(["s0", "s1"]),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )
    res = export.export_pretraining(str(d), str(tmp_path / "out"))
    assert res["docs"] == 0
