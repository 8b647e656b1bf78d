"""JSONL / CSV corpus ingestion (round 5: "another source format").

The pretraining interchange shapes — newline-delimited JSON and CSV —
flow through Arrow's C++ readers into the corpus shape, write as the
parquet layout the build's resume contract needs, and index+query
end-to-end.  Identity rules: id_col passthrough, else content-sha path
(duplicate texts collide LOUDLY at build time by design).
"""

import json
import os

import pyarrow as pa
import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.pipelines.search import search_one
from uci_searchengine_ray.sources.corpus import (
    corpus_from_csv,
    corpus_from_jsonl,
    write_corpus,
)

ROWS = [
    {"text": "alpha beta gamma unique_jsonl_marker", "lang": "en", "rid": 1},
    {"text": "delta epsilon zeta", "lang": "de", "rid": 2},
    {"text": "eta theta iota kappa", "lang": "en", "rid": 3},
    {"text": "lambda mu nu", "lang": "es", "rid": 4},
]


@pytest.fixture()
def jsonl_file(tmp_path):
    p = tmp_path / "dump.jsonl"
    with open(p, "w") as f:
        for r in ROWS:
            f.write(json.dumps(r) + "\n")
    return str(p)


@pytest.fixture()
def csv_file(tmp_path):
    p = tmp_path / "dump.csv"
    with open(p, "w") as f:
        f.write("rid,text,lang\n")
        for r in ROWS:
            f.write(f"{r['rid']},{r['text']},{r['lang']}\n")
    return str(p)


def test_jsonl_to_corpus_shape(ray_session, jsonl_file):
    ds = corpus_from_jsonl(
        jsonl_file, text_col="text", lang_col="lang", id_col="rid"
    )
    sch = ds.schema()  # ray.data Schema wrapper: names + arrow types
    assert dict(zip(sch.names, sch.types))["content"] == pa.large_string()
    df = ds.to_pandas()
    assert len(df) == len(ROWS)
    assert sorted(df["doc_id"]) == [1, 2, 3, 4]
    assert set(df["lang"]) == {"en", "de", "es"}
    assert all(p.startswith("row_") for p in df["path"])


def test_jsonl_content_sha_identity(ray_session, jsonl_file):
    """Without id_col, identity derives from content sha — deterministic
    across re-ingests."""
    a = corpus_from_jsonl(jsonl_file).to_pandas().sort_values("path")
    b = corpus_from_jsonl(jsonl_file).to_pandas().sort_values("path")
    assert list(a["path"]) == list(b["path"])
    assert len(set(a["path"])) == len(ROWS)  # distinct texts → distinct ids


def test_jsonl_build_and_query(ray_session, jsonl_file, tmp_path):
    corpus_dir = write_corpus(
        corpus_from_jsonl(jsonl_file, lang_col="lang", id_col="rid"),
        str(tmp_path / "corpus"),
    )
    idx = build_index(
        corpus_dir, str(tmp_path / "idx"),
        EngineConfig(mode="reference", block_size=8),
        mode="fresh",
    )
    out = search_one(idx, "unique_jsonl_marker", page=1, per_page=5)
    assert out["total_results"] == 1
    assert out["results"][0]["doc_id"] == 1


def test_csv_matches_jsonl(ray_session, jsonl_file, csv_file):
    """The two readers produce the identical corpus rows."""
    j = (
        corpus_from_jsonl(jsonl_file, lang_col="lang", id_col="rid")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    c = (
        corpus_from_csv(csv_file, lang_col="lang", id_col="rid")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    c["repo"] = c["repo"].str.replace("csv/", "jsonl/")
    import pandas as pd

    pd.testing.assert_frame_equal(j, c)


def test_duplicate_texts_fail_loudly(ray_session, tmp_path):
    p = tmp_path / "dups.jsonl"
    with open(p, "w") as f:
        f.write(json.dumps({"text": "same words here"}) + "\n")
        f.write(json.dumps({"text": "same words here"}) + "\n")
    corpus_dir = write_corpus(
        corpus_from_jsonl(str(p)), str(tmp_path / "corpus")
    )
    with pytest.raises(Exception, match="duplicate doc_id"):
        build_index(
            corpus_dir, str(tmp_path / "idx"),
            EngineConfig(mode="reference", block_size=8),
            mode="fresh",
        )


def test_gzipped_jsonl(ray_session, tmp_path):
    """.jsonl.gz (the common pretraining-dump layout) decompresses inline."""
    import gzip

    p = tmp_path / "dump.jsonl.gz"
    with gzip.open(p, "wt") as f:
        for r in ROWS:
            f.write(json.dumps(r) + "\n")
    df = corpus_from_jsonl(str(p), lang_col="lang", id_col="rid").to_pandas()
    assert len(df) == len(ROWS)
    assert sorted(df["doc_id"]) == [1, 2, 3, 4]


def test_mixed_plain_and_gz_directory(ray_session, tmp_path):
    """A dump dir mixing plain and gzipped members ingests as one corpus
    (two reads unioned; gzip declared only for the .gz members)."""
    import gzip

    d = tmp_path / "mixed"
    d.mkdir()
    with open(d / "shard-000.jsonl", "w") as f:
        for r in ROWS[:2]:
            f.write(json.dumps(r) + "\n")
    nested = d / "sub"
    nested.mkdir()
    with gzip.open(nested / "shard-001.jsonl.gz", "wt") as f:
        for r in ROWS[2:]:
            f.write(json.dumps(r) + "\n")
    df = corpus_from_jsonl(str(d), lang_col="lang", id_col="rid").to_pandas()
    assert sorted(df["doc_id"]) == [1, 2, 3, 4]


def test_wrong_text_col_fails_loudly(ray_session, jsonl_file):
    """A wrong --text-col must raise, not silently produce rows:0."""
    import ray.exceptions

    with pytest.raises(Exception, match="text column 'body' not in"):
        corpus_from_jsonl(jsonl_file, text_col="body").to_pandas()


def test_reingest_clears_stale_parts(ray_session, tmp_path):
    """write_corpus into a dir holding a previous run's part files must
    not serve a mixed corpus (ray writes fresh UUID names per run)."""
    p = tmp_path / "v1.jsonl"
    with open(p, "w") as f:
        for r in ROWS:
            f.write(json.dumps(r) + "\n")
    out = str(tmp_path / "corpus")
    write_corpus(corpus_from_jsonl(str(p), id_col="rid"), out)
    p2 = tmp_path / "v2.jsonl"
    with open(p2, "w") as f:
        f.write(json.dumps(ROWS[0]) + "\n")  # shrunk corpus
    write_corpus(corpus_from_jsonl(str(p2), id_col="rid"), out)
    from uci_searchengine_ray.state.storage import parquet_rows

    assert parquet_rows(out) == 1  # old parts cleared, not unioned


def test_write_corpus_refuses_foreign_directory(ray_session, jsonl_file, tmp_path):
    """A non-empty directory write_corpus did not write is left intact."""
    import pyarrow.parquet as pq

    out = tmp_path / "real_dataset"
    out.mkdir()
    for i in range(2):
        pq.write_table(pa.table({"x": [i]}), str(out / f"part-{i}.parquet"))
    before = sorted(os.listdir(out))
    with pytest.raises(ValueError, match="not written by write_corpus"):
        write_corpus(corpus_from_jsonl(jsonl_file, id_col="rid"), str(out))
    assert sorted(os.listdir(out)) == before
    assert pq.read_table(str(out / "part-1.parquet"))["x"].to_pylist() == [1]


def test_jsonl_discovery_needs_dotted_extension(ray_session, tmp_path):
    """Directory discovery takes .jsonl/.json/.ndjson(.gz) members only, not
    names that merely end in those letters."""
    d = tmp_path / "dump"
    d.mkdir()
    with open(d / "a.ndjson", "w") as f:
        for r in ROWS[:2]:
            f.write(json.dumps(r) + "\n")
    for name in ("data_json", "x.notjson", "notes_jsonl"):
        (d / name).write_text("not json at all\n")
    df = corpus_from_jsonl(str(d), id_col="rid").to_pandas()
    assert sorted(df["doc_id"]) == [1, 2]
    only_foreign = tmp_path / "foreign"
    only_foreign.mkdir()
    (only_foreign / "data_json").write_text("{}\n")
    with pytest.raises(FileNotFoundError):
        corpus_from_jsonl(str(only_foreign))
