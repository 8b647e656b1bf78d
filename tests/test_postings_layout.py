"""The postings layout: block rows carry their term's merge key, a term's
payload scan prunes to that key's row groups, and snapshots written with
the older ``shard=K/`` partition rebuild to the current layout.  The runs
layout: one runs file per tokenize batch beside its doc_meta file, sorted
by merge key with one row group per phase-2 key range."""

import glob
import os
import shutil

import pyarrow.compute as pc
import pyarrow.dataset as pa_ds
import pyarrow.parquet as pq
import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.functions.hashing import term_shard
from uci_searchengine_ray.pipelines.index_build import build_index, load_stats
from uci_searchengine_ray.pipelines.search import PostingsIndex


def _postings(index_dir):
    tbl = pa_ds.dataset(os.path.join(index_dir, "postings"),
                        format="parquet").to_table()
    return tbl.sort_by([("term", "ascending"), ("block_id", "ascending")])


def test_block_merge_key_is_term_key(built_index):
    """The invariant the scan pruning relies on."""
    n_keys = load_stats(built_index)["num_merge_groups"]
    tbl = _postings(built_index)
    expect = [term_shard(t, n_keys) for t in tbl["term"].to_pylist()]
    assert tbl["merge_key"].to_pylist() == expect


def test_term_scan_prunes_to_its_key(built_index, monkeypatch):
    """A term's ``prefetch`` reads only row groups of its merge key (by
    their statistics), some but not all of them, and those hold every
    block of the term."""
    idx = PostingsIndex(built_index)
    term = "return"
    key = term_shard(term, load_stats(built_index)["num_merge_groups"])
    total = sum(md.num_row_groups for _, md in idx._files)
    assert 1 <= len(idx._key_groups[key]) < total

    reads = []  # (file footer, row groups, rows read) per read
    real = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *args, **kwargs):
        got = real(self, row_groups, *args, **kwargs)
        reads.append((self.metadata, list(row_groups), got))
        return got

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    idx.prefetch([term])
    read = [(md, rg) for md, rgs, _ in reads for rg in rgs]
    assert 1 <= len(read) < total
    for md, rg in read:
        col = md.schema.names.index("merge_key")
        stats = md.row_group(rg).column(col).statistics
        assert stats.min == stats.max == key
    # the read holds every block of the term
    terms = [t for _, _, got in reads for t in got["term"].to_pylist()]
    assert terms.count(term) == idx.n_blocks(term) > 0
    assert len(idx._payload(term).n) == idx.n_blocks(term)


def test_runs_layout(built_index):
    """One runs file per doc_meta file, with the same stem and no
    ``merge_key=`` dir; rows ascend by merge key and each row group holds
    one phase-2 key range, with statistics on ``merge_key`` only; the
    manifest counts the files and their bytes."""
    from uci_searchengine_ray.stages.postings import key_ranges
    from uci_searchengine_ray.state import manifest

    def stems(sub, prefix):
        files = glob.glob(os.path.join(built_index, sub, "*", "*.parquet"))
        return sorted(os.path.relpath(f, os.path.join(built_index, sub))
                      .replace(prefix, "", 1) for f in files), files

    run_stems, run_files = stems("runs", "runs-")
    assert run_stems == stems("doc_meta", "meta-")[0] != []
    assert not glob.glob(os.path.join(built_index, "runs", "**", "merge_key=*"),
                         recursive=True)
    # the ray_session fixture starts Ray with 4 CPUs: one merge task and
    # one key range per CPU
    ranges = key_ranges(load_stats(built_index)["num_merge_groups"], 4)
    for path in run_files:
        keys = pq.read_table(path, columns=["merge_key"])["merge_key"].to_pylist()
        assert keys == sorted(keys)
        meta = pq.read_metadata(path)
        for i in range(meta.num_row_groups):
            rg = meta.row_group(i)
            cols = {rg.column(j).path_in_schema: rg.column(j)
                    for j in range(rg.num_columns)}
            assert {c for c, m in cols.items() if m.is_stats_set} == {"merge_key"}
            stats = cols["merge_key"].statistics
            assert any(lo <= stats.min and stats.max < hi for lo, hi in ranges)
    rows = manifest.stage_metrics(built_index, "runs")
    assert sum(r["run_files"] for r in rows) == len(run_files)
    assert sum(r["run_bytes"] for r in rows) == sum(
        os.path.getsize(f) for f in run_files)


@pytest.fixture(scope="module")
def parent_layout(built_index, tmp_path_factory):
    """A copy of ``built_index`` with its postings rewritten as older builds
    wrote them: no ``merge_key``, and a ``shard`` column hive-partitioned
    into ``shard=K/`` dirs."""
    snap = str(tmp_path_factory.mktemp("parent_layout") / "snap")
    shutil.copytree(built_index, snap)
    post_dir = os.path.join(snap, "postings")
    tbl = _postings(built_index).drop_columns(["merge_key"])
    shard = pc.cast([term_shard(t, 8) for t in tbl["term"].to_pylist()], "int32")
    tbl = tbl.add_column(1, "shard", shard)
    shutil.rmtree(post_dir)
    pq.write_to_dataset(tbl, post_dir, partition_cols=["shard"])
    assert glob.glob(os.path.join(post_dir, "shard=*", "*.parquet"))
    return snap


def test_parent_layout_rebuilds_to_new_layout(
    built_index, parent_layout, synthetic_corpus_dir, tmp_path
):
    snap = str(tmp_path / "snap")
    shutil.copytree(parent_layout, snap)
    cfg = EngineConfig(mode="reference", block_size=32, ckpt_groups=4)
    build_index(synthetic_corpus_dir, snap, cfg, mode="rebuild")
    assert not glob.glob(os.path.join(snap, "postings", "shard=*"))
    assert _postings(snap).equals(_postings(built_index))
