"""Build determinism (SURVEY.md §7 hard part 2): the merged index must be
logically identical regardless of tokenize batch size or checkpoint-group
count, and two builds of one corpus at one configuration must write the
same bytes.  Batch sizes are set through the planner's row bound
(``index_build.batch_rows``)."""

import hashlib
import os

import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines import index_build
from uci_searchengine_ray.pipelines.index_build import build_index


def _digest(path: str) -> str:
    import pyarrow.compute as pc
    import pyarrow.dataset as pa_ds

    tbl = pa_ds.dataset(
        os.path.join(path, "postings"), format="parquet", partitioning="hive"
    ).to_table()
    idx = pc.sort_indices(
        tbl, sort_keys=[("term", "ascending"), ("block_id", "ascending")]
    )
    tbl = tbl.take(idx).select(sorted(tbl.column_names))
    h = hashlib.sha256()
    for batch in tbl.to_batches():
        for col in batch.columns:
            h.update(str(col.to_pylist()).encode())
    return h.hexdigest()


def _rows_bound(monkeypatch, rows: int) -> None:
    monkeypatch.setattr(index_build, "batch_rows", lambda n, ncpu: rows)


@pytest.mark.parametrize(
    "variant",
    [
        dict(batch_rows=64, ckpt_groups=1),
        dict(batch_rows=7, ckpt_groups=1),
        dict(batch_rows=64, ckpt_groups=3),
        dict(batch_rows=2048, ckpt_groups=4),
    ],
)
def test_index_invariant_to_execution_granularity(
    ray_session, synthetic_corpus_dir, tmp_path, monkeypatch, variant
):
    base_cfg = dict(mode="reference", block_size=32,
                    store_positions=True)
    ref = str(tmp_path / "ref")
    _rows_bound(monkeypatch, 256)
    build_index(synthetic_corpus_dir, ref,
                EngineConfig(**base_cfg, ckpt_groups=2), mode="fresh")
    other = str(tmp_path / "other")
    _rows_bound(monkeypatch, variant["batch_rows"])
    build_index(synthetic_corpus_dir, other,
                EngineConfig(**base_cfg, ckpt_groups=variant["ckpt_groups"]),
                mode="fresh")
    assert _digest(ref) == _digest(other), variant


def _file_digests(index: str) -> list:
    """Sorted (relative path, sha256) of the doc_meta/, runs/ and
    postings/ files."""
    out = []
    for sub in ("doc_meta", "runs", "postings"):
        for d, _, files in os.walk(os.path.join(index, sub)):
            for f in files:
                path = os.path.join(d, f)
                with open(path, "rb") as fh:
                    out.append((os.path.relpath(path, index),
                                hashlib.sha256(fh.read()).hexdigest()))
    return sorted(out)


def test_fresh_builds_write_identical_bytes(ray_session, synthetic_corpus_dir,
                                            tmp_path, monkeypatch):
    """Two fresh builds of a multi-file corpus write the same files, byte
    for byte.  100-doc batches over 75-doc files span files, and six
    batches run on four CPUs, so task timing differs between the builds."""
    _rows_bound(monkeypatch, 100)
    cfg = EngineConfig(mode="reference", block_size=32, store_positions=True,
                       ckpt_groups=1)
    digests = []
    for name in ("a", "b"):
        build_index(synthetic_corpus_dir, str(tmp_path / name), cfg, mode="fresh")
        digests.append(_file_digests(str(tmp_path / name)))
    runs = [p for p, _ in digests[0] if p.startswith("runs")]
    assert len(runs) == 6  # 600 docs in 100-doc batches
    assert digests[0] == digests[1]


def test_plan_batches_properties():
    """The planner's slices cover every row once, in file order; a batch
    holds at most ``max_rows`` rows and at most ``max_bytes`` bytes unless
    it is one row; zero-row files and row groups add nothing."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from uci_searchengine_ray.pipelines.index_build import plan_batches

    row_group = st.tuples(st.integers(0, 40), st.integers(0, 4000))
    files = st.lists(st.lists(row_group, max_size=4), max_size=6)

    @settings(max_examples=300, deadline=None)
    @given(files, st.integers(1, 50), st.integers(1, 1500))
    def check(groups, max_rows, max_bytes):
        footers = [(f"f{i}", g) for i, g in enumerate(groups)]
        # the cost of each row, in file order, as the planner prices it
        cost = [(path, -(-b // max(n, 1))) for path, g in footers
                for n, b in g for _ in range(n)]
        plan = plan_batches(footers, max_rows, max_bytes)
        rows = [(path, r) for batch in plan for path, lo, hi in batch
                for r in range(lo, hi)]
        want = [(path, r) for path, g in footers
                for r in range(sum(n for n, _ in g))]
        assert rows == want
        at = 0
        for batch in plan:
            n = sum(hi - lo for _, lo, hi in batch)
            assert 1 <= n <= max_rows
            assert sum(c for _, c in cost[at:at + n]) <= max_bytes or n == 1
            # one slice per file, in file order
            paths = [path for path, _, _ in batch]
            assert paths == sorted(set(paths), key=paths.index)
            at += n

    check()
    footers = [("a", [(3, 30)]), ("empty", []), ("zero", [(0, 0)]),
               ("b", [(2, 2000), (4, 40)])]
    assert plan_batches(footers, 4, 100) == [
        [("a", 0, 3)], [("b", 0, 1)], [("b", 1, 2)], [("b", 2, 6)]]
