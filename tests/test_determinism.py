"""Execution-granularity determinism: the merged index must be logically
identical regardless of tokenize batch size or checkpoint-group count —
the single-node stand-in for 'identical across runs and parallelism levels'
(SURVEY.md §7 hard part 2)."""

import hashlib
import os

import pytest

from uci_searchengine_ray.config import EngineConfig
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


@pytest.mark.parametrize(
    "variant",
    [
        dict(tokenize_batch_size=64, ckpt_groups=1),
        dict(tokenize_batch_size=7, ckpt_groups=1),
        dict(tokenize_batch_size=64, ckpt_groups=3),
        dict(tokenize_batch_size=2048, ckpt_groups=4),
    ],
)
def test_index_invariant_to_execution_granularity(
    ray_session, synthetic_corpus_dir, tmp_path, variant
):
    base_cfg = dict(mode="reference", block_size=32,
                    store_positions=True)
    ref = str(tmp_path / "ref")
    build_index(synthetic_corpus_dir, ref,
                EngineConfig(**base_cfg, tokenize_batch_size=256, ckpt_groups=2),
                mode="fresh")
    other = str(tmp_path / "other")
    build_index(synthetic_corpus_dir, other,
                EngineConfig(**base_cfg, **variant), mode="fresh")
    assert _digest(ref) == _digest(other), variant
