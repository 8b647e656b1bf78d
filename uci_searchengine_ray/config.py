"""Engine configuration (the rebuild analog of the reference's settings.py +
globals.py surface, SURVEY.md §2.10): one typed dataclass that flows through
job entry points — no process-global singletons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EngineConfig:
    # tokenizer mode: "reference" (conformance, SURVEY §1.4) or "code" (BM25 path)
    mode: str = "reference"

    # posting-block size (postings per block)
    block_size: int = 128

    # checkpoint groups: input files are processed in this many lineage groups;
    # resume skips completed groups (manifest anti-join).  None (default) =
    # derived by build_index from the corpus row count and the cluster CPUs
    # (one group until each group fills a full task wave), then pinned in
    # build_config.json; an explicit count overrides the pinned one
    ckpt_groups: Optional[int] = None

    # keep full document content in the doc_meta forward store (reference
    # parity: the reference keeps content in its documents table and reads it
    # back for snippets).  At lake scale set False — the input parquet IS the
    # content store, doc_meta keeps metadata only, and snippets degrade to
    # the no-content fallback unless the serving layer re-reads the lake
    store_content: bool = True

    # store token positions in posting blocks (enables phrase queries — the
    # reference's intended InvertedIndex.position variant, search.py:26-39);
    # costs ~1 byte/token extra in the index
    store_positions: bool = False

    # BM25 parameters (north star: k1=1.2, b=0.75)
    bm25_k1: float = 1.2
    bm25_b: float = 0.75

    # query serving
    top_k: int = 100


def configure_data_context() -> None:
    """Engine-standard Ray Data context: PUSH-based sort shuffle and no
    progress bars.  Push-based was measured up to 5× faster than the
    pull-based default on this engine's wide groupbys (240k-doc
    dup_spans 53-68 s → 10-14 s; ngram shingle groupby 46-104 s →
    29-46 s, interleaved A/B both orders) — the pipelines here are
    all-to-all-heavy by nature, which is exactly the case push-based
    shuffle exists for.  Safe to call any time before execution; every
    session owner (bench, tests, CLI, driver entry) routes through it."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
