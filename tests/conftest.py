"""Session-scoped Ray fixture — ONE ray.init per pytest session."""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    # Ray workers import the package through PYTHONPATH, not through this
    # process's sys.path, so pytest may run from any directory
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from uci_searchengine_ray.config import configure_data_context

    configure_data_context()
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def synthetic_corpus_dir(tmp_path_factory):
    from uci_searchengine_ray.sources.corpus import write_synthetic_corpus

    out = tmp_path_factory.mktemp("corpus") / "sc"
    return write_synthetic_corpus(str(out), n_docs=600, n_files=8)


@pytest.fixture(scope="session")
def built_index(ray_session, synthetic_corpus_dir, tmp_path_factory):
    """Reference-mode index over the synthetic corpus, built once."""
    from uci_searchengine_ray.config import EngineConfig
    from uci_searchengine_ray.pipelines.index_build import build_index

    out = tmp_path_factory.mktemp("index") / "snap"
    cfg = EngineConfig(mode="reference", block_size=32, ckpt_groups=4)
    return build_index(synthetic_corpus_dir, str(out), cfg=cfg, mode="fresh")
