"""Span tracing from outside the engine.

The benchmark wraps the public functions of each layer (module attributes,
class methods, ``TOKENIZERS`` entries) in the process that runs them; the
engine's code is not edited.  A span is one call of a wrapped function.  The
outermost span in a thread is a *root*; when it ends, its record goes to a
sink.  A record holds, per span name, the total time and the self time (the
span's duration minus the time its child spans cover), plus counters.  So
for one root, the self times of all names add up to the root's duration.

Three processes install wrappers:
  - the search server launcher (``install_server_hooks``): one root per
    HTTP request, around ``SearchServer._handle``;
  - every Ray worker of a traced build (``install_build_worker_hooks``, a
    ``worker_process_setup_hook``): one root per task body, appended as a
    JSON line to ``$PERFBENCH_TRACE_DIR/<pid>.jsonl``;
  - the benchmark driver (``traced_merge_factory``), which wraps the
    phase-2 merge closure before Ray ships it to the workers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """Thread-local span stacks; one record per root span, sent to ``sink``."""

    def __init__(self, sink: Callable[[dict], None]):
        self._sink = sink
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` traced as span ``name``.  ``count(result, args, kwargs)``
        may return counters to add to the current record."""
        local = self._local
        sink = self._sink

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if not stack:
                local.rec = {"root": name, "t0": time.time(),
                             "self": defaultdict(float),
                             "total": defaultdict(float),
                             "counts": defaultdict(float)}
            rec = local.rec
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec["self"][name] += dt - frame[0]
                rec["total"][name] += dt
            if count is not None:
                for k, v in count(out, args, kwargs).items():
                    rec["counts"][k] += v
            if not stack:
                rec["t1"] = time.time()
                sink({k: dict(v) if isinstance(v, defaultdict) else v
                      for k, v in rec.items()})
            return out

        traced.__wrapped__ = fn
        return traced


def _patch(tracer: Tracer, owner, attr: str, name: str, count=None) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


def _patch_tokenizers(tracer: Tracer, name: str) -> None:
    """Wrap every ``TOKENIZERS`` entry and the module functions they alias
    (stages that captured ``TOKENIZERS[mode]`` before pickling resolve the
    module attribute again when unpickled in a worker)."""
    from uci_searchengine_ray.functions import tokenizer

    for mode, fn in list(tokenizer.TOKENIZERS.items()):
        wrapped = tracer.wrap(name, fn)
        tokenizer.TOKENIZERS[mode] = wrapped
        if getattr(tokenizer, fn.__name__, None) is fn:
            setattr(tokenizer, fn.__name__, wrapped)


# -- search server ----------------------------------------------------------

def install_server_hooks(sink: Callable[[dict], None]) -> None:
    """Wrap the serving layers in this (server) process."""
    from uci_searchengine_ray import server
    from uci_searchengine_ray.pipelines import search
    from uci_searchengine_ray.state import docstore

    tr = Tracer(sink)

    def wand_stats(fn):
        def call(*args, **kwargs):
            kwargs.setdefault("stats", {})
            return fn(*args, **kwargs)
        return call

    def wand_count(out, args, kwargs):
        st = kwargs["stats"]
        return {"blocks_scored": st.get("blocks_decoded", 0),
                "blocks_total": st.get("blocks_total", 0)}

    _patch(tr, server.SearchServer, "_handle", "server.handle")
    _patch(tr, search, "search_with_scorer", "pipelines.search.envelope")
    _patch_tokenizers(tr, "functions.tokenizer.query")
    _patch(tr, search, "score_reference", "pipelines.search.score")
    _patch(tr, search, "score_bm25_taat", "pipelines.search.score")
    search.score_bm25_wand = wand_stats(
        tr.wrap("pipelines.search.score", search.score_bm25_wand, wand_count))
    _patch(tr, search.PostingsIndex, "prefetch", "pipelines.search.decode")
    _patch(tr, search.PostingsIndex, "postings", "pipelines.search.decode")
    _patch(tr, search.PostingsIndex, "decode_block", "pipelines.search.decode",
           lambda out, a, kw: {"blocks_decoded": 1})
    _patch(tr, docstore.DocStore, "fetch", "state.docstore.fetch",
           lambda out, a, kw: {"fetches": 1, "rows_fetched": len(out)})
    _patch(tr, search, "build_snippet", "functions.scoring.snippet")


# -- index build (Ray workers) ------------------------------------------------

def _jsonl_sink() -> Callable[[dict], None]:
    path = os.path.join(os.environ[TRACE_DIR_ENV], f"{os.getpid()}.jsonl")

    def sink(rec: dict) -> None:
        with open(path, "a") as f:
            f.write(json.dumps(rec) + "\n")
    return sink


_WORKER_TRACER: Optional[Tracer] = None


def worker_tracer() -> Tracer:
    """This process's build tracer (created on first use)."""
    global _WORKER_TRACER
    if _WORKER_TRACER is None:
        _WORKER_TRACER = Tracer(_jsonl_sink())
    return _WORKER_TRACER


def install_build_worker_hooks() -> None:
    """``worker_process_setup_hook``: wrap the phase-1 layers and the
    snapshot writer in this Ray worker."""
    from uci_searchengine_ray.stages import postings, tokenize
    from uci_searchengine_ray.state import storage

    tr = worker_tracer()

    def written(out, args, kwargs):
        fs, _table, dir_path, name = args[:4]
        path = storage.join(dir_path, name)
        return {"bytes_written": fs.get_file_info(path).size or 0}

    _patch_tokenizers(tr, "functions.tokenizer.tokenize")
    _patch(tr, postings.TokenizeEncodeRuns, "__call__",
           "stages.postings.tokenize_encode")
    _patch(tr, tokenize, "doc_meta_batch", "stages.tokenize.doc_meta")
    _patch(tr, storage, "write_table_idempotent", "state.storage.write",
           written)


def traced_merge_factory(make_merge_shard: Callable) -> Callable:
    """A stand-in for ``make_merge_shard`` (patched into
    ``pipelines.index_build`` in the driver) whose closure records a
    ``stages.postings.merge`` span in the worker that runs it."""

    def factory(*args, **kwargs):
        merge = make_merge_shard(*args, **kwargs)

        def traced_merge(*a, **kw):
            return worker_tracer().wrap(
                "stages.postings.merge", merge,
                lambda out, _a, _kw: {"postings_merged": int(
                    sum(out.column("n").to_pylist()))},
            )(*a, **kw)
        return traced_merge
    return factory


def read_worker_records(trace_dir: str) -> list:
    """Drain every worker's JSON lines (the files are removed, so the next
    call sees only spans recorded after this one)."""
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".jsonl"):
            path = os.path.join(trace_dir, name)
            with open(path) as f:
                out.extend(json.loads(line) for line in f if line.strip())
            os.unlink(path)
    return out


def covered_seconds(records: list) -> float:
    """Wall time covered by the union of the records' [t0, t1] intervals
    (roots in parallel workers overlap; a sum would double count)."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted((r["t0"], r["t1"]) for r in records):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def sum_by_name(records: list, key: str = "self") -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for r in records:
        for k, v in r[key].items():
            out[k] += v
    return dict(out)
