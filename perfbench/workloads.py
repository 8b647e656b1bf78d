"""The four benchmark workloads.  Each takes a ``Run`` and returns a dict:

  attempted, failed   answers checked and answers that were wrong or missing
  e2e                 {metric: value} for the end-to-end metrics (untraced)
  layers              {metric: value} for the per-layer metrics (traced run)
  report              extra named figures printed before the result line

Expected answers are computed in set-up, before the timed loop; outputs are
compared after it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import harness
import inputs
import tracing
from harness import median

# sizes (documents); see NOTES.md for how they were chosen
BUILD_DOCS = 8_000
SMALL_DOCS = 5_000
LARGE_DOCS = 16_000
CURATE_DOCS = 2_500
PER_PAGE = 10


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    cpus: int
    work: str
    corrupt: bool = False  # self-test: spoil one answer before checking


def _dir_bytes(path: str) -> int:
    """Bytes of the files under path."""
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


# --------------------------------------------------------------------------
# index_build
# --------------------------------------------------------------------------

def _corpus_expectation(corpus: str) -> Tuple[int, List[str]]:
    import pyarrow.dataset as pa_ds

    content = pa_ds.dataset(corpus).to_table(columns=["content"])["content"]
    shas = sorted(hashlib.sha256((c or "").encode()).hexdigest()
                  for c in content.to_pylist())
    return len(shas), shas


def _build_is_correct(index_dir: str, n_docs: int, shas: List[str],
                      corrupt: bool) -> bool:
    """n_docs equals the corpus rows and the doc_meta content hashes are
    exactly the corpus content hashes."""
    import pyarrow.dataset as pa_ds

    from uci_searchengine_ray.pipelines.index_build import load_stats

    got = sorted(pa_ds.dataset(os.path.join(index_dir, "doc_meta"))
                 .to_table(columns=["content_sha256"])["content_sha256"]
                 .to_pylist())
    if corrupt:
        got[0] = "0" * 64
    return load_stats(index_dir)["n_docs"] == n_docs and got == shas


def _timed_builds(run: Run, corpus: str, index_dir: str, n_docs: int,
                  shas: List[str], seconds: float, check=True):
    """Fresh builds until ``seconds`` of build time have passed; each output
    is checked outside its timing.  Returns (walls, cpus, failed): wall and
    CPU seconds (``harness.tree_cpu_s``) per build."""
    from uci_searchengine_ray.config import EngineConfig
    from uci_searchengine_ray.pipelines.index_build import build_index

    walls, cpus, failed = [], [], 0
    while sum(walls) < seconds:
        c0, t0 = harness.tree_cpu_s(), time.perf_counter()
        build_index(corpus, index_dir, EngineConfig(mode="code"), mode="fresh")
        walls.append(time.perf_counter() - t0)
        cpus.append(harness.tree_cpu_s() - c0)
        if check and not _build_is_correct(
                index_dir, n_docs, shas, run.corrupt and len(walls) == 1):
            failed += 1
    return walls, cpus, failed


def index_build(run: Run) -> dict:
    from uci_searchengine_ray.config import EngineConfig
    from uci_searchengine_ray.pipelines.index_build import build_index

    corpus = os.path.join(run.work, "corpus")
    index_dir = os.path.join(run.work, "index")
    c0, t0 = harness.tree_cpu_s(), time.perf_counter()
    with harness.RaySession(run.work, run.cpus) as ray_s:
        inputs.write_code_corpus(corpus, run.seed, BUILD_DOCS)
        n_docs, shas = _corpus_expectation(corpus)
        build_index(corpus, index_dir, EngineConfig(mode="code"), mode="fresh")
        setup_cpu_s = harness.tree_cpu_s() - c0
        setup_wall_s = time.perf_counter() - t0
        walls, cpus, failed = _timed_builds(run, corpus, index_dir, n_docs,
                                            shas, run.seconds)
        # VmHWM keeps each worker's peak over all builds of the session
        peak_mb = harness.ray_worker_peak_mb()
        index_bytes = _dir_bytes(index_dir)
        corpus_bytes = _dir_bytes(corpus)
        layers: Dict[str, float] = {}
        if run.trace:
            small = os.path.join(run.work, "corpus_small")
            inputs.write_code_corpus(small, run.seed, BUILD_DOCS // 10)
            n_small, shas_small = _corpus_expectation(small)
            small_walls, _, small_failed = _timed_builds(
                run, small, index_dir, n_small, shas_small, run.seconds / 3)
            failed += small_failed
            big, little = median(walls), median(small_walls)
            per_kdoc = (big - little) / ((n_docs - n_small) / 1000)
            layers["index_build.per_kdoc_s"] = per_kdoc
            layers["index_build.fixed_s"] = big - per_kdoc * n_docs / 1000
    result = {
        "attempted": len(walls), "failed": failed,
        "e2e": {"setup_s": setup_cpu_s, "op_cpu_ms": median(cpus) * 1e3,
                "peak_rss_mb": peak_mb,
                "disk_bytes_per_input_byte": index_bytes / corpus_bytes},
        "report": {
            "setup_wall_s": setup_wall_s,
            "ray_start_s": ray_s.start_s, "builds": len(walls),
            "build_walls_s": [round(w, 3) for w in walls],
            "build_cpus_s": [round(c, 3) for c in cpus],
            "build_p50_s": median(walls),
            "build_docs_per_s": n_docs / median(walls),
            "corpus_docs": n_docs, "corpus_bytes": corpus_bytes,
        },
    }
    if run.trace:
        layers.update(_traced_builds(run, corpus, index_dir, n_docs, shas,
                                     median(walls)))
        result["layers"] = layers
    return result


def _traced_builds(run: Run, corpus: str, index_dir: str, n_docs: int,
                   shas: List[str], untraced_p50: float) -> dict:
    """A second Ray session whose workers wrap the build layers; per-build
    layer times are summed over workers, then the median over builds."""
    from uci_searchengine_ray.config import EngineConfig
    from uci_searchengine_ray.pipelines import index_build as ib

    trace_dir = os.path.join(run.work, "spans")
    os.makedirs(trace_dir, exist_ok=True)
    original = ib.make_merge_shard
    ib.make_merge_shard = tracing.traced_merge_factory(original)
    per_build: List[Dict[str, float]] = []
    walls: List[float] = []
    try:
        with harness.RaySession(run.work, run.cpus, trace_dir=trace_dir):
            ib.build_index(corpus, index_dir, EngineConfig(mode="code"),
                           mode="fresh")
            tracing.read_worker_records(trace_dir)  # drop the warm-up's spans
            while sum(walls) < run.seconds:
                t0 = time.perf_counter()
                ib.build_index(corpus, index_dir, EngineConfig(mode="code"),
                               mode="fresh")
                wall = time.perf_counter() - t0
                walls.append(wall)
                recs = tracing.read_worker_records(trace_dir)
                self_s = tracing.sum_by_name(recs, "self")
                counts = tracing.sum_by_name(recs, "counts")
                per_build.append({
                    "functions.tokenizer.tokenize_s":
                        self_s.get("functions.tokenizer.tokenize", 0.0),
                    "stages.postings.tokenize_encode_s":
                        self_s.get("stages.postings.tokenize_encode", 0.0),
                    "stages.tokenize.doc_meta_s":
                        self_s.get("stages.tokenize.doc_meta", 0.0),
                    "state.storage.write_s":
                        self_s.get("state.storage.write", 0.0),
                    "state.storage.bytes_written":
                        counts.get("bytes_written", 0.0),
                    "stages.postings.merge_s":
                        self_s.get("stages.postings.merge", 0.0),
                    "stages.postings.postings_merged":
                        counts.get("postings_merged", 0.0),
                    "pipelines.index_build.other_s":
                        wall - tracing.covered_seconds(recs),
                })
                if not _build_is_correct(index_dir, n_docs, shas, False):
                    raise RuntimeError("traced build produced a wrong index")
    finally:
        ib.make_merge_shard = original
    layers = {k: median([b[k] for b in per_build]) for k in per_build[0]}
    layers["trace.overhead_frac"] = median(walls) / untraced_p50 - 1
    return layers


# --------------------------------------------------------------------------
# search_small / search_large
# --------------------------------------------------------------------------

def _closed_loop(port: int, seq: List[Tuple[str, int]], seconds: float):
    """One keep-alive connection; each request is sent when the previous
    response has been read.  Returns (latencies_s, responses, wall_s)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    lat: List[float] = []
    responses: List[Tuple[str, int, object]] = []
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds:
        q, page = seq[i % len(seq)]
        i += 1
        path = "/api/search?" + urllib.parse.urlencode(
            {"query": q, "page": page, "per_page": PER_PAGE})
        t0 = time.perf_counter()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            status = resp.status
        except (OSError, http.client.HTTPException):
            conn.close()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            status, body = None, b""
        lat.append(time.perf_counter() - t0)
        responses.append((q, page, body if status == 200 else None))
    wall = time.perf_counter() - t_start
    conn.close()
    return lat, responses, wall


def _count_wrong(responses, check: Callable[[str, int, dict], bool],
                 corrupt: bool) -> int:
    wrong = 0
    for i, (q, page, body) in enumerate(responses):
        if body is None:
            wrong += 1
            continue
        got = json.loads(body)
        if corrupt and i == 0:
            got["results"] = got["results"][::-1] + [{"doc_id": -1}]
        wrong += not check(q, page, got)
    return wrong


def _warm(port: int, queries: List[str]) -> None:
    """Page 1 of every distinct query once, over one connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    for q in queries:
        conn.request("GET", "/api/search?" + urllib.parse.urlencode(
            {"query": q, "page": 1, "per_page": PER_PAGE}))
        conn.getresponse().read()
    conn.close()


def _search_workload(run: Run, prepare) -> dict:
    """Shared body of both search workloads.  ``prepare()`` runs inside a
    Ray session: it generates the inputs, builds the index and computes the
    expected answers, returning (input_dir, index_dir, mode, queries, check,
    hits), where hits[q] is the exact number of documents matching q."""
    c0, t0 = harness.tree_cpu_s(), time.perf_counter()
    with harness.RaySession(run.work, run.cpus) as ray_s:
        input_dir, index_dir, mode, queries, check, hits = prepare()
        # read while Ray's workers are alive: their CPU ends with them
        setup_cpu_s = harness.tree_cpu_s() - c0
    ray_start = ray_s.start_s
    seq = inputs.request_sequence(run.seed, queries, 20_000)
    # set-up ends once the server has answered every distinct query once
    c1, srv_t0 = harness.tree_cpu_s(), time.perf_counter()
    srv = harness.ServerProcess(index_dir, mode)
    try:
        _warm(srv.port, queries)
        setup_cpu_s += harness.tree_cpu_s() - c1
        setup_wall_s = time.perf_counter() - t0
        server_start_s = time.perf_counter() - srv_t0
        cpu0 = srv.cpu_s()
        lat, responses, wall = _closed_loop(srv.port, seq, run.seconds)
        server_cpu_s = srv.cpu_s() - cpu0
        rss, peak_mb = srv.rss_mb(), srv.rss_mb("VmHWM")
    finally:
        srv.stop()
    failed = _count_wrong(responses, check, run.corrupt)
    n = len(lat)
    shape = inputs.mix_shape(seq[:n], hits)
    report = {
        "setup_wall_s": setup_wall_s,
        "ray_start_s": ray_start, "server_start_s": server_start_s,
        "requests": n, "search_p50_ms": median(lat) * 1e3,
        "search_qps": n / wall, "server_rss_mb": rss,
        "distinct_queries": len(queries),
        **{f"mix.{k}": v for k, v in shape.items()},
    }
    tl = harness.tail(lat)
    if tl:
        report[f"search_p{tl[0]}_ms"] = tl[1] * 1e3
    result = {
        "attempted": n, "failed": failed,
        "e2e": {"setup_s": setup_cpu_s, "op_cpu_ms": 1e3 * server_cpu_s / n,
                "peak_rss_mb": peak_mb,
                "disk_bytes_per_input_byte":
                    _dir_bytes(index_dir) / _dir_bytes(input_dir)},
        "report": report,
    }
    if run.trace:
        result["layers"] = _traced_search(run, index_dir, mode, seq, queries,
                                          check, median(lat))
        # exact matches per request sent; WAND's total_results is only a
        # lower bound
        result["layers"]["pipelines.search.hits_per_query"] = (
            sum(hits[q] for q, _ in seq[:n]) / n)
    return result


def _traced_search(run: Run, index_dir: str, mode: str, seq, queries, check,
                   untraced_p50: float) -> dict:
    """The same request sequence against a server whose layers are wrapped;
    one span record per request, matched to the client latency by order."""
    trace_out = os.path.join(run.work, "server_spans.json")
    srv = harness.ServerProcess(index_dir, mode, trace_out)
    try:
        _warm(srv.port, queries)
        lat, responses, _wall = _closed_loop(srv.port, seq, run.seconds)
    finally:
        srv.stop()
    if _count_wrong(responses, check, False):
        raise RuntimeError("traced server returned wrong answers")
    with open(trace_out) as f:
        recs = json.load(f)[len(queries):]  # drop the warm-up requests
    if len(recs) != len(lat):
        raise RuntimeError(f"{len(recs)} span records for {len(lat)} requests")
    layer_of = {
        "pipelines.search.envelope": "pipelines.search.envelope_ms",
        "functions.tokenizer.query": "functions.tokenizer.query_ms",
        "pipelines.search.score": "pipelines.search.score_ms",
        "pipelines.search.decode": "pipelines.search.decode_ms",
        "state.docstore.fetch": "state.docstore.fetch_ms",
        "functions.scoring.snippet": "functions.scoring.snippet_ms",
    }
    sums = {m: 0.0 for m in layer_of.values()}
    overhead, residual = 0.0, 0.0
    counts: Dict[str, float] = {}
    for latency, rec in zip(lat, recs):
        envelope_total = rec["total"].get("pipelines.search.envelope", 0.0)
        over = latency - envelope_total
        overhead += over
        parts = 0.0
        for name, metric in layer_of.items():
            v = rec["self"].get(name, 0.0)
            sums[metric] += v
            parts += v
        residual = max(residual, abs(latency - over - parts))
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
    n = len(lat)
    layers = {m: 1e3 * v / n for m, v in sums.items()}
    layers["server.overhead_ms"] = 1e3 * overhead / n
    layers["pipelines.search.blocks_decoded"] = counts.get("blocks_decoded", 0.0) / n
    layers["pipelines.search.wand_blocks_decoded_frac"] = (
        counts.get("blocks_scored", 0.0) / counts["blocks_total"]
        if counts.get("blocks_total") else 0.0)
    layers["state.docstore.rows_per_fetch"] = (
        counts.get("rows_fetched", 0.0) / counts["fetches"]
        if counts.get("fetches") else 0.0)
    layers["trace.overhead_frac"] = median(lat) / untraced_p50 - 1
    layers["trace.additivity_residual_ms"] = residual * 1e3
    return layers


def search_small(run: Run) -> dict:
    def prepare():
        import pyarrow.parquet as pq

        import __ray_entry__
        from uci_searchengine_ray.config import EngineConfig
        from uci_searchengine_ray.oracle import OracleIndex
        from uci_searchengine_ray.pipelines.index_build import build_index
        from uci_searchengine_ray.sources.corpus import adapt_documents_batch

        sf = inputs.write_documents(os.path.join(run.work, "sf"), run.seed,
                                    SMALL_DOCS)
        docs_path = os.path.join(sf, "documents.parquet")
        index_dir = os.path.join(run.work, "index")
        build_index(docs_path, index_dir,
                    EngineConfig(mode="reference", ckpt_groups=1), mode="fresh",
                    adapt_batches=adapt_documents_batch,
                    read_columns=["doc_id", "text", "lang", "source"])
        tbl = pq.read_table(docs_path, columns=["doc_id", "text"])
        oracle = OracleIndex(list(zip(tbl["doc_id"].to_pylist(),
                                      tbl["text"].to_pylist())))
        bands = inputs.df_bands(dict(oracle.df), SMALL_DOCS)
        queries = inputs.small_queries(
            run.seed, bands, [q for _, q in __ray_entry__.QUERYSET])
        full = {q: oracle.search(q, 1, 10**9) for q in queries}

        def check(q: str, page: int, got: dict) -> bool:
            want = full[q]["results"][(page - 1) * PER_PAGE:page * PER_PAGE]
            res = got["results"]
            return (got["total_results"] == full[q]["total_results"]
                    and len(res) == len(want)
                    and all(r.get("doc_id") == w["doc_id"]
                            and math.isclose(r["score"], w["score"],
                                             rel_tol=1e-9, abs_tol=0.0)
                            and r["snippet"] == w["snippet"]
                            for r, w in zip(res, want)))

        hits = {q: full[q]["total_results"] for q in queries}
        return sf, index_dir, "reference", queries, check, hits

    return _search_workload(run, prepare)


def search_large(run: Run) -> dict:
    def prepare():
        from uci_searchengine_ray.config import EngineConfig
        from uci_searchengine_ray.pipelines.index_build import build_index
        from uci_searchengine_ray.pipelines.search import (
            PostingsIndex, score_bm25_taat)

        corpus = inputs.write_code_corpus(os.path.join(run.work, "corpus"),
                                          run.seed, LARGE_DOCS)
        index_dir = os.path.join(run.work, "index")
        build_index(corpus, index_dir, EngineConfig(mode="code"), mode="fresh")
        pi = PostingsIndex(index_dir)
        bands = inputs.df_bands({t: pi.df(t) for t in pi.terms()}, pi.n_docs)
        queries = inputs.large_queries(run.seed, bands)
        want = {q: score_bm25_taat(pi, q, top_k=None) for q in queries}

        def check(q: str, page: int, got: dict) -> bool:
            ids, scores = want[q]
            lo, hi = (page - 1) * PER_PAGE, page * PER_PAGE
            res = got["results"]
            return ([r.get("doc_id") for r in res] == ids[lo:hi].tolist()
                    and [r["score"] for r in res] == scores[lo:hi].tolist())

        hits = {q: len(want[q][0]) for q in queries}
        return corpus, index_dir, "bm25_wand", queries, check, hits

    result = _search_workload(run, prepare)
    if run.trace:
        # curate_sf01 is too unsteady to be a bounded workload (NOTES.md),
        # so its layers ride on this traced run, the shorter of the two
        cur = curate_sf01(run)
        result["layers"].update(cur["layers"])
        result["attempted"] += cur["attempted"]
        result["failed"] += cur["failed"]
        result["report"].update(
            {f"curate.{k}": v for k, v in cur["report"].items()})
    return result


# --------------------------------------------------------------------------
# curate_sf01
# --------------------------------------------------------------------------

CURATE_OPS = (
    ("pipelines.curation.curate_s", "curation", "curate"),
    ("pipelines.cleaning.boilerplate_lines_s", "cleaning", "boilerplate_lines"),
    ("pipelines.cleaning.strip_dup_spans_s", "cleaning", "strip_dup_spans"),
    ("pipelines.cleaning.decontaminate_s", "cleaning", "decontaminate"),
    ("pipelines.dedup_sim.near_dedup_keep_s", "dedup_sim", "near_dedup_keep"),
)


def _oracle_frames(sf: str) -> dict:
    """Each operator's DuckDB twin (``__ray_entry__.oracle_sql``),
    canonicalized as ``scripts/check_correctness.py`` does."""
    import duckdb

    import __ray_entry__
    from check_correctness import canon

    sql = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    path = os.path.join(sf, "documents.parquet")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
    try:
        return {op: canon(con.execute(sql[op]).fetchdf())
                for _, _, op in CURATE_OPS}
    finally:
        con.close()


def _same_frame(mine, theirs) -> bool:
    return (len(mine) == len(theirs)
            and list(mine.columns) == list(theirs.columns)
            and mine.equals(theirs))


def curate_sf01(run: Run) -> dict:
    import pyarrow as pa
    import ray
    from check_correctness import canon

    from uci_searchengine_ray.pipelines import cleaning, curation, dedup_sim

    modules = {"curation": curation, "cleaning": cleaning,
               "dedup_sim": dedup_sim}
    spool = os.path.join(run.work, "spool")

    def call(sf: str, mod: str, op: str):
        fn = getattr(modules[mod], op)
        ds = fn(sf, spool_dir=spool) if op == "strip_dup_spans" else fn(sf)
        return pa.concat_tables(ray.get(ds.to_arrow_refs()))

    c0, t0 = harness.tree_cpu_s(), time.perf_counter()
    with harness.RaySession(run.work, run.cpus) as ray_s:
        sf = inputs.write_documents(os.path.join(run.work, "sf"), run.seed,
                                    CURATE_DOCS)
        want = _oracle_frames(sf)
        call(sf, "curation", "curate")  # starts the worker processes
        setup_cpu_s = harness.tree_cpu_s() - c0
        setup_wall_s = time.perf_counter() - t0
        passes: List[float] = []
        pass_cpus: List[float] = []
        per_op: Dict[str, List[float]] = {m: [] for m, _, _ in CURATE_OPS}
        rows: Dict[str, int] = {}
        attempted = failed = 0
        while sum(passes) < run.seconds:
            outs = {}
            wall = 0.0
            c0 = harness.tree_cpu_s()
            for metric, mod, op in CURATE_OPS:
                t = time.perf_counter()
                outs[op] = call(sf, mod, op)
                dt = time.perf_counter() - t
                per_op[metric].append(dt)
                wall += dt
            passes.append(wall)
            pass_cpus.append(harness.tree_cpu_s() - c0)
            for _, _, op in CURATE_OPS:
                mine = canon(outs[op].to_pandas())
                if run.corrupt and attempted == 0:
                    mine = mine.iloc[1:]
                attempted += 1
                failed += not _same_frame(mine, want[op])
                rows[op] = outs[op].num_rows
        peak_mb = harness.ray_worker_peak_mb()
    result = {
        "attempted": attempted, "failed": failed,
        # the interval spool of strip_dup_spans is the layer's on-disk state
        "e2e": {"setup_s": setup_cpu_s, "op_cpu_ms": median(pass_cpus) * 1e3,
                "peak_rss_mb": peak_mb,
                "disk_bytes_per_input_byte": _dir_bytes(spool) / _dir_bytes(sf)},
        "report": {"setup_wall_s": setup_wall_s,
                   "ray_start_s": ray_s.start_s, "passes": len(passes),
                   **{f"walls_s.{m}": [round(x, 3) for x in v]
                      for m, v in per_op.items()},
                   "curate_wall_s": median(passes),
                   "pass_cpus_s": [round(c, 3) for c in pass_cpus],
                   **{f"rows_out.{k}": v for k, v in rows.items()}},
    }
    if run.trace:
        # the operator calls are timed from this file in every run, so the
        # traced figures are the same calls' medians and add no overhead
        result["layers"] = {m: median(v) for m, v in per_op.items()}
    return result


WORKLOADS = {
    "index_build": index_build,
    "search_small": search_small,
    "search_large": search_large,
    "curate_sf01": curate_sf01,
}
