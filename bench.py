"""Benchmark harness.

Runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line:

  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "index_docs_per_sec": ..., "query_p50_ms": ..., "query_p99_ms": ...,
   "synthetic_docs_per_sec": ...}

``--scaling`` runs the same benchmark in two fresh processes (8 and 32 CPUs)
on the same input and reports both times + scaling efficiency
(the in-sandbox stand-in for the N vs 4N node cluster criterion).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time


def run_bench() -> dict:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from uci_searchengine_ray.config import configure_data_context

    configure_data_context()

    import numpy as np
    import pyarrow.parquet as pq

    from uci_searchengine_ray.config import EngineConfig
    from uci_searchengine_ray.pipelines import (
        analysis,
        cleaning,
        curation,
        dedup_sim,
        export,
        relational,
        sampling,
    )
    from uci_searchengine_ray.pipelines.index_build import build_index, load_stats
    from uci_searchengine_ray.pipelines.search import (
        PostingsIndex, QueryScorer, search_batch)
    from uci_searchengine_ray.sources.corpus import (
        adapt_documents_batch,
        write_synthetic_corpus,
    )
    import __ray_entry__ as entrymod

    tmp = tempfile.mkdtemp(prefix="uciray_bench_")
    queries: dict = {}
    extras: dict = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        queries[name] = round(time.perf_counter() - t0, 3)
        return out

    # warm the OS page cache so scaling runs measure compute+shuffle, not
    # first-touch disk reads
    for t in ("documents", "embeddings", "lineitem", "orders", "customer", "events"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            with open(p, "rb") as f:
                while f.read(1 << 24):
                    pass

    # ---- headline 1: index build over the sf documents corpus ----
    idx_dir = os.path.join(tmp, "idx_ref")
    timed(
        "index_build",
        lambda: build_index(
            os.path.join(sf_dir, "documents.parquet"),
            idx_dir,
            EngineConfig(mode="reference", ckpt_groups=1),
            mode="fresh",
            adapt_batches=adapt_documents_batch,
            read_columns=["doc_id", "text", "lang", "source"],
        ),
    )
    n_docs = load_stats(idx_dir)["n_docs"]
    extras["index_docs_per_sec"] = round(n_docs / queries["index_build"], 1)

    # ---- headline 2: synthetic source-code corpus build (bigger, docs/s) ----
    sc_dir = os.path.join(tmp, "sc")
    write_synthetic_corpus(sc_dir, n_docs=20000, n_files=32)
    sc_idx = os.path.join(tmp, "idx_sc")
    timed(
        "index_build_synthetic_20k",
        lambda: build_index(
            sc_dir, sc_idx, EngineConfig(mode="code", ckpt_groups=1), mode="fresh"
        ),
    )
    extras["synthetic_docs_per_sec"] = round(
        20000 / queries["index_build_synthetic_20k"], 1
    )

    # positional build (phrase-search index): same corpus with per-posting
    # position payloads — exercises the positional tokenize + merge paths
    timed(
        "index_build_positional_20k",
        lambda: build_index(
            sc_dir, os.path.join(tmp, "idx_sc_pos"),
            EngineConfig(mode="code", ckpt_groups=1, store_positions=True),
            mode="fresh",
        ),
    )
    extras["positional_docs_per_sec"] = round(
        20000 / queries["index_build_positional_20k"], 1
    )

    # ---- headline 3: query serving latency (batched through actor pool) ----
    reps = 25
    qset = [
        {"query_id": i * 100 + qid, "query": q, "page": 1, "per_page": 10}
        for i in range(reps)
        for qid, q in entrymod.QUERYSET
    ]

    def run_queries():
        out = search_batch(
            idx_dir, qset, mode="reference", concurrency=4, batch_size=16,
            with_snippets=True,
        )
        return out.count()

    timed("query_batch_200", run_queries)
    n_q = len(qset)
    extras["query_throughput_qps"] = round(n_q / queries["query_batch_200"], 1)

    # per-query latency distribution measured in-process on a warm scorer
    # (one untimed pass pages in the query terms' payloads — the lazy index's
    # cold cost is reported separately as query_cold_ms)
    scorer = QueryScorer(idx_dir, mode="reference", with_snippets=False)
    cold = []
    for qid, q in entrymod.QUERYSET:
        t0 = time.perf_counter()
        scorer._score(q, need=10)
        cold.append((time.perf_counter() - t0) * 1000)
    extras["query_cold_ms"] = round(float(np.max(cold)), 3)
    lat = []
    for _ in range(reps):
        for qid, q in entrymod.QUERYSET:
            t0 = time.perf_counter()
            scorer._score(q, need=10)
            lat.append((time.perf_counter() - t0) * 1000)
    extras["query_p50_ms"] = round(float(np.percentile(lat, 50)), 3)
    extras["query_p99_ms"] = round(float(np.percentile(lat, 99)), 3)
    # per-actor resident index memory (lazy loading, VERDICT r1 item #3):
    # block metadata resident at init vs payload bytes actually paged in
    extras["index_meta_mb"] = round(scorer.index.meta_bytes / 2**20, 3)
    extras["index_payload_resident_mb"] = round(
        scorer.index._payloads.nbytes / 2**20, 3
    )
    payload = pq.read_table(os.path.join(idx_dir, "postings"),
                            columns=list(PostingsIndex._PAYLOAD_COLS))
    extras["index_payload_total_mb"] = round(payload.nbytes / 2**20, 3)

    # ---- headline 3b: p99 under CONCURRENT load through the REST façade
    # (VERDICT r4 #8): keep-alive HTTP clients hammer SearchServer; the
    # in-process path answers one request at a time on its one warm scorer,
    # so p99 at 8 clients vs 1 client exposes queueing, not just scoring
    # cost; the replica leg shows the scale-up past one core.
    import threading
    from urllib.parse import quote

    from uci_searchengine_ray.server import SearchServer

    n_clients, reqs_per_client = 8, 100

    def _serve_load(srv_kwargs: dict) -> tuple:
        """(p50_ms, p99_ms, qps, lat_1client) under n_clients keep-alive
        HTTP clients, after a concurrent warmup pass."""
        srv = SearchServer(index_dir=idx_dir, mode="reference", **srv_kwargs)
        port = srv.serve()

        def _client_pass(n_reqs: int, lat_ms: list) -> None:
            import http.client

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            for i in range(n_reqs):
                _, q = entrymod.QUERYSET[i % len(entrymod.QUERYSET)]
                t0 = time.perf_counter()
                conn.request(
                    "GET", f"/api/search?query={quote(q)}&page=1&per_page=10"
                )
                r = conn.getresponse()
                r.read()
                lat_ms.append((time.perf_counter() - t0) * 1000)
            conn.close()

        warm = [threading.Thread(target=_client_pass,
                                 args=(2 * len(entrymod.QUERYSET), []))
                for _ in range(n_clients)]
        for th in warm:
            th.start()
        for th in warm:
            th.join()
        lat1: list = []
        _client_pass(reqs_per_client, lat1)
        lats: list = [[] for _ in range(n_clients)]
        clients = [threading.Thread(target=_client_pass,
                                    args=(reqs_per_client, lats[i]))
                   for i in range(n_clients)]
        t0 = time.perf_counter()
        for th in clients:
            th.start()
        for th in clients:
            th.join()
        wall = time.perf_counter() - t0
        srv.close()
        all_lat = [x for l in lats for x in l]
        return (
            float(np.percentile(all_lat, 50)),
            float(np.percentile(all_lat, 99)),
            len(all_lat) / wall,
            lat1,
        )

    # in-process: one warm scorer behind one lock (~one core, the GIL)
    p50_ip, p99_ip, qps_ip, lat1 = _serve_load({})
    extras["query_p99_http_1client_ms"] = round(
        float(np.percentile(lat1, 99)), 3
    )
    extras["query_p99_concurrent_inproc_ms"] = round(p99_ip, 3)
    extras["query_concurrent_qps_inproc"] = round(qps_ip, 1)
    # replica actors: one scorer process per replica — the scale-up path
    p50_r, p99_r, qps_r, _ = _serve_load({"scorer_replicas": n_clients})
    extras["query_p50_concurrent_ms"] = round(p50_r, 3)
    extras["query_p99_concurrent_ms"] = round(p99_r, 3)
    extras["query_concurrent_qps"] = round(qps_r, 1)

    # ---- exact BM25 top-10 on the synthetic code index ----
    from uci_searchengine_ray.pipelines.search import score_bm25_taat

    sc_index = PostingsIndex(sc_idx)
    bm25_queries = [
        "parse json value error",
        "snake case name index",
        "get value stream block",
        "http server merge shard",
    ]
    for q in bm25_queries:  # warm the scored-postings cache
        score_bm25_taat(sc_index, q, top_k=10)
    t0 = time.perf_counter()
    for _ in range(10):
        for q in bm25_queries:
            score_bm25_taat(sc_index, q, top_k=10)
    extras["bm25_taat_ms"] = round(
        (time.perf_counter() - t0) * 1000 / (10 * len(bm25_queries)), 3
    )

    # ---- operator sweep ----
    timed("term_stats", lambda: analysis.term_stats(sf_dir).count())
    # sketch twins of term_stats: distinct-term HLL + count-min top-k —
    # the no-shuffle cardinality / heavy-hitter primitives
    timed("approx_distinct_tokens",
          lambda: analysis.approx_distinct_tokens(sf_dir))
    timed("approx_top_terms",
          lambda: analysis.approx_top_terms(sf_dir, k=20).num_rows)
    timed("dedup_exact", lambda: dedup_sim.exact_dedup(sf_dir).count())
    timed("dedup_ngram_jaccard", lambda: dedup_sim.ngram_jaccard_pairs(sf_dir).count())
    timed("dedup_minhash_lsh", lambda: dedup_sim.minhash_lsh_pairs(sf_dir).count())
    timed("ann_bruteforce", lambda: dedup_sim.ann_bruteforce(sf_dir).count())
    timed("ann_int8", lambda: dedup_sim.ann_int8(sf_dir).count())
    timed("pricing_summary", lambda: relational.pricing_summary(sf_dir).count())
    timed("events_hourly", lambda: relational.events_hourly(sf_dir).count())
    timed("events_sessions", lambda: relational.events_sessions(sf_dir).count())
    timed("asof_join", lambda: relational.purchase_attribution(sf_dir).count())
    timed("curate", lambda: curation.curate(sf_dir).count())
    timed("boilerplate_lines", lambda: cleaning.boilerplate_lines(sf_dir).count())
    timed("quality_scrub", lambda: cleaning.quality_scrub(sf_dir).count())
    timed("text_signals", lambda: analysis.text_signals(sf_dir).count())
    timed("dup_spans", lambda: cleaning.dup_spans(sf_dir).count())
    timed("strip_dup_spans", lambda: cleaning.strip_dup_spans(sf_dir).count())
    timed("tfidf_keywords", lambda: analysis.tfidf_keywords(sf_dir).count())
    timed("decontaminate", lambda: cleaning.decontaminate(sf_dir).count())
    timed("kmeans_semdedup", lambda: dedup_sim.semantic_dedup(sf_dir).count())
    timed("length_quantiles", lambda: analysis.length_quantiles(sf_dir).count())
    timed("export_shards", lambda: export.export_shards_summary(sf_dir).count())
    timed("near_dedup_keep", lambda: dedup_sim.near_dedup_keep(sf_dir).count())
    timed("stratified_sample", lambda: sampling.stratified_sample(sf_dir).count())
    timed("token_budget_mix", lambda: sampling.token_budget_mix(sf_dir).count())
    timed("pack_sequences", lambda: sampling.pack_sequences(sf_dir).count())

    # ---- JSONL ingest throughput (round-5 source format): 100k rows
    # through Arrow's NDJSON reader → corpus shape → parquet write ----
    from uci_searchengine_ray.sources.corpus import corpus_from_jsonl, write_corpus

    jsonl_dir = os.path.join(tmp, "jsonl_in")
    os.makedirs(jsonl_dir)
    n_rows, n_files = 100_000, 16
    per = n_rows // n_files
    for f in range(n_files):
        with open(os.path.join(jsonl_dir, f"shard-{f:03d}.jsonl"), "w") as fh:
            for i in range(f * per, (f + 1) * per):
                fh.write(
                    '{"rid": %d, "text": "doc %d alpha beta gamma delta '
                    'epsilon zeta eta theta"}\n' % (i, i)
                )
    timed(
        "ingest_jsonl_100k",
        lambda: write_corpus(
            corpus_from_jsonl(jsonl_dir, id_col="rid"),
            os.path.join(tmp, "jsonl_corpus"),
        ),
    )
    extras["ingest_rows_per_sec"] = round(
        n_rows / queries["ingest_jsonl_100k"], 1
    )

    shutil.rmtree(tmp, ignore_errors=True)

    # Regression tripwires (VERDICT r3 #8): quiet-window baselines from
    # BASELINE.md; a metric >2× slower than its recorded quiet value is
    # flagged in the output so host noise vs regression gets decided by
    # the interleaved-A/B protocol, not by eyeballing sweep totals.
    # (floors = quiet baseline / 2)
    guardrail_floors = {
        "index_docs_per_sec": 688.0,        # quiet best ~1377 (sf0.1)
        "synthetic_docs_per_sec": 8800.0,   # quiet best ~17.7k
        "positional_docs_per_sec": 8200.0,  # quiet best ~16.5k
        # qps noise spans 47.9-99.5 on PINNED-identical code (r4 interleaved
        # A/B, BASELINE.md) — >2x, so this floor sits below the measured
        # noise low instead of quiet/2, or it flags pure host noise
        "query_throughput_qps": 45.0,
        # replica-actor concurrent serving (r5): quiet 475 qps at sf0.1 /
        # 8 clients / 8 replicas; floor below the ±40% host-noise band
        "query_concurrent_qps": 200.0,
    }
    extras["guardrail_violations"] = [
        f"{k}={extras[k]} < floor {v}"
        for k, v in guardrail_floors.items()
        if k in extras and extras[k] < v
    ]

    total = round(sum(queries.values()), 3)
    return {
        "metric": "index-build + query-serving + operator-sweep wall time",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        **extras,
    }


SCALING_DOCS = 240_000
SCALING_LINES_SCALE = 8  # ~2.5 KB/doc — realistic source-file sizes
SCALING_CORPUS = "/tmp/uciray_scaling_corpus_v3"


def run_index_only() -> dict:
    """One timed index build over the (pre-generated) scaling corpus — the
    headline indexing pipeline, measured in a fresh process at
    $RAY_GRAFT_CPUS parallelism."""
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from uci_searchengine_ray.config import configure_data_context

    configure_data_context()
    from uci_searchengine_ray.config import EngineConfig
    from uci_searchengine_ray.pipelines.index_build import build_index, load_stats

    # pre-warm the worker pool: a long-lived cluster has workers resident;
    # spawning num_cpus python processes is session setup, not indexing work
    @ray.remote
    def _noop():
        return 0

    ray.get([_noop.remote() for _ in range(num_cpus * 2)])

    out = tempfile.mkdtemp(prefix="uciray_scale_idx_")
    t0 = time.perf_counter()
    build_index(
        SCALING_CORPUS, os.path.join(out, "idx"),
        EngineConfig(mode="code", ckpt_groups=1),
        mode="fresh",
    )
    sec = round(time.perf_counter() - t0, 3)
    n = load_stats(os.path.join(out, "idx"))["n_docs"]
    shutil.rmtree(out, ignore_errors=True)
    ray.shutdown()
    return {"sec": sec, "docs_per_sec": round(n / sec, 1), "num_cpus": num_cpus}


def run_calibration() -> dict:
    """Host-ceiling controls for interpreting the pipeline scaling number on
    a SHARED single VM: the same fixed work at 8- and 32-way concurrency for
    (a) an ALU-bound kernel (cache-resident float loop — what perfect
    per-core hardware would scale linearly) and (b) a DRAM-bandwidth-bound
    kernel (np.lexsort over 500k int64 — what the merge/codec stages look
    like to the memory system).  On a real N-node vs 4N-node cluster each
    node brings its own DRAM, disks and cores, so the cluster ceiling is
    (a), not (b); on this one VM all 32 workers share one memory system and
    ~20% steal, so (b) caps hard."""
    import ray

    ray.init(
        address="local",
        num_cpus=32,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )

    @ray.remote
    def alu(n: int) -> float:
        x = 1.0
        for _ in range(n * 1_000_000):
            x = x * 1.0000001 + 0.1
        return x

    @ray.remote
    def membw(n: int) -> int:
        import numpy as np

        x = np.arange(500_000, dtype=np.int64)
        for _ in range(n):
            np.lexsort((x % 7, x % 13))
        return len(x)

    ray.get([alu.remote(1) for _ in range(64)])  # warm the worker pool
    out: dict = {}
    for name, fn, n in (("alu", alu, 4), ("membw", membw, 10)):
        thr = {}
        for conc in (8, 32):
            # reserve 32/conc CPUs per task so exactly `conc` tasks run
            # simultaneously — submitting fewer tasks does NOT cap
            # concurrency (Ray schedules every queued task onto free CPUs)
            opt = fn.options(num_cpus=32 // conc)
            t0 = time.perf_counter()
            ray.get([opt.remote(n) for _ in range(conc * 4)])
            thr[conc] = conc * 4 / (time.perf_counter() - t0)
        out[f"{name}_eff_8_32"] = round((thr[32] / thr[8]) / 4, 3)
    ray.shutdown()
    return out


def run_scaling() -> dict:
    """The same indexing job at three parallelism levels in fresh processes —
    the in-sandbox stand-in for the N vs 4N node criterion (BASELINE.md).
    Uses a corpus large enough that per-job fixed costs do not dominate, and
    warms the page cache with an untimed pass first.  Reports the 8→32 pair
    (the driver's criterion), a below-DRAM-saturation 2→8 pair, and host
    calibration controls that bound what 8→32 can measure on one VM."""
    from uci_searchengine_ray.sources.corpus import write_synthetic_corpus

    if not os.path.exists(SCALING_CORPUS):
        import ray

        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
        write_synthetic_corpus(
            SCALING_CORPUS, n_docs=SCALING_DOCS, n_files=128,
            lines_scale=SCALING_LINES_SCALE,
        )
        ray.shutdown()
    for f in os.listdir(SCALING_CORPUS):
        with open(os.path.join(SCALING_CORPUS, f), "rb") as fh:
            while fh.read(1 << 24):
                pass

    def one_run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--index-only"],
            env=env,
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + "\n" + proc.stderr[-4000:])
            raise SystemExit(f"--index-only failed at num_cpus={ncpu}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # interleaved best-of-2 per level: this VM's wall times vary ~20-40%
    # run-to-run (noisy neighbors, page cache); interleaving exposes the
    # levels to similar conditions and min is the standard noise reducer.
    # The 2-CPU level runs once (it is the least contention-sensitive and
    # the most expensive to repeat).
    results: dict = {}
    for levels in ((2, 8, 32), (8, 32)):
        for ncpu in levels:
            r = one_run(ncpu)
            if ncpu not in results or r["sec"] < results[ncpu]["sec"]:
                results[ncpu] = r
    t2, t8, t32 = (results[n]["sec"] for n in (2, 8, 32))
    cal = run_calibration()
    eff = (t8 / t32) / (32 / 8)
    return {
        "docs": SCALING_DOCS,
        "sec_2": t2,
        "sec_8": t8,
        "sec_32": t32,
        "docs_per_sec_2": results[2]["docs_per_sec"],
        "docs_per_sec_8": results[8]["docs_per_sec"],
        "docs_per_sec_32": results[32]["docs_per_sec"],
        "speedup_8_to_32": round(t8 / t32, 3),
        "scaling_efficiency": round(eff, 3),
        "scaling_efficiency_2_8": round((t2 / t8) / 4, 3),
        # host ceilings for the 8→32 pair on this single shared-memory VM
        # (a 4N-node cluster quadruples DRAM+disk, so its ceiling is the
        # alu number): pipeline efficiency normalized to the ALU ceiling
        **cal,
        "scaling_efficiency_vs_host_ceiling": round(
            eff / cal["alu_eff_8_32"], 3
        ) if cal.get("alu_eff_8_32") else None,
    }


def run_fs_bench() -> dict:
    """Index build + query through a GENERIC (non-local) ``pyarrow.fs`` vs
    the POSIX fast path — the object-store overhead measurement (VERDICT r2
    next-round #6).  The non-local side is a ``PyFileSystem(FSSpecHandler)``
    registered under ``benchfs://`` (same harness as tests/test_storage_fs):
    pyarrow treats it as fully generic, so every snapshot I/O takes the
    object-store branches (direct-write + manifest-commit, no POSIX rename)
    while bytes still land on local disk — isolating the protocol cost from
    network latency, which this sandbox cannot measure.  Interleaved
    best-of-2 per side (this VM shows ±40% run variance)."""
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from uci_searchengine_ray.config import configure_data_context

    configure_data_context()

    from uci_searchengine_ray.config import EngineConfig
    from uci_searchengine_ray.pipelines.index_build import build_index
    from uci_searchengine_ray.pipelines.search import search_one
    from uci_searchengine_ray.sources.corpus import write_synthetic_corpus
    from uci_searchengine_ray.state import storage

    tmp = tempfile.mkdtemp(prefix="uciray_fsbench_")

    def resolver(uri: str):
        import fsspec
        from pyarrow import fs as pafs

        return (
            pafs.PyFileSystem(pafs.FSSpecHandler(fsspec.filesystem("file"))),
            tmp + "/objstore/" + uri.split("://", 1)[1],
        )

    storage.register_scheme("benchfs", resolver)
    n_docs = 20000
    corpus = os.path.join(tmp, "sc")
    write_synthetic_corpus(corpus, n_docs=n_docs, n_files=32)
    cfg = lambda: EngineConfig(mode="code", ckpt_groups=1)  # noqa: E731

    def one(kind: str, i: int) -> float:
        dest = (
            os.path.join(tmp, f"idx_local_{i}")
            if kind == "local"
            else f"benchfs://idx_fs_{i}"
        )
        t0 = time.perf_counter()
        build_index(corpus, dest, cfg(), mode="fresh")
        sec = time.perf_counter() - t0
        assert search_one(dest, "return value", per_page=3)["total_results"] > 0
        return sec

    best = {"local": float("inf"), "objectstore": float("inf")}
    for i in range(2):  # interleave A/B
        best["local"] = min(best["local"], one("local", i))
        best["objectstore"] = min(best["objectstore"], one("objectstore", i))
    shutil.rmtree(tmp, ignore_errors=True)
    ray.shutdown()
    return {
        "n_docs": n_docs,
        "num_cpus": num_cpus,
        "local_sec": round(best["local"], 3),
        "objectstore_sec": round(best["objectstore"], 3),
        "local_docs_per_sec": round(n_docs / best["local"], 1),
        "objectstore_docs_per_sec": round(n_docs / best["objectstore"], 1),
        "overhead_ratio": round(best["objectstore"] / best["local"], 3),
    }


def run_curation_scale() -> dict:
    """The LLM-curation family on a ~10× larger deterministic documents
    table (default 60k docs × ~120 tokens vs sf0.1's 5k) — evidence the
    new operators' shapes hold as the docs table grows, not just at the
    driver SF.  Corpus is cached across runs (generation is deterministic).
    ``boilerplate_lines`` runs at ``min_docs=2``; the ``strip_dup_spans``
    spool and the ``export_pretraining`` output go to a per-run temp dir.
    """
    import ray

    n_docs = int(os.environ.get("CURATION_DOCS", "60000"))
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from uci_searchengine_ray.config import configure_data_context

    configure_data_context()

    from uci_searchengine_ray.pipelines import (
        cleaning,
        curation,
        dedup_sim,
        export,
        sampling,
    )
    from uci_searchengine_ray.sources.corpus import write_synthetic_documents

    sf_dir = f"/tmp/uciray_curation_{n_docs}"
    marker = os.path.join(sf_dir, "documents.parquet", "part-00000.parquet")
    if not os.path.exists(marker):
        write_synthetic_documents(sf_dir, n_docs=n_docs)

    res: dict = {"n_docs": n_docs, "num_cpus": num_cpus}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        res[name] = round(time.perf_counter() - t0, 3)
        return out

    tmp = tempfile.mkdtemp(prefix="uciray_curation_run_")
    timed("curate", lambda: curation.curate(sf_dir).count())
    timed(
        "boilerplate_lines",
        lambda: cleaning.boilerplate_lines(sf_dir, min_docs=2).count(),
    )
    timed(
        "strip_dup_spans",
        lambda: cleaning.strip_dup_spans(
            sf_dir, spool_dir=os.path.join(tmp, "spool")
        ).count(),
    )
    timed("decontaminate", lambda: cleaning.decontaminate(sf_dir).count())
    timed("dedup_minhash", lambda: dedup_sim.minhash_lsh_pairs(sf_dir).count())
    timed("dedup_simhash", lambda: dedup_sim.simhash_pairs(sf_dir).count())
    timed("dup_spans", lambda: cleaning.dup_spans(sf_dir).count())
    timed("near_dedup_keep", lambda: dedup_sim.near_dedup_keep(sf_dir).count())
    timed(
        "near_dedup_keep_lsh",
        lambda: dedup_sim.near_dedup_keep(sf_dir, pairs="minhash").count(),
    )
    timed("stratified_sample", lambda: sampling.stratified_sample(sf_dir).count())
    timed("token_budget_mix", lambda: sampling.token_budget_mix(sf_dir).count())
    timed("pack_sequences", lambda: sampling.pack_sequences(sf_dir).count())
    timed("export_shards", lambda: export.export_shards_summary(sf_dir).count())
    timed(
        "export_pretraining",
        lambda: export.export_pretraining(sf_dir, os.path.join(tmp, "export")),
    )
    shutil.rmtree(tmp, ignore_errors=True)
    res["curate_docs_per_sec"] = round(n_docs / res["curate"], 1)
    res["pack_docs_per_sec"] = round(n_docs / res["pack_sequences"], 1)
    ray.shutdown()
    return res


if __name__ == "__main__":
    if "--curation-scale" in sys.argv:
        print(json.dumps(run_curation_scale()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--index-only" in sys.argv:
        print(json.dumps(run_index_only()))
    elif "--fs-bench" in sys.argv:
        print(json.dumps(run_fs_bench()))
    else:
        result = run_bench()
        print(json.dumps(result))
        import ray

        ray.shutdown()
