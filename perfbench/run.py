"""Benchmark of the uci_searchengine_ray engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--ray-cpus 4] [--expect-nproc 4] [--self-test]

Workloads: index_build, search_small, search_large, curate_sf01 (see
NOTES.md).  Inputs are generated from --seed inside the checkout, every
answer is checked against an oracle, and the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Lines before it ("# key: value") carry machine facts, the query-mix shape
and the figures behind each metric.  --self-test spoils one answer before
checking, which must show up as one failed answer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

E2E_UNITS = {"setup_s": "s", "op_cpu_ms": "ms", "peak_rss_mb": "MB",
             "disk_bytes_per_input_byte": "ratio"}
LAYER_UNITS = {
    "functions.tokenizer.tokenize_s": "s",
    "stages.postings.tokenize_encode_s": "s",
    "stages.tokenize.doc_meta_s": "s",
    "state.storage.write_s": "s",
    "state.storage.bytes_written": "bytes",
    "stages.postings.merge_s": "s",
    "stages.postings.postings_merged": "count",
    "pipelines.index_build.other_s": "s",
    "index_build.fixed_s": "s",
    "index_build.per_kdoc_s": "s",
    "server.overhead_ms": "ms",
    "pipelines.search.envelope_ms": "ms",
    "functions.tokenizer.query_ms": "ms",
    "pipelines.search.score_ms": "ms",
    "pipelines.search.decode_ms": "ms",
    "pipelines.search.blocks_decoded": "count",
    "pipelines.search.wand_blocks_decoded_frac": "ratio",
    "pipelines.search.hits_per_query": "count",
    "state.docstore.fetch_ms": "ms",
    "state.docstore.rows_per_fetch": "count",
    "functions.scoring.snippet_ms": "ms",
    "pipelines.curation.curate_s": "s",
    "pipelines.cleaning.boilerplate_lines_s": "s",
    "pipelines.cleaning.strip_dup_spans_s": "s",
    "pipelines.cleaning.decontaminate_s": "s",
    "pipelines.dedup_sim.near_dedup_keep_s": "s",
    "trace.overhead_frac": "ratio",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ray-cpus", type=int, default=4)
    ap.add_argument("--expect-nproc", type=int)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "uci_searchengine_ray", "__init__.py")):
        print(f"no uci_searchengine_ray package under {ROOT}", file=sys.stderr)
        return 2
    if args.ray_cpus < 2:
        # cleaning's actor pools take the only slot at 1 CPU and the job
        # hangs (NOTES.md)
        print("--ray-cpus must be at least 2", file=sys.stderr)
        return 2
    # scripts/ for check_correctness.canon, the curate oracle's canonical form
    sys.path[:0] = [ROOT, HERE, os.path.join(ROOT, "scripts")]
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".pbwork", str(os.getpid()))
    os.makedirs(work)
    # a SIGTERM still stops Ray and the server and removes the work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run = workloads.Run(seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), cpus=args.ray_cpus,
                            work=work, corrupt=args.self_test)
        out = workloads.WORKLOADS[args.workload](run)
    finally:
        harness.reap(work)
        shutil.rmtree(work, ignore_errors=True)

    facts = harness.machine_facts(args.ray_cpus)
    report = {"workload": args.workload, "seed": args.seed, **facts}
    if args.expect_nproc is not None and facts["nproc"] != args.expect_nproc:
        report["nproc_differs_from_benchmark_json"] = args.expect_nproc
        print(f"warning: nproc {facts['nproc']} differs from the "
              f"{args.expect_nproc} recorded in BENCHMARK.json", file=sys.stderr)
    report.update(out["report"])
    report["failed_frac"] = out["failed"] / out["attempted"]
    if args.trace:
        report.update({f"untraced.{k}": v for k, v in out["e2e"].items()})
        report.update({k: v for k, v in out["layers"].items()
                       if k not in LAYER_UNITS})
    for k, v in report.items():
        print(f"# {k}: {v}")

    if args.trace:
        layers = out["layers"]
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": float(out["e2e"][k]), "unit": u}
                   for k, u in E2E_UNITS.items()}
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
