"""CLI façade — the rebuild analog of the reference's REST surface
(SURVEY.md §2.10: crawl/build control, search endpoint, database management).

    python -m uci_searchengine_ray build --corpus DIR --index DIR [--mode ...]
    python -m uci_searchengine_ray search --index DIR --query "..." [--page N]
    python -m uci_searchengine_ray phrase --index DIR --query "exact phrase"
    python -m uci_searchengine_ray stats --index DIR
    python -m uci_searchengine_ray catalog {list,switch,delete,export,import,register} ...

Owns its Ray session (guarded init; the library itself never calls
ray.init), started only by the commands that run Ray: ``search``,
``phrase``, ``stats`` and ``catalog`` answer in this process without it, and
``serve`` starts it only for ``--replicas`` or a ``--pages`` crawl table.
Output is JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from .config import configure_data_context

    configure_data_context()


def _curation_registry() -> dict:
    """Name → callable(sf_dir) for the CLI curation surface (the same
    pipelines the driver gate runs; lazy imports keep CLI startup fast)."""
    from .pipelines import analysis, cleaning, curation, dedup_sim, sampling

    return {
        "curate": curation.curate,
        "exact_dedup": dedup_sim.exact_dedup,
        "ngram_pairs": dedup_sim.ngram_jaccard_pairs,
        "minhash_pairs": dedup_sim.minhash_lsh_pairs,
        "simhash_pairs": dedup_sim.simhash_pairs,
        "components": dedup_sim.dedup_components,
        "near_dedup_keep": dedup_sim.near_dedup_keep,
        "near_dedup_keep_lsh": (
            lambda sf: dedup_sim.near_dedup_keep(sf, pairs="minhash")
        ),
        "semantic_dedup": dedup_sim.semantic_dedup,
        "quantize": dedup_sim.embedding_quantize,
        "boilerplate": cleaning.boilerplate_lines,
        "repetition": cleaning.repetition_stats,
        "pii_redact": cleaning.pii_redact,
        "quality_scrub": cleaning.quality_scrub,
        "dup_spans": cleaning.dup_spans,
        "strip_dup_spans": cleaning.strip_dup_spans,
        "decontaminate": cleaning.decontaminate,
        "lang_quality": analysis.lang_quality,
        "token_counts": analysis.token_count_table,
        "text_signals": analysis.text_signals,
        "length_quantiles": analysis.length_quantiles,
        "tfidf_keywords": analysis.tfidf_keywords,
        "stratified_sample": sampling.stratified_sample,
        "token_budget_mix": sampling.token_budget_mix,
        "pack_sequences": sampling.pack_sequences,
    }


# choices list for argparse (cheap: names only, no pipeline imports)
_CURATION_OPS = (
    "curate", "exact_dedup", "ngram_pairs", "minhash_pairs", "simhash_pairs",
    "components", "near_dedup_keep", "near_dedup_keep_lsh", "semantic_dedup", "quantize",
    "boilerplate", "repetition", "pii_redact", "quality_scrub", "dup_spans",
    "strip_dup_spans", "decontaminate", "lang_quality", "token_counts", "text_signals",
    "length_quantiles", "tfidf_keywords", "stratified_sample",
    "token_budget_mix", "pack_sequences",
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="uci_searchengine_ray")
    p.add_argument("--num-cpus", type=int, default=8)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build/resume an index snapshot")
    b.add_argument("--corpus", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--mode", default="fresh", choices=["fresh", "continue", "rebuild"])
    b.add_argument("--tokenizer", default="reference", choices=["reference", "code"])
    b.add_argument("--positions", action="store_true")

    ing = sub.add_parser(
        "ingest",
        help="JSONL/CSV → corpus parquet (then: build --corpus <out>)",
    )
    ing.add_argument("--input", required=True, help="file or directory")
    ing.add_argument("--format", default="jsonl", choices=["jsonl", "csv"])
    ing.add_argument("--out", required=True, help="corpus parquet dir")
    ing.add_argument("--text-col", default="text")
    ing.add_argument("--lang-col")
    ing.add_argument("--id-col", help="int64 row-id column (else content-sha identity)")

    s = sub.add_parser("search", help="ranked retrieval")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("--page", type=int, default=1)
    s.add_argument("--per-page", type=int, default=10)
    s.add_argument("--scorer", default="reference",
                   choices=["reference", "bm25", "bm25_wand"],
                   help="reference tf·idf, or exact BM25 (bm25 and "
                        "bm25_wand are one mode; totals are exact in both)")

    ph = sub.add_parser("phrase", help="exact phrase search (positional index)")
    ph.add_argument("--index", required=True)
    ph.add_argument("--query", required=True)

    st = sub.add_parser("stats", help="snapshot statistics")
    st.add_argument("--index", required=True)

    sv = sub.add_parser("serve", help="REST façade over a snapshot (reference /api/* surface)")
    sv.add_argument("--index")
    sv.add_argument("--catalog-root")
    sv.add_argument("--port", type=int, default=8080)
    sv.add_argument("--scorer", default="reference",
                    choices=["reference", "bm25", "bm25_wand"],
                    help="reference tf·idf, or exact BM25 (bm25 and "
                         "bm25_wand are one mode; totals are exact in both)")
    sv.add_argument("--secret-key")
    sv.add_argument("--pages", help="page table parquet for /api/crawler/start")
    sv.add_argument("--seed", action="append", default=[],
                    help="crawler seed URL (repeatable)")
    sv.add_argument("--replicas", type=int, default=0,
                    help="Ray scorer replica actors (0 = one in-process "
                         "scorer; N scales concurrent qps past the GIL)")

    cu = sub.add_parser(
        "curate",
        help="run a training-data curation operator over an sf-dir "
             "(documents.parquet / embeddings.parquet tables)",
    )
    cu.add_argument("--sf", required=True, help="input table directory")
    cu.add_argument(
        "--op",
        required=True,
        choices=sorted(_CURATION_OPS),
        help="operator to run",
    )
    cu.add_argument("--out", help="write result parquet here (else count)")

    ex = sub.add_parser(
        "export", help="write the curated pretraining export (sharded parquet)"
    )
    ex.add_argument("--sf", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--shards", type=int, default=8)
    ex.add_argument("--resume", action="store_true",
                    help="skip shards already marked _COMPLETE")

    c = sub.add_parser("catalog", help="snapshot catalog ops")
    c.add_argument("--root", required=True)
    c.add_argument("action", choices=["list", "switch", "delete", "export",
                                      "import", "register"])
    c.add_argument("name", nargs="?")
    c.add_argument("path", nargs="?")

    args = p.parse_args(argv)

    if args.cmd == "build":
        _ray_session(args.num_cpus)
        from .config import EngineConfig
        from .pipelines.index_build import build_index, load_stats

        cfg = EngineConfig(
            mode=args.tokenizer,
            store_positions=args.positions,
        )
        build_index(args.corpus, args.index, cfg, mode=args.mode)
        print(json.dumps({"index": args.index, **load_stats(args.index)}))

    elif args.cmd == "ingest":
        _ray_session(args.num_cpus)
        from .sources.corpus import corpus_from_csv, corpus_from_jsonl, write_corpus

        reader = corpus_from_jsonl if args.format == "jsonl" else corpus_from_csv
        ds = reader(args.input, text_col=args.text_col,
                    lang_col=args.lang_col, id_col=args.id_col)
        write_corpus(ds, args.out)
        from .state.storage import parquet_rows

        print(json.dumps({"corpus": args.out, "rows": parquet_rows(args.out)}))

    elif args.cmd == "search":
        from .pipelines.search import search_one

        out = search_one(args.index, args.query, page=args.page,
                         per_page=args.per_page, mode=args.scorer)
        print(json.dumps(out))

    elif args.cmd == "phrase":
        from .pipelines.search import PostingsIndex, score_phrase

        ids, ns = score_phrase(PostingsIndex(args.index), args.query)
        print(json.dumps({
            "query": args.query,
            "results": [
                {"doc_id": int(d), "n_occurrences": int(n)}
                for d, n in zip(ids, ns)
            ],
        }))

    elif args.cmd == "stats":
        from .state import manifest
        from .state.docstore import load_stats

        print(json.dumps({
            **load_stats(args.index),
            "manifest_rows": len(manifest.read_rows(args.index)),
        }))

    elif args.cmd == "serve":
        if not args.index and not args.catalog_root:
            p.error("serve requires --index or --catalog-root")
        if args.replicas > 0 or args.pages:
            _ray_session(args.num_cpus)
        from .server import SearchServer

        srv = SearchServer(
            index_dir=args.index,
            catalog_root=args.catalog_root,
            mode=args.scorer,
            secret_key=args.secret_key,
            pages_path=args.pages,
            seed_urls=args.seed,
            scorer_replicas=args.replicas,
        )
        port = srv.serve(port=args.port)
        print(json.dumps({"serving": True, "port": port}), flush=True)
        try:
            import time as _t

            while True:
                _t.sleep(3600)
        except KeyboardInterrupt:
            srv.close()

    elif args.cmd == "curate":
        _ray_session(args.num_cpus)
        ds = _curation_registry()[args.op](args.sf)
        if args.out:
            ds.write_parquet(args.out)
            import ray.data as _rd

            n = _rd.read_parquet(args.out).count()
            print(json.dumps({"op": args.op, "rows": n, "out": args.out}))
        else:
            print(json.dumps({"op": args.op, "rows": ds.count()}))

    elif args.cmd == "export":
        _ray_session(args.num_cpus)
        from .pipelines.export import export_pretraining

        res = export_pretraining(
            args.sf, args.out, n_shards=args.shards, resume=args.resume
        )
        print(json.dumps(res))

    elif args.cmd == "catalog":
        from .sources.catalog import SnapshotCatalog

        # per-action positional requirements (argparse can't express them
        # with optional positionals, so validate here and exit 2 like argparse)
        # (field, what the positional actually is — import's first positional
        # is a tar PATH; the snapshot name comes from the tar's top dir)
        needs = {
            "switch": (("name", "snapshot name"),),
            "delete": (("name", "snapshot name"),),
            "export": (("name", "snapshot name"), ("path", "output tar path")),
            "import": (("name", "tar file path"),),
            "register": (("name", "snapshot name"), ("path", "snapshot dir")),
        }
        for field, desc in needs.get(args.action, ()):
            if getattr(args, field) is None:
                p.error(f"catalog {args.action} requires <{desc}>")

        cat = SnapshotCatalog(args.root)
        if args.action == "list":
            print(json.dumps(cat.list()))
        elif args.action == "switch":
            print(json.dumps({"active": args.name, "path": cat.switch(args.name)}))
        elif args.action == "delete":
            cat.delete(args.name)
            print(json.dumps({"deleted": args.name}))
        elif args.action == "export":
            print(json.dumps({"tar": cat.export_tar(args.name, args.path)}))
        elif args.action == "import":
            print(json.dumps({"imported": cat.import_tar(args.name)}))
        elif args.action == "register":
            print(json.dumps({"registered": cat.register(args.name, args.path)}))

    return 0


if __name__ == "__main__":
    sys.exit(main())
