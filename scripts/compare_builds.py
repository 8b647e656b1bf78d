"""Fresh-build comparison of two checkouts of this repository.

Builds one corpus with each checkout's ``build_index`` (each in its own
process with its own local Ray, the checkout first on ``PYTHONPATH``),
then checks that the two snapshots hold the same index: ``postings/`` rows
sorted by (term, block_id), ``doc_meta`` rows sorted by doc_id and
``stats.json``, and that ``doc_meta/``, ``runs/`` and ``postings/`` hold the
same files with the same bytes (sha256 per relative path).
It also prints each snapshot's files and bytes per top-level directory.
Exits 1 when a table or a file differs.  ``--parent X --change X`` builds
one checkout twice, a check that its builds are deterministic.

Usage:
  python scripts/compare_builds.py --parent OLD_CHECKOUT --change NEW_CHECKOUT \\
      --work WORK_DIR [--docs 8000] [--seed 311] [--cpus 4]
      [--mode code] [--positions] [--synthetic]

The default corpus is the benchmark's seeded code corpus
(``perfbench.inputs.write_code_corpus``, the ``index_build`` workload's
generator); ``--synthetic`` uses ``sources.corpus.write_synthetic_corpus``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.dataset as pa_ds

_BUILD = r"""
import json, sys, time
import ray
corpus, index, cpus, mode, positions = sys.argv[1:6]
ray.init(address="local", num_cpus=int(cpus), include_dashboard=False,
         logging_level="ERROR")
from uci_searchengine_ray.config import EngineConfig, configure_data_context
configure_data_context()
from uci_searchengine_ray.pipelines.index_build import build_index
t0 = time.perf_counter()
build_index(corpus, index, EngineConfig(mode=mode, store_positions=positions == "1"),
            mode="fresh")
print(json.dumps({"build_s": round(time.perf_counter() - t0, 2)}))
ray.shutdown()
"""


def _build(root: str, corpus: str, index: str, args) -> dict:
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(root), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _BUILD, corpus, index, str(args.cpus),
         args.mode, "1" if args.positions else "0"],
        env=env, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _rows(index: str, sub: str, keys) -> pa.Table:
    tbl = pa_ds.dataset(os.path.join(index, sub), format="parquet").to_table()
    return tbl.sort_by([(k, "ascending") for k in keys]).select(
        sorted(tbl.column_names)).combine_chunks()


def _digests(index: str, sub: str) -> list:
    """Sorted (relative path, sha256) of every file under ``index/sub``."""
    out = []
    for d, _, files in os.walk(os.path.join(index, sub)):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                out.append((os.path.relpath(path, index),
                            hashlib.sha256(fh.read()).hexdigest()))
    return sorted(out)


def _layout(index: str) -> dict:
    out = {}
    for d, _, files in os.walk(index):
        rel = os.path.relpath(d, index).split(os.sep)[0]
        top = rel if rel != "." else "(top)"
        n, b = out.get(top, (0, 0))
        out[top] = (n + len(files),
                    b + sum(os.path.getsize(os.path.join(d, f)) for f in files))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--docs", type=int, default=8000)
    ap.add_argument("--seed", type=int, default=311)
    ap.add_argument("--cpus", type=int, default=4)
    ap.add_argument("--mode", default="code")
    ap.add_argument("--positions", action="store_true")
    ap.add_argument("--synthetic", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath(args.change))
    corpus = os.path.join(args.work, "corpus")
    if args.synthetic:
        from uci_searchengine_ray.sources.corpus import write_synthetic_corpus

        write_synthetic_corpus(corpus, n_docs=args.docs, n_files=8)
    else:
        from perfbench import inputs

        inputs.write_code_corpus(corpus, args.seed, args.docs)
    corpus_bytes = sum(os.path.getsize(os.path.join(d, f))
                       for d, _, fs in os.walk(corpus) for f in fs)

    index = {}
    for side in ("parent", "change"):
        index[side] = os.path.join(args.work, side)
        timing = _build(getattr(args, side), corpus, index[side], args)
        print(f"{side}: built in {timing['build_s']} s")

    ok = True
    for sub, keys in (("postings", ["term", "block_id"]), ("doc_meta", ["doc_id"])):
        a, b = (_rows(index[s], sub, keys) for s in ("parent", "change"))
        same = a.equals(b)
        ok &= same
        print(f"{sub} rows: {'equal' if same else 'DIFFERENT'} "
              f"({a.num_rows} / {b.num_rows} rows)")
    stats = {}
    for side in ("parent", "change"):
        with open(os.path.join(index[side], "stats.json")) as f:
            stats[side] = json.load(f)
    same = stats["parent"] == stats["change"]
    ok &= same
    print(f"stats.json: {'equal' if same else 'DIFFERENT'}")
    for sub in ("doc_meta", "runs", "postings"):
        a, b = (_digests(index[s], sub) for s in ("parent", "change"))
        first = next((x or y for x, y in itertools.zip_longest(a, b) if x != y),
                     None)
        ok &= first is None
        print(f"{sub} bytes: "
              f"{'equal' if first is None else 'DIFFERENT, first at ' + first[0]}"
              f" ({len(a)} / {len(b)} files)")

    print(f"corpus bytes: {corpus_bytes:,}")
    layouts = {s: _layout(index[s]) for s in index}
    print(f"{'directory':<12} {'parent files':>12} {'parent bytes':>13} "
          f"{'change files':>12} {'change bytes':>13} {'change/corpus':>13}")
    for top in sorted(set(layouts["parent"]) | set(layouts["change"])):
        pn, pb = layouts["parent"].get(top, (0, 0))
        cn, cb = layouts["change"].get(top, (0, 0))
        print(f"{top:<12} {pn:>12} {pb:>13,} {cn:>12} {cb:>13,} "
              f"{cb / corpus_bytes:>13.3f}")
    total = {s: sum(b for _, b in layouts[s].values()) for s in layouts}
    print(f"{'snapshot':<12} {'':>12} {total['parent']:>13,} {'':>12} "
          f"{total['change']:>13,} {total['change'] / corpus_bytes:>13.3f}"
          f"  (parent {total['parent'] / corpus_bytes:.3f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
