"""Search server process for the benchmark.

Constructs ``SearchServer`` over one index snapshot, serves it on a free
localhost port (printed as ``PORT <n>`` on stdout) and runs until its stdin
closes.  With ``--trace-out`` the serving layers are wrapped (see
``tracing.install_server_hooks``) and one record per request is written to
that file as a JSON list on exit.

    python3 perfbench/server_main.py --index <dir> --mode reference
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--index", required=True)
    ap.add_argument("--mode", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    records: list = []
    if args.trace_out:
        import tracing

        tracing.install_server_hooks(records.append)
    from uci_searchengine_ray.server import SearchServer

    srv = SearchServer(index_dir=args.index, mode=args.mode, scorer_pool_size=1)
    port = srv.serve(host="127.0.0.1", port=0)
    print(f"PORT {port}", flush=True)
    try:
        sys.stdin.read()  # returns at EOF: the benchmark is done with us
    finally:
        srv.close()
        if args.trace_out:
            with open(args.trace_out + ".tmp", "w") as f:
                json.dump(records, f)
            os.replace(args.trace_out + ".tmp", args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
