"""Thin REST+WS façade over the query engine — the rebuild analog of the
reference's FastAPI surface (backend/app/api/routes.py:51-460), completing
SURVEY §2.10 (round 1 shipped only the CLI half).

Endpoints (GET unless noted), mirroring the reference's shapes:
  /api/search?query=&page=&per_page=      routes.py:378-387 → search envelope
                                          (search.py:119-126 shape; 400 when
                                          per_page > MAX_PER_PAGE)
  /api/databases                          routes.py:62-72   → snapshot catalog
  /api/databases/switch  POST {db_name}   routes.py:73-86   → switch active
  /api/databases/{name}  DELETE           routes.py:87-115  → delete snapshot
  /api/databases/{name}/download          routes.py:440-460 → tar stream
  /api/databases/upload?name= POST (tar)  routes.py:117-131 → import snapshot
  /api/crawler/start     POST {rounds..}  routes.py:133-220 → background crawl
  /api/crawler/stop      POST             routes.py:222-240 → stop flag
  /api/crawler/status                     routes.py:242-279 → run state
  /api/crawler/statistics                 routes.py:281-308 → stats.json +
                                          manifest partition metrics
  /api/crawler/failed-urls                routes.py:406-416 → quarantine rows
  /api/crawler/ws        (WebSocket)      routes.py:310-323 → log broadcast
  /api/seed-urls         GET / POST       routes.py:390-404 → seed list
Mutating requests require the ``X-Secret-Key`` header when a secret is
configured (routes.py:54-59 analog).

Stdlib ``ThreadingHTTPServer`` — no web framework in this container.
``/api/search`` runs either on one warm in-process ``QueryScorer`` behind one
lock (scoring holds the GIL, so more in-process scorers add no throughput)
or, with ``scorer_replicas=N``, on up to N ``ScorerReplica`` Ray actors, one
warm scorer per process.  Ray is imported only for those replicas and for
the crawl (``/api/crawler/start``, a Ray Data pipeline): a server without
replicas that does not crawl runs without Ray in its process, and reads its
snapshot through ``pyarrow.parquet`` alone.  The WebSocket endpoint is a minimal RFC 6455
server half (handshake + unmasked text frames out, masked control frames
in), the stand-in for the reference's ``broadcast_log`` fan-out
(websocket_utils.py:12-38); each connection owns its ThreadingMixIn handler
thread, which blocks reading client frames until close.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
import threading
from datetime import datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional
from urllib.parse import parse_qs, urlparse

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

# seconds a request waits for its replica's answer: covers a cold replica
# (actor process spawn + QueryScorer init); past it the request gets 504
REPLICA_TIMEOUT_S = 30.0

# largest per_page /api/search answers (400 above it): EngineConfig.top_k,
# the depth BM25 ranks to by default.  One request ranks, fetches and
# snippets its whole page (in-process: under the scorer lock), so an
# unbounded page would be an unbounded hold
MAX_PER_PAGE = 100


def _ws_frame(opcode: int, payload: bytes) -> bytes:
    """One server→client frame (FIN set, unmasked per RFC 6455 §5.1)."""
    head = bytes([0x80 | opcode])
    n = len(payload)
    if n < 126:
        head += bytes([n])
    elif n < (1 << 16):
        head += bytes([126]) + struct.pack(">H", n)
    else:
        head += bytes([127]) + struct.pack(">Q", n)
    return head + payload


_WS_MAX_CLIENT_FRAME = 4096  # the endpoint only consumes ping/close control
# frames (RFC 6455 caps those at 125 B); a client-supplied 64-bit length
# must never drive an allocation, so anything past this small ceiling drops
# the connection instead of being read into memory


def _ws_read_frame(rfile):
    """(opcode, payload) of one client frame; None at EOF or on an
    oversized frame (caller closes the connection).  Client frames are
    masked (RFC 6455 §5.3)."""
    h = rfile.read(2)
    if len(h) < 2:
        return None
    opcode = h[0] & 0x0F
    masked = h[1] & 0x80
    n = h[1] & 0x7F
    if n == 126:
        n = struct.unpack(">H", rfile.read(2))[0]
    elif n == 127:
        n = struct.unpack(">Q", rfile.read(8))[0]
    if n > _WS_MAX_CLIENT_FRAME:
        return None
    mask = rfile.read(4) if masked else b"\x00" * 4
    data = rfile.read(n)
    if masked:
        data = bytes(b ^ mask[i % 4] for i, b in enumerate(data))
    return opcode, data


class _WsBroadcaster:
    """Thread-safe client registry + JSON log fan-out
    (websocket_utils.py:12-38 analog: send to all, drop the broken)."""

    SEND_TIMEOUT = 5.0  # a stalled client must not hang the crawl worker

    def __init__(self) -> None:
        # sock → per-connection send lock (pong frames from the handler
        # thread and log frames from the broadcaster share one socket; an
        # unsynchronized interleaved sendall would corrupt WS framing)
        self._clients: dict = {}
        self._lock = threading.Lock()

    def add(self, sock) -> None:
        # SEND-only timeout: settimeout() would also cap the handler
        # thread's blocking frame-read loop and tear down idle clients
        import socket as _socket

        sock.setsockopt(
            _socket.SOL_SOCKET,
            _socket.SO_SNDTIMEO,
            struct.pack("ll", int(self.SEND_TIMEOUT), 0),
        )
        with self._lock:
            self._clients[sock] = threading.Lock()

    def remove(self, sock) -> None:
        with self._lock:
            self._clients.pop(sock, None)

    def send(self, sock, frame: bytes) -> None:
        """Framed send under the connection's lock (used for pongs)."""
        with self._lock:
            slock = self._clients.get(sock)
        if slock is None:
            return
        with slock:
            sock.sendall(frame)

    def broadcast(self, message: str) -> None:
        payload = json.dumps(
            {"message": message, "timestamp": datetime.now().isoformat()}
        ).encode("utf-8")
        frame = _ws_frame(0x1, payload)
        with self._lock:
            clients = list(self._clients.items())
        dead = []
        for s, slock in clients:
            try:
                with slock:
                    s.sendall(frame)
            except OSError:  # includes socket.timeout: drop the stalled
                dead.append(s)
        if dead:
            with self._lock:
                for s in dead:
                    self._clients.pop(s, None)


class SearchServer:
    def __init__(
        self,
        index_dir: Optional[str] = None,
        catalog_root: Optional[str] = None,
        mode: str = "reference",
        secret_key: Optional[str] = None,
        pages_path: Optional[str] = None,
        seed_urls: Optional[List[str]] = None,
        scorer_pool_size: int = 1,
        scorer_replicas: int = 0,
    ):
        if index_dir is None and catalog_root is None:
            raise ValueError("need index_dir or catalog_root")
        if scorer_pool_size != 1:
            raise ValueError(
                "scorer_pool_size must be 1: the in-process path serves from "
                "one warm scorer (scoring holds the GIL); use "
                "scorer_replicas=N for concurrent throughput"
            )
        self._replicas = max(0, int(scorer_replicas))
        if self._replicas:
            import ray

            if not ray.is_initialized():
                raise RuntimeError("scorer_replicas needs a Ray session")
        # crawler lifecycle (routes.py:133-279): background thread + stop
        # flag + last-run counters; pages_path is the static page table the
        # crawl pipeline "fetches" from (no live HTTP in this environment)
        self._pages_path = pages_path
        self._seed_urls: List[str] = list(seed_urls or [])
        self._ws = _WsBroadcaster()
        self._crawl_lock = threading.Lock()
        self._crawl: dict = {
            "status": "stopped", "stop": False, "thread": None,
            "pages_crawled": 0, "links_found": 0, "error": None,
        }
        self._catalog = None
        if catalog_root is not None:
            from .sources.catalog import SnapshotCatalog

            self._catalog = SnapshotCatalog(catalog_root)
            if index_dir is None:
                active = self._catalog.active()
                index_dir = self._catalog.path(active) if active else None
        self._index_dir = index_dir
        self._mode = mode
        self._secret = secret_key
        self._scorer = None  # the in-process QueryScorer
        self._scorer_gen = -1  # the _gen it was built at
        self._replica_pool: List = []
        self._replica_load: List[int] = []  # outstanding calls per replica
        self._replica_up: List[bool] = []  # answered once since spawn
        # bumped on db switch: rebuilds the local scorer, voids stale
        # replica releases
        self._gen = 0
        self._lock = threading.Lock()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- scorer lifecycle (re-pointed on database switch) ------------------

    def _local_search(self, q: str, page: int, per_page: int) -> dict:
        """One query on the in-process scorer, built first when the
        snapshot generation moved since it was built (the old scorer is
        dropped before the new one loads: at most one per process).
        PostingsIndex LRU caches are not thread-safe, so queries run
        under the server lock."""
        from .pipelines import search

        with self._lock:
            if self._index_dir is None:
                raise RuntimeError("no active index")
            if self._scorer_gen != self._gen:
                self._scorer = None
                self._scorer = search.QueryScorer(
                    self._index_dir, mode=self._mode
                )
                self._scorer_gen = self._gen
            # looked up on the module per call, so a wrapped
            # search_with_scorer (the benchmark's tracer) is the one run
            return search.search_with_scorer(
                self._scorer, q, page=page, per_page=per_page
            )

    def _acquire_replica(self):
        """(generation, index, actor): the LEAST-LOADED Ray replica
        (spawned lazily, up to ``scorer_replicas``; past the first, only
        while Ray shows a free CPU beyond those of replicas that have not
        answered yet, as its resource view lags a spawn — a replica with
        no CPU never schedules).  Ray actors queue calls internally, so no
        per-replica lock is needed; the HTTP thread blocks in ``ray.get``
        (releasing the GIL) while the replica process scores.
        Outstanding-call counts beat round-robin under concurrent load: RR
        can stack two clients on one actor while another idles.  The
        caller MUST pair with ``_release_replica``."""
        import ray

        from .pipelines.search import ScorerReplica

        with self._lock:
            if self._index_dir is None:
                raise RuntimeError("no active index")
            n = len(self._replica_pool)
            if n == 0 or (
                n < self._replicas
                and ray.available_resources().get("CPU", 0)
                >= 1 + self._replica_up.count(False)
            ):
                self._replica_pool.append(
                    ScorerReplica.remote(self._index_dir, mode=self._mode)
                )
                self._replica_load.append(0)
                self._replica_up.append(False)
                i = n
            else:
                i = min(range(n), key=self._replica_load.__getitem__)
            self._replica_load[i] += 1
            return self._gen, i, self._replica_pool[i]

    def _release_replica(self, gen: int, i: int, replica,
                         answered: bool) -> None:
        with self._lock:
            # a db switch swaps the pool mid-flight: a stale-generation
            # release must NOT deflate a new replica's count
            if gen == self._gen:
                self._replica_load[i] -= 1
                if answered and self._replica_pool[i] is replica:
                    self._replica_up[i] = True

    def _replica_search(self, q: str, page: int, per_page: int) -> tuple:
        """(status, payload) of one query on the least-loaded replica.  A
        dead replica fails fast, so its outstanding count falls back to 0
        and least-loaded dispatch would keep choosing it: on
        ``RayActorError`` its slot is respawned in place and the query
        retried once.  A replica that does not answer within
        ``REPLICA_TIMEOUT_S`` gives 504."""
        import ray
        from ray.exceptions import GetTimeoutError, RayActorError

        from .pipelines.search import ScorerReplica

        for retry in (False, True):
            gen, i, replica = self._acquire_replica()
            answered = False
            try:
                out = ray.get(
                    replica.search.remote(q, page=page, per_page=per_page),
                    timeout=REPLICA_TIMEOUT_S,
                )
                answered = True
                return 200, out
            except GetTimeoutError:
                return 504, {"detail": "scorer replica timed out"}
            except RayActorError:
                if retry:
                    raise
                with self._lock:
                    # same slot index: in-flight (gen, i) releases stay
                    # valid; a db switch or a concurrent respawn already
                    # replaced the handle
                    if gen == self._gen and self._replica_pool[i] is replica:
                        self._replica_pool[i] = ScorerReplica.remote(
                            self._index_dir, mode=self._mode
                        )
                        self._replica_up[i] = False
            finally:
                self._release_replica(gen, i, replica, answered)

    def switch(self, name: str) -> str:
        if self._catalog is None:
            raise RuntimeError("no catalog configured")
        path = self._catalog.switch(name)
        with self._lock:
            self._index_dir = path
            self._gen += 1
            # replicas hold the OLD snapshot in their own processes: let
            # in-flight calls finish (no ray.kill), drop the handles, and
            # lazy respawn repoints new requests; the generation bump
            # voids their pending releases and rebuilds the local scorer
            self._replica_pool = []
            self._replica_load = []
            self._replica_up = []
        return path

    # -- crawler lifecycle (routes.py:133-279) -----------------------------

    def _crawl_worker(self, max_rounds: int, max_pages: Optional[int]) -> None:
        from .pipelines.crawl import crawl

        try:
            docs, edges = crawl(
                self._pages_path,
                self._seed_urls,
                max_rounds=max_rounds,
                max_pages=max_pages,
                on_log=self._ws.broadcast,
                should_stop=lambda: self._crawl["stop"],
            )
            with self._crawl_lock:
                self._crawl["pages_crawled"] = docs.num_rows
                self._crawl["links_found"] = edges.num_rows
            self._ws.broadcast(
                f"Crawler finished: {docs.num_rows} pages, "
                f"{edges.num_rows} links"
            )
        except Exception as e:  # surfaced via /api/crawler/status
            with self._crawl_lock:
                self._crawl["error"] = str(e)
            self._ws.broadcast(f"Crawler failed: {e}")
        finally:
            with self._crawl_lock:
                self._crawl["status"] = "stopped"

    def start_crawl(self, max_rounds: int = 3,
                    max_pages: Optional[int] = None) -> bool:
        """False if already running (routes.py:137-140's 400 analog)."""
        if self._pages_path is None or not self._seed_urls:
            raise RuntimeError("no pages_path/seed_urls configured")
        with self._crawl_lock:
            if self._crawl["status"] == "running":
                return False
            self._crawl.update(
                status="running", stop=False, error=None,
                pages_crawled=0, links_found=0,
            )
            t = threading.Thread(
                target=self._crawl_worker, args=(max_rounds, max_pages),
                daemon=True,
            )
            self._crawl["thread"] = t
            t.start()
        return True

    def wait_crawl(self, timeout: Optional[float] = None) -> None:
        t = self._crawl.get("thread")
        if t is not None:
            t.join(timeout)

    # -- request handling --------------------------------------------------

    def _handle(self, method: str, path: str, query: dict, body: dict,
                headers, raw="") -> tuple:
        """``raw`` is the spooled temp-file PATH of a binary request body
        ("" for JSON/empty bodies) — bodies are streamed to disk, not RAM."""
        if path == "/api/search" and method == "GET":
            q = (query.get("query") or [""])[0]
            try:
                page = int((query.get("page") or ["1"])[0])
                per_page = int((query.get("per_page") or ["10"])[0])
            except ValueError:
                return 400, {"detail": "page/per_page must be integers"}
            if per_page > MAX_PER_PAGE:
                return 400, {"detail": f"per_page must be at most {MAX_PER_PAGE}"}
            if self._replicas:
                return self._replica_search(q, page, per_page)
            return 200, self._local_search(q, page, per_page)

        if path == "/api/databases" and method == "GET":
            if self._catalog is None:
                return 200, {"databases": [], "active": self._index_dir}
            return 200, {
                "databases": self._catalog.list(),
                "active": self._catalog.active(),
            }

        if path == "/api/databases/switch" and method == "POST":
            if self._secret and headers.get("X-Secret-Key") != self._secret:
                return 401, {"detail": "invalid secret key"}
            name = body.get("db_name")
            if not name:
                return 400, {"detail": "db_name required"}
            return 200, {"active": name, "path": self.switch(name)}

        if path == "/api/crawler/statistics" and method == "GET":
            from .state import manifest
            from .state.docstore import load_stats

            if self._index_dir is None:
                return 400, {"detail": "no active snapshot"}
            stats = load_stats(self._index_dir)
            rows = manifest.stage_metrics(self._index_dir, "runs")
            return 200, {
                **stats,
                "partitions": len(rows),
                # runs files and their bytes; older manifest rows lack them
                "run_files": sum(r.get("run_files", 0) for r in rows),
                "run_bytes": sum(r.get("run_bytes", 0) for r in rows),
                "documents_crawled": stats.get("n_docs", 0),
                "total_words": stats.get("total_tokens", 0),
            }

        if path == "/api/crawler/failed-urls" and method == "GET":
            from .state.docstore import quarantine_listing

            if self._index_dir is None:
                return 400, {"detail": "no active snapshot"}
            tbl = quarantine_listing(self._index_dir)
            return 200, {"failed_urls": tbl.to_pylist()}

        if path == "/api/crawler/start" and method == "POST":
            if self._secret and headers.get("X-Secret-Key") != self._secret:
                return 401, {"detail": "invalid secret key"}
            started = self.start_crawl(
                max_rounds=int(body.get("max_rounds", 3)),
                max_pages=body.get("max_pages"),
            )
            if not started:
                return 400, {"detail": "crawler already running"}
            return 200, {"status": "started"}

        if path == "/api/crawler/stop" and method == "POST":
            if self._secret and headers.get("X-Secret-Key") != self._secret:
                return 401, {"detail": "invalid secret key"}
            with self._crawl_lock:
                self._crawl["stop"] = True
            return 200, {"status": "stopping"}

        if path == "/api/crawler/status" and method == "GET":
            with self._crawl_lock:
                c = self._crawl
                return 200, {
                    "status": c["status"],
                    "pages_crawled": c["pages_crawled"],
                    "links_found": c["links_found"],
                    "error": c["error"],
                }

        if path == "/api/seed-urls" and method == "GET":
            return 200, {"seed_urls": list(self._seed_urls)}

        if path == "/api/seed-urls" and method == "POST":
            if self._secret and headers.get("X-Secret-Key") != self._secret:
                return 401, {"detail": "invalid secret key"}
            urls = body if isinstance(body, list) else body.get("urls")
            if not isinstance(urls, list):
                return 400, {"detail": "urls list required"}
            self._seed_urls = [str(u) for u in urls]
            return 200, {"seed_urls": self._seed_urls}

        if path == "/api/databases/upload" and method == "POST":
            if self._secret and headers.get("X-Secret-Key") != self._secret:
                return 401, {"detail": "invalid secret key"}
            if self._catalog is None:
                return 400, {"detail": "no catalog configured"}
            if not raw:
                return 400, {"detail": "tar body required"}
            import os

            # raw is a spooled temp-file PATH (the body is streamed to disk
            # by _run, never held in memory)
            try:
                name = self._catalog.import_tar(raw)
            finally:
                os.unlink(raw)
            return 200, {"name": name}

        if path.startswith("/api/databases/") and self._catalog is not None:
            rest = path[len("/api/databases/"):]
            if method == "GET" and rest.endswith("/download"):
                import os
                import tempfile

                name = rest[: -len("/download")]
                fd, tmp = tempfile.mkstemp(suffix=".tar")
                os.close(fd)
                self._catalog.export_tar(name, tmp)
                # streamed (and unlinked) by _send — a multi-GB snapshot
                # must not be buffered per request thread
                return 200, ("application/x-tar", ("__file__", tmp))
            if method == "DELETE" and "/" not in rest:
                if self._secret and headers.get("X-Secret-Key") != self._secret:
                    return 401, {"detail": "invalid secret key"}
                self._catalog.delete(rest)
                return 200, {"deleted": rest}

        return 404, {"detail": "not found"}

    # -- http plumbing -----------------------------------------------------

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start serving on a background thread; returns the bound port."""
        outer = self

        class Handler(BaseHTTPRequestHandler):
            # RFC 6455 §4.2.2 requires the 101 on HTTP/1.1 — the 1.0
            # default would make real WS clients reject the handshake (and
            # disables keep-alive for REST responses)
            protocol_version = "HTTP/1.1"
            # headers and body flush as separate socket writes; with Nagle
            # on, the body write stalls ~40 ms behind the peer's delayed
            # ACK on keep-alive connections (measured: 48 ms request p50
            # that is ~5 ms of actual work) — TCP_NODELAY removes it
            disable_nagle_algorithm = True

            def log_message(self, *a):  # quiet
                pass

            def _run(self, method):
                u = urlparse(self.path)
                body, raw = {}, b""
                if method in ("POST", "PUT"):
                    n = int(self.headers.get("Content-Length") or 0)
                    if n:
                        ctype = self.headers.get("Content-Type") or ""
                        if "json" in ctype or not ctype:
                            try:
                                body = json.loads(self.rfile.read(n))
                            except json.JSONDecodeError:
                                self._send(400, {"detail": "bad json"})
                                return
                        else:
                            # binary body (snapshot upload): spool to a
                            # temp file in chunks, never buffer in RAM
                            import tempfile

                            fd, raw = tempfile.mkstemp(suffix=".body")
                            import os as _os

                            with _os.fdopen(fd, "wb") as f:
                                left = n
                                while left:
                                    chunk = self.rfile.read(min(left, 1 << 20))
                                    if not chunk:
                                        break
                                    f.write(chunk)
                                    left -= len(chunk)
                try:
                    code, payload = outer._handle(
                        method, u.path, parse_qs(u.query), body,
                        self.headers, raw,
                    )
                except Exception as e:  # route errors → 500 JSON, keep serving
                    code, payload = 500, {"detail": str(e)}
                finally:
                    # spooled body not consumed by its route (error paths,
                    # wrong endpoint): don't leak the temp file
                    if isinstance(raw, str):
                        import os as _os

                        if _os.path.exists(raw):
                            _os.unlink(raw)
                self._send(code, payload)

            def _send(self, code, payload):
                import os as _os

                if isinstance(payload, tuple):  # (content_type, data)
                    ctype, data = payload
                    if isinstance(data, tuple) and data[0] == "__file__":
                        # stream a file in chunks, then unlink it
                        fpath = data[1]
                        self.send_response(code)
                        self.send_header("Content-Type", ctype)
                        self.send_header(
                            "Content-Length", str(_os.path.getsize(fpath))
                        )
                        self.end_headers()
                        try:
                            with open(fpath, "rb") as f:
                                while True:
                                    chunk = f.read(1 << 20)
                                    if not chunk:
                                        break
                                    self.wfile.write(chunk)
                        finally:
                            _os.unlink(fpath)
                        return
                else:
                    ctype = "application/json"
                    data = json.dumps(payload).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def _serve_websocket(self):
                """RFC 6455 server half for /api/crawler/ws: handshake,
                register with the broadcaster, then block this connection's
                handler thread reading client control frames until close
                (routes.py:310-323: accept + keepalive receive loop)."""
                key = self.headers.get("Sec-WebSocket-Key", "")
                accept = base64.b64encode(
                    hashlib.sha1((key + _WS_GUID).encode()).digest()
                ).decode()
                self.send_response(101, "Switching Protocols")
                self.send_header("Upgrade", "websocket")
                self.send_header("Connection", "Upgrade")
                self.send_header("Sec-WebSocket-Accept", accept)
                self.end_headers()
                self.wfile.flush()
                sock = self.connection
                outer._ws.add(sock)
                try:
                    while True:
                        fr = _ws_read_frame(self.rfile)
                        if fr is None or fr[0] == 0x8:  # EOF / close
                            break
                        if fr[0] == 0x9:  # ping → pong
                            outer._ws.send(sock, _ws_frame(0xA, fr[1]))
                except OSError:
                    pass
                finally:
                    outer._ws.remove(sock)
                self.close_connection = True

            def do_GET(self):
                u = urlparse(self.path)
                if (
                    u.path == "/api/crawler/ws"
                    and (self.headers.get("Upgrade") or "").lower()
                    == "websocket"
                ):
                    self._serve_websocket()
                    return
                self._run("GET")

            def do_POST(self):
                self._run("POST")

            def do_DELETE(self):
                self._run("DELETE")

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self._httpd.server_address[1]

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
