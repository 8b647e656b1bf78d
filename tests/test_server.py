"""REST façade tests (SURVEY §2.10; reference routes.py surface parity):
in-process HTTP against a localhost ephemeral port."""

import glob
import http.client
import json
import os

import pytest

from uci_searchengine_ray.config import EngineConfig
from uci_searchengine_ray.pipelines.index_build import build_index
from uci_searchengine_ray.pipelines.search import search_one
from uci_searchengine_ray.server import MAX_PER_PAGE, SearchServer
from uci_searchengine_ray.sources.catalog import SnapshotCatalog
from uci_searchengine_ray.sources.corpus import write_synthetic_corpus


@pytest.fixture(scope="module")
def served(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("srv")
    corpus = write_synthetic_corpus(str(root / "corpus"), n_docs=200, n_files=2)
    idx_a = build_index(
        corpus, str(root / "idx_a"),
        EngineConfig(mode="reference", block_size=32),
        mode="fresh",
    )
    idx_b = build_index(
        corpus, str(root / "idx_b"),
        EngineConfig(mode="reference", block_size=32),
        mode="fresh",
    )
    cat = SnapshotCatalog(str(root / "cat"))
    cat.register("snap_a", idx_a)
    cat.register("snap_b", idx_b)
    cat.switch("snap_a")
    srv = SearchServer(catalog_root=str(root / "cat"), secret_key="s3cr3t")
    port = srv.serve()
    yield srv, port, idx_a
    srv.close()


def _req(port, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request(
        method, path,
        body=json.dumps(body) if body is not None else None,
        headers=headers or {},
    )
    r = conn.getresponse()
    out = json.loads(r.read().decode())
    conn.close()
    return r.status, out


def test_search_endpoint_matches_search_one(served):
    srv, port, idx = served
    st, out = _req(port, "GET", "/api/search?query=return+the&page=1&per_page=5")
    assert st == 200
    want = search_one(idx, "return the", page=1, per_page=5)
    assert out["total_results"] == want["total_results"]
    assert out["total_pages"] == want["total_pages"]
    assert [r["doc_id"] for r in out["results"]] == [
        r["doc_id"] for r in want["results"]
    ]
    assert out["results"][0]["snippet"] == want["results"][0]["snippet"]


def test_search_page_past_int64_answers_exact_totals(served):
    """A page number past int64 is a page past the end: 200, no results,
    the exact totals (not a 500 from an int64 conversion)."""
    srv, port, idx = served
    page = 10**19
    st, out = _req(port, "GET", f"/api/search?query=value&page={page}")
    assert st == 200
    want = search_one(idx, "value", page=1, per_page=10)
    assert want["total_results"] > 0
    assert out["results"] == []
    assert (out["page"], out["per_page"]) == (page, 10)
    assert out["total_results"] == want["total_results"]
    assert out["total_pages"] == want["total_pages"]


def test_search_per_page_is_bounded(served):
    """per_page above MAX_PER_PAGE answers 400 before any scoring or replica
    dispatch; per_page at the bound answers search_one's envelope."""
    srv, port, idx = served
    st, out = _req(port, "GET", f"/api/search?query=the&per_page={MAX_PER_PAGE + 1}")
    assert st == 400 and "per_page" in out["detail"]
    st, out = _req(port, "GET", f"/api/search?query=the&per_page={MAX_PER_PAGE}")
    assert st == 200
    want = search_one(idx, "the", page=1, per_page=MAX_PER_PAGE)
    assert len(want["results"]) == MAX_PER_PAGE
    assert out == json.loads(json.dumps(want))

    rsrv = SearchServer(index_dir=idx, scorer_replicas=1)
    rport = rsrv.serve()
    try:
        st, _ = _req(rport, "GET", f"/api/search?query=the&per_page={MAX_PER_PAGE + 1}")
        assert st == 400
        assert not rsrv._replica_pool  # refused before a replica was spawned
    finally:
        rsrv.close()


def test_databases_and_switch(served):
    srv, port, _ = served
    st, out = _req(port, "GET", "/api/databases")
    assert st == 200 and out["active"] == "snap_a"
    names = {d["name"] for d in out["databases"]}
    assert {"snap_a", "snap_b"} <= names

    # switch requires the secret
    st, out = _req(port, "POST", "/api/databases/switch",
                   body={"db_name": "snap_b"})
    assert st == 401
    st, out = _req(port, "POST", "/api/databases/switch",
                   body={"db_name": "snap_b"},
                   headers={"X-Secret-Key": "s3cr3t"})
    assert st == 200 and out["active"] == "snap_b"
    st, out = _req(port, "GET", "/api/databases")
    assert out["active"] == "snap_b"
    # queries still work against the switched snapshot
    st, out = _req(port, "GET", "/api/search?query=return")
    assert st == 200 and out["total_results"] > 0


def test_statistics_and_failed_urls(served):
    srv, port, _ = served
    st, out = _req(port, "GET", "/api/crawler/statistics")
    assert st == 200
    assert out["documents_crawled"] == out["n_docs"] > 0
    assert out["total_words"] > 0 and out["partitions"] >= 1
    runs = glob.glob(os.path.join(srv._index_dir, "runs", "*", "*.parquet"))
    assert out["run_files"] == len(runs) >= 1
    assert out["run_bytes"] == sum(os.path.getsize(f) for f in runs)
    st, out = _req(port, "GET", "/api/crawler/failed-urls")
    assert st == 200 and isinstance(out["failed_urls"], list)


def test_unknown_route_404(served):
    srv, port, _ = served
    st, out = _req(port, "GET", "/api/nope")
    assert st == 404


# -- round-2 surface: crawler lifecycle + WS broadcast + catalog transfer --

BASE = "https://www.ics.uci.edu"


def _page(links, body):
    anchors = "".join(f'<a href="{l}">l</a>' for l in links)
    return f"<html><title>T</title><body><p>{body}</p>{anchors}</body></html>"


@pytest.fixture(scope="module")
def crawl_served(ray_session, tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("srv2")
    pages = {
        f"{BASE}/root": _page([f"{BASE}/a"], "root alpha"),
        f"{BASE}/a": _page([f"{BASE}/b"], "alpha beta"),
        f"{BASE}/b": _page([], "beta gamma"),
    }
    pq.write_table(
        pa.table({"url": list(pages), "html": list(pages.values())}),
        str(root / "pages.parquet"),
    )
    corpus = write_synthetic_corpus(str(root / "corpus"), n_docs=100, n_files=2)
    idx = build_index(
        corpus, str(root / "idx"),
        EngineConfig(mode="reference", block_size=32),
        mode="fresh",
    )
    cat = SnapshotCatalog(str(root / "cat"))
    cat.register("snap", idx)
    cat.switch("snap")
    srv = SearchServer(
        catalog_root=str(root / "cat"),
        pages_path=str(root / "pages.parquet"),
        seed_urls=[f"{BASE}/root"],
    )
    port = srv.serve()
    yield srv, port
    srv.close()


def _ws_connect(port, path="/api/crawler/ws"):
    """Minimal RFC6455 client: handshake, return the raw socket."""
    import base64
    import socket

    s = socket.create_connection(("127.0.0.1", port), timeout=30)
    key = base64.b64encode(b"0123456789abcdef").decode()
    s.sendall(
        (
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
        ).encode()
    )
    # read the 101 response headers
    buf = b""
    while b"\r\n\r\n" not in buf:
        buf += s.recv(4096)
    assert b"101" in buf.split(b"\r\n")[0]
    assert b"Sec-WebSocket-Accept" in buf
    return s


def _ws_recv_text(sock):
    """One unmasked server text frame -> str (short frames only)."""
    h = sock.recv(2)
    assert h[0] & 0x0F == 0x1
    n = h[1] & 0x7F
    if n == 126:
        import struct

        n = struct.unpack(">H", sock.recv(2))[0]
    data = b""
    while len(data) < n:
        data += sock.recv(n - len(data))
    return data.decode()


def test_crawler_start_status_and_ws_broadcast(crawl_served):
    srv, port = crawl_served
    ws = _ws_connect(port)
    st, out = _req(port, "POST", "/api/crawler/start", body={"max_rounds": 3})
    assert st == 200 and out["status"] == "started"
    msgs = [json.loads(_ws_recv_text(ws))["message"] for _ in range(2)]
    assert any("Round 0" in m for m in msgs)
    srv.wait_crawl(timeout=60)
    st, out = _req(port, "GET", "/api/crawler/status")
    assert st == 200
    assert out["status"] == "stopped" and out["error"] is None
    assert out["pages_crawled"] == 3 and out["links_found"] == 2
    ws.close()


def test_seed_urls_roundtrip(crawl_served):
    srv, port = crawl_served
    st, out = _req(port, "GET", "/api/seed-urls")
    assert st == 200 and out["seed_urls"] == [f"{BASE}/root"]
    st, out = _req(
        port, "POST", "/api/seed-urls", body={"urls": [f"{BASE}/a"]}
    )
    assert st == 200 and out["seed_urls"] == [f"{BASE}/a"]
    _req(port, "POST", "/api/seed-urls", body={"urls": [f"{BASE}/root"]})


def test_database_download_upload_delete_roundtrip(crawl_served, tmp_path):
    import http.client

    srv, port = crawl_served
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request("GET", "/api/databases/snap/download")
    r = conn.getresponse()
    assert r.status == 200
    assert r.getheader("Content-Type") == "application/x-tar"
    tar_bytes = r.read()
    conn.close()
    assert len(tar_bytes) > 0

    # upload it back: name-collision dedupe gives it a fresh name (D5)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request(
        "POST", "/api/databases/upload", body=tar_bytes,
        headers={"Content-Type": "application/x-tar"},
    )
    r = conn.getresponse()
    assert r.status == 200
    new_name = json.loads(r.read())["name"]
    conn.close()
    st, out = _req(port, "GET", "/api/databases")
    assert new_name in [d["name"] for d in out["databases"]]

    st, out = _req(port, "DELETE", f"/api/databases/{new_name}")
    assert st == 200 and out["deleted"] == new_name
    st, out = _req(port, "GET", "/api/databases")
    assert new_name not in [d["name"] for d in out["databases"]]


def test_concurrent_search_uses_scorer_pool(served):
    """Concurrent /api/search requests succeed, agree with the serial
    answer, and one warm in-process scorer serves them all."""
    import threading

    srv, port, _ = served
    st, expect = _req(port, "GET", "/api/search?query=return&page=1&per_page=5")
    assert st == 200
    scorer = srv._scorer

    results, errors = [], []

    def hit():
        try:
            s, out = _req(port, "GET",
                          "/api/search?query=return&page=1&per_page=5")
            results.append((s, out))
        except Exception as e:  # surfaced via the errors assert below
            errors.append(e)

    threads = [threading.Thread(target=hit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 8
    for s, out in results:
        assert s == 200
        assert out == expect
    assert scorer is not None and srv._scorer is scorer


def test_replica_actor_mode_matches_inprocess(served):
    """SearchServer(scorer_replicas=N): /api/search answers come from Ray
    replica actors (one warm scorer per process — the GIL-free concurrent
    path) and must be byte-identical to the in-process scorer's JSON."""
    import threading

    _, _, idx = served
    srv = SearchServer(index_dir=idx, scorer_replicas=2)
    port = srv.serve()
    try:
        st, out = _req(port, "GET", "/api/search?query=return+the&page=1&per_page=5")
        assert st == 200
        want = search_one(idx, "return the", page=1, per_page=5)
        assert out == json.loads(json.dumps(want))  # same JSON round-trip
        assert len(srv._replica_pool) >= 1  # the actor path actually served
        assert srv._scorer is None  # no in-process scorer was built

        # concurrent clients agree and spawn up to the replica cap
        results = []

        def hit():
            results.append(
                _req(port, "GET", "/api/search?query=return+the&page=1&per_page=5")
            )

        ts = [threading.Thread(target=hit) for _ in range(6)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert all(s == 200 and o == out for s, o in results)
        assert 1 <= len(srv._replica_pool) <= 2
    finally:
        srv.close()


def test_dead_replica_is_respawned(served):
    """Kill one of two replicas: every later request is answered 200 with
    the in-process answer (the dead slot is respawned in place and the
    query retried) instead of least-loaded dispatch pinning it."""
    import ray

    _, _, idx = served
    path = "/api/search?query=return+the&page=1&per_page=5"
    want = json.loads(json.dumps(search_one(idx, "return the", 1, 5)))
    srv = SearchServer(index_dir=idx, scorer_replicas=2)
    port = srv.serve()
    try:
        for _ in range(2):  # the pool spawns lazily, one slot per request
            assert _req(port, "GET", path) == (200, want)
        assert len(srv._replica_pool) == 2
        dead = srv._replica_pool[0]
        ray.kill(dead, no_restart=True)
        for _ in range(8):
            assert _req(port, "GET", path) == (200, want)
        assert srv._replica_pool[0] is not dead
    finally:
        srv.close()


def _kill_replicas(srv):
    import ray

    for replica in srv._replica_pool:
        ray.kill(replica, no_restart=True)


def test_scorer_pool_size_and_replicas_need_their_preconditions(
    served, monkeypatch
):
    """scorer_pool_size=1 is the only legal pool size (the message points
    to scorer_replicas), and replicas without a Ray session fail at
    construction instead of silently serving in-process."""
    import ray

    _, _, idx = served
    SearchServer(index_dir=idx, scorer_pool_size=1)
    with pytest.raises(ValueError, match="scorer_replicas"):
        SearchServer(index_dir=idx, scorer_pool_size=2)
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    with pytest.raises(RuntimeError, match="Ray session"):
        SearchServer(index_dir=idx, scorer_replicas=1)


def test_replica_timeout_answers_504(served, monkeypatch):
    """A replica that never answers gives 504 within the replica timeout
    instead of blocking the handler thread, and its load slot is freed."""
    import time

    import ray

    from uci_searchengine_ray import server
    from uci_searchengine_ray.pipelines import search

    @ray.remote(num_cpus=0)
    class StuckReplica:
        def __init__(self, index_dir, mode="reference"):
            pass

        def search(self, query, page=1, per_page=10):
            time.sleep(120)

    monkeypatch.setattr(search, "ScorerReplica", StuckReplica)
    monkeypatch.setattr(server, "REPLICA_TIMEOUT_S", 0.5)
    _, _, idx = served
    srv = SearchServer(index_dir=idx, scorer_replicas=2)
    port = srv.serve()
    try:
        t0 = time.monotonic()
        st, out = _req(port, "GET", "/api/search?query=return")
        assert st == 504 and "detail" in out
        assert time.monotonic() - t0 < 5
        assert srv._replica_load and all(n == 0 for n in srv._replica_load)
    finally:
        srv.close()
        _kill_replicas(srv)


def test_replica_pool_grows_only_onto_free_cpus(served, monkeypatch):
    """With no free CPU in the cluster the pool stays at its first
    replica and every request is still answered; the request path never
    asks Ray for the cluster's total resources."""
    import ray

    def no_totals():
        raise AssertionError("cluster_resources() on the request path")

    _, _, idx = served
    path = "/api/search?query=return+the&page=1&per_page=5"
    want = json.loads(json.dumps(search_one(idx, "return the", 1, 5)))
    monkeypatch.setattr(ray, "available_resources", lambda: {"CPU": 0})
    monkeypatch.setattr(ray, "cluster_resources", no_totals)
    srv = SearchServer(index_dir=idx, scorer_replicas=2)
    port = srv.serve()
    try:
        for _ in range(4):
            assert _req(port, "GET", path) == (200, want)
        assert len(srv._replica_pool) == 1
    finally:
        srv.close()
        _kill_replicas(srv)


def test_replica_killed_under_load(served):
    """Kill one of two replicas while 4 clients send 10 requests each:
    every request is answered 200 with search_one's answer."""
    import threading

    import ray

    _, _, idx = served
    path = "/api/search?query=return+the&page=1&per_page=5"
    want = json.loads(json.dumps(search_one(idx, "return the", 1, 5)))
    srv = SearchServer(index_dir=idx, scorer_replicas=2)
    port = srv.serve()
    try:
        for _ in range(2):  # the pool spawns lazily, one slot per request
            assert _req(port, "GET", path) == (200, want)
        assert len(srv._replica_pool) == 2
        results, errors = [], []
        answered = threading.Semaphore(0)

        def client():
            for _ in range(10):
                try:
                    results.append(_req(port, "GET", path))
                except Exception as e:  # surfaced via the errors assert
                    errors.append(e)
                answered.release()

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(4):  # load is on: some requests are answered
            assert answered.acquire(timeout=60)
        ray.kill(srv._replica_pool[0], no_restart=True)
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert results == [(200, want)] * 40
    finally:
        srv.close()
        _kill_replicas(srv)


def test_switch_under_load(served, tmp_path):
    """POST /api/databases/switch lands while clients query: every answer
    is the old snapshot's or the new one's, and every request sent after
    the switch returned gets the new snapshot's answer."""
    import sys
    import threading
    import time

    srv, port, _ = served
    corpus = write_synthetic_corpus(str(tmp_path / "corpus"), n_docs=60,
                                    n_files=1)
    idx_c = build_index(
        corpus, str(tmp_path / "idx_c"),
        EngineConfig(mode="reference", block_size=32),
        mode="fresh",
    )
    srv._catalog.register("snap_c", idx_c)
    before = srv._catalog.active()
    path = "/api/search?query=return+the&page=1&per_page=5"
    old = _req(port, "GET", path)[1]
    new = json.loads(json.dumps(search_one(idx_c, "return the", 1, 5)))
    assert old != new
    secret = {"X-Secret-Key": "s3cr3t"}

    seen = []  # (monotonic send time, status, answer)
    stop = threading.Event()

    def client():
        while not stop.is_set():
            t = time.monotonic()
            st, out = _req(port, "GET", path)
            seen.append((t, st, out))

    threads = [threading.Thread(target=client) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        time.sleep(0.5)
        st, _ = _req(port, "POST", "/api/databases/switch",
                     body={"db_name": "snap_c"}, headers=secret)
        switched = time.monotonic()
        assert st == 200
        time.sleep(1.0)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=60)
        sys.setswitchinterval(interval)
        _req(port, "POST", "/api/databases/switch",
             body={"db_name": before}, headers=secret)
        _req(port, "DELETE", "/api/databases/snap_c", headers=secret)
    assert not any(t.is_alive() for t in threads)
    assert all(st == 200 and out in (old, new) for _, st, out in seen)
    assert any(out == old for _, _, out in seen)
    after = [out for t, _, out in seen if t > switched]
    assert after and all(out == new for out in after)
