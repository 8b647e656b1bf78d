"""BFS crawl rounds over a synthetic static site: discovery order, domain
filter, dead-link quarantine, and crawl→index→search integration."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from uci_searchengine_ray.pipelines.crawl import crawl

BASE = "https://www.ics.uci.edu"


def _page(links, body="content words here"):
    anchors = "".join(f'<a href="{l}">l</a>' for l in links)
    return f"<html><title>T</title><body><p>{body}</p>{anchors}</body></html>"


@pytest.fixture(scope="module")
def site(ray_session, tmp_path_factory):
    """3-level site: root → a,b → c (+ dead link, external link, cycle)."""
    pages = {
        f"{BASE}/root": _page(
            [f"{BASE}/a", f"{BASE}/b", "https://example.com/x", "#frag"],
            body="root alpha",
        ),
        f"{BASE}/a": _page([f"{BASE}/c", f"{BASE}/root"], body="alpha beta"),
        f"{BASE}/b": _page([f"{BASE}/dead"], body="beta gamma"),
        f"{BASE}/c": _page([], body="gamma delta unique_term_xyz"),
    }
    tbl = pa.table(
        {
            "url": pa.array(list(pages.keys()), pa.string()),
            "html": pa.array(list(pages.values()), pa.string()),
        }
    )
    p = tmp_path_factory.mktemp("site") / "pages.parquet"
    pq.write_table(tbl, str(p))
    return str(p)


def test_bfs_rounds_and_quarantine(site):
    docs, edges = crawl(site, seeds=[f"{BASE}/root"], max_rounds=4)
    by_round = {}
    for r in docs.to_pylist():
        by_round.setdefault(r["round"], []).append(r)
    assert [r["url"] for r in by_round[0]] == [f"{BASE}/root"]
    assert {r["url"] for r in by_round[1]} == {f"{BASE}/a", f"{BASE}/b"}
    # round 2: c (real) + dead (quarantined); external link filtered out
    r2 = {r["url"]: r for r in by_round[2]}
    assert set(r2) == {f"{BASE}/c", f"{BASE}/dead"}
    assert r2[f"{BASE}/dead"]["crawl_failed"] is True
    assert "not found" in r2[f"{BASE}/dead"]["error_message"]
    assert r2[f"{BASE}/c"]["crawl_failed"] is False
    # title text is part of get_text() output, as in the reference's
    # BeautifulSoup soup.get_text() (crawler.py:414) — adjacent text nodes
    # ("T" and "gamma") concatenate with no separator, also as in get_text()
    assert r2[f"{BASE}/c"]["text"] == "Tgamma delta unique_term_xyz"
    # cycle (a → root) produced an edge but no re-crawl
    all_urls = [r["url"] for r in docs.to_pylist()]
    assert len(all_urls) == len(set(all_urls))
    edge_set = {(e["src_url"], e["dst_url"]) for e in edges.to_pylist()}
    assert (f"{BASE}/a", f"{BASE}/root") in edge_set
    assert not any("example.com" in d for _, d in edge_set)


def test_max_rounds_and_pages(site):
    docs, _ = crawl(site, seeds=[f"{BASE}/root"], max_rounds=1)
    assert {r["round"] for r in docs.to_pylist()} == {0}
    docs, _ = crawl(site, seeds=[f"{BASE}/root"], max_rounds=4, max_pages=2)
    assert docs.num_rows <= 3  # root + capped frontier


def test_crawl_to_index_integration(site, tmp_path):
    """Crawled docs → corpus shape → build_index → search finds content."""
    docs, _ = crawl(site, seeds=[f"{BASE}/root"], max_rounds=4)
    ok = docs.filter(pa.compute.invert(docs["crawl_failed"]))
    corpus = pa.table(
        {
            "repo": pa.array(["crawl/site"] * ok.num_rows, pa.string()),
            "path": pa.array(ok["url"].to_pylist(), pa.string()),
            "commit": pa.array(["r0"] * ok.num_rows, pa.string()),
            "lang": pa.array(["html"] * ok.num_rows, pa.string()),
            "content": ok["text"].cast(pa.large_string()),
        }
    )
    cdir = tmp_path / "c"
    cdir.mkdir()
    pq.write_table(corpus, str(cdir / "p.parquet"))

    from uci_searchengine_ray.config import EngineConfig
    from uci_searchengine_ray.pipelines.index_build import build_index
    from uci_searchengine_ray.pipelines.search import PostingsIndex, score_reference

    snap = str(tmp_path / "i")
    build_index(str(cdir), snap,
                EngineConfig(ckpt_groups=1),
                mode="fresh")
    idx = PostingsIndex(snap)
    ids, scores = score_reference(idx, "unique_term_xyz")
    assert len(ids) == 1 and scores[0] > 0


def test_crawl_rate_limit_wired(site):
    """requests_per_second wires the T1 politeness clock into the fetch loop:
    a second same-domain round must wait ≥ the min interval."""
    import time

    t0 = time.perf_counter()
    docs, _ = crawl(site, seeds=[f"{BASE}/root"], max_rounds=2,
                    requests_per_second=20.0)
    elapsed = time.perf_counter() - t0
    assert docs.num_rows > 1
    # ≥2 same-domain URLs fetched → at least one 1/20 s politeness wait
    assert elapsed >= 0.05
