"""CLI façade smoke: build → search → phrase → stats → catalog → serve,
in-process; only the build starts a Ray session."""

import json
import threading
import time

import pytest

from uci_searchengine_ray import __main__ as cli


def _run(capsys, argv):
    rc = cli.main(argv)
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(out)


def test_cli_flow(ray_session, synthetic_corpus_dir, tmp_path, capsys,
                  monkeypatch):
    idx = str(tmp_path / "idx")
    built = _run(capsys, [
        "build", "--corpus", synthetic_corpus_dir, "--index", idx,
        "--positions",
    ])
    assert built["n_docs"] == 600 and built["store_positions"] is True

    def no_ray(num_cpus):
        raise AssertionError("this command needs no Ray session")

    # every command below answers without a Ray session
    monkeypatch.setattr(cli, "_ray_session", no_ray)

    res = _run(capsys, [
        "search", "--index", idx, "--query", "return self", "--per-page", "3",
    ])
    assert res["total_results"] > 0 and len(res["results"]) == 3
    assert res["results"][0]["score"] > 0

    wand = _run(capsys, [
        "search", "--index", idx, "--query", "error value", "--scorer",
        "bm25_wand",
    ])
    assert wand["results"]

    ph = _run(capsys, ["phrase", "--index", idx, "--query", "snake_case_name"])
    assert ph["results"] and all(r["n_occurrences"] > 0 for r in ph["results"])

    st = _run(capsys, ["stats", "--index", idx])
    # 600 docs build as one derived checkpoint group: its runs row + postings
    assert st["n_docs"] == 600 and st["manifest_rows"] == 2

    root = str(tmp_path / "cat")
    reg = _run(capsys, ["catalog", "--root", root, "register", "snapA", idx])
    assert reg["registered"] == "snapA"
    sw = _run(capsys, ["catalog", "--root", root, "switch", "snapA"])
    assert sw["active"] == "snapA"
    lst = _run(capsys, ["catalog", "--root", root, "list"])
    assert lst[0]["name"] == "snapA" and lst[0]["active"] is True

    # serve's wait loop sleeps on the main thread: interrupt it there only
    real_sleep, main_thread = time.sleep, threading.main_thread()

    def interrupt(seconds):
        if threading.current_thread() is main_thread:
            raise KeyboardInterrupt
        real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", interrupt)
    sv = _run(capsys, ["serve", "--index", idx, "--port", "0"])
    assert sv["serving"] is True and sv["port"] > 0


def test_cli_curation_and_export(ray_session, tmp_path, capsys):
    sf = "/root/testdata/sf0.001"
    cu = _run(capsys, ["curate", "--sf", sf, "--op", "curate"])
    assert cu["op"] == "curate" and cu["rows"] > 0

    out_dir = str(tmp_path / "spans")
    ds = _run(capsys, ["curate", "--sf", sf, "--op", "dup_spans",
                       "--out", out_dir])
    assert ds["rows"] > 0 and ds["out"] == out_dir

    ex_dir = str(tmp_path / "export")
    ex = _run(capsys, ["export", "--sf", sf, "--out", ex_dir])
    assert ex["docs"] > 0 and ex["shards"] == 8
    # a resumed fully-finished export is a no-op that skips every shard
    ex2 = _run(capsys, ["export", "--sf", sf, "--out", ex_dir, "--resume"])
    assert ex2["docs"] == ex["docs"]
    assert len(ex2["skipped_shards"]) > 0



def test_curation_op_names_match_the_registry():
    """``_CURATION_OPS`` lists the registry's names by hand, so that the CLI
    parses arguments without importing the pipelines; the two must agree."""
    assert list(cli._CURATION_OPS) == list(cli._curation_registry())
