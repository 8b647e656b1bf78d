"""Randomized conformance for the text-cleaning operators (pipelines/
cleaning.py) over corpora nastier than the driver testdata: multi-line docs
with planted cross-doc boilerplate, blank lines, within-doc repetition, and
planted PII (emails / IPs / phone numbers) — compared cell-for-cell against
the same DuckDB oracle SQL the driver gate runs."""

from __future__ import annotations

import os
import random

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

BOILER = [
    "Copyright (c) 2024 Example Corp",
    "All rights reserved.",
    "-- navigation --",
]
PII = [
    "contact bob.smith+spam@mail-example.co for info",
    "server at 10.0.0.1 or 192.168.255.3 port 80",
    "call 555-123-4567 or 800.555.0199 today",
    "alice@ex.io met 1.2.3.4 then 555-000-1111",
    "v1.2.3.4.5 is not an ip boundary 999.999.999.999 maybe",
]
WORDS = ["alpha", "beta", "gamma", "the", "of", "x1", "hash", "merge", ""]


def _random_docs(seed: int, n: int) -> pa.Table:
    rng = random.Random(seed)
    texts = []
    for i in range(n):
        lines = []
        for _ in range(rng.randint(0, 8)):
            r = rng.random()
            if r < 0.3:
                lines.append(rng.choice(BOILER))
            elif r < 0.4:
                lines.append("")  # blank line
            elif r < 0.55:
                lines.append(rng.choice(PII))
            else:
                body = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 6)))
                lines.append(body)
        if rng.random() < 0.3 and lines:
            lines.append(lines[0])  # within-doc duplicate line
        texts.append("\n".join(lines))
    if n >= 2:
        texts[1] = texts[0]  # exact dup doc
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n),
            "source": pa.array([f"s{i % 3}" for i in range(n)]),
            "n_chars": pa.array(np.asarray([len(t) for t in texts], np.int64)),
        }
    )


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = np.round(df[c].astype(np.float64), 6)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


@pytest.mark.parametrize("seed", [5, 17, 41])
def test_cleaning_conformance(ray_session, tmp_path, seed):
    import __ray_entry__ as e
    from uci_searchengine_ray.pipelines import cleaning

    d = tmp_path / f"c{seed}"
    d.mkdir()
    pq.write_table(_random_docs(seed, 60), str(d / "documents.parquet"))

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{os.path.join(str(d), 'documents.parquet')}')"
    )
    oracles = e.oracle_sql()
    for name, fn in [
        ("boilerplate_lines", cleaning.boilerplate_lines),
        ("repetition_stats", cleaning.repetition_stats),
        ("pii_redact", cleaning.pii_redact),
        ("dup_spans", cleaning.dup_spans),
        ("strip_dup_spans", cleaning.strip_dup_spans),
    ]:
        mine = _canon(fn(str(d)).to_pandas())
        theirs = _canon(con.execute(oracles[name]).fetchdf())
        assert list(mine.columns) == list(theirs.columns), name
        pd.testing.assert_frame_equal(mine, theirs, check_dtype=False), name


def test_boilerplate_semantics(ray_session, tmp_path):
    """Pinned example: the shared header is stripped everywhere, blank and
    unique lines survive, a fully-boilerplate doc becomes empty text."""
    from uci_searchengine_ray.pipelines import cleaning

    texts = [
        "HEADER\nbody one\n\nunique a",
        "HEADER\nbody two",
        "HEADER",
        "no boiler here",
    ]
    d = tmp_path / "b"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(4, dtype=np.int64)),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * 4),
                "source": pa.array(["s"] * 4),
                "n_chars": pa.array(np.asarray([len(t) for t in texts], np.int64)),
            }
        ),
        str(d / "documents.parquet"),
    )
    out = (
        cleaning.boilerplate_lines(str(d), min_docs=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["clean_text"].tolist() == [
        "body one\n\nunique a",
        "body two",
        "",
        "no boiler here",
    ]
    assert out["n_removed"].tolist() == [1, 1, 1, 0]
    assert out["n_lines"].tolist() == [4, 2, 1, 1]


def test_pii_semantics(ray_session, tmp_path):
    """Pinned redaction order and counts on a known string."""
    from uci_searchengine_ray.pipelines import cleaning

    t = "a@b.co wrote from 10.0.0.1: call 555-123-4567 or mail x.y@z.org"
    d = tmp_path / "p"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0], pa.int64()),
                "text": pa.array([t]),
                "lang": pa.array(["en"]),
                "source": pa.array(["s"]),
                "n_chars": pa.array([len(t)], pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )
    row = cleaning.pii_redact(str(d)).to_pandas().iloc[0]
    assert row["n_emails"] == 2
    assert row["n_ips"] == 1
    assert row["n_phones"] == 1
    assert (
        row["redacted_text"]
        == "<EMAIL> wrote from <IP>: call <PHONE> or mail <EMAIL>"
    )


def test_dup_spans_semantics(ray_session, tmp_path):
    """Pinned example (w=3, min_df=2): overlapping shared windows union into
    a single covered run (Σ min(w, gap) + w closed form); windows repeated
    only WITHIN one doc (df=1 across docs) are excluded; docs with no
    cross-doc window are absent from the output."""
    from uci_searchengine_ray.pipelines import cleaning

    texts = [
        "a b c d e f",            # shares run "a b c d" with doc 1
        "x x a b c d y",
        "p q r s p q r s",        # repeats "p q r" only within itself
        "unique tokens only here",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(4, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 4),
            "source": pa.array(["s"] * 4),
            "n_chars": pa.array(
                np.asarray([len(x) for x in texts], np.int64)
            ),
        }
    )
    d = tmp_path / "ds"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    out = (
        cleaning.dup_spans(str(d), w=3, min_df=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [0, 1]
    # doc 0: dup windows at pos 0,1 → covered = min(3,1) + 3 = 4 of 6 tokens
    assert out.loc[0, ["n_tokens", "dup_windows", "covered_tokens"]].tolist() == [6, 2, 4]
    assert out.loc[0, "dup_fraction"] == round(4 / 6, 6)
    # doc 1: dup windows at pos 2,3 → covered 4 of 7
    assert out.loc[1, ["n_tokens", "dup_windows", "covered_tokens"]].tolist() == [7, 2, 4]
    assert out.loc[1, "dup_fraction"] == round(4 / 7, 6)


def test_strip_dup_spans_semantics(ray_session, tmp_path):
    """Pinned (w=3, min_df=2): the shared run is cut from both docs, the
    unique remainder survives, untouched docs come back whole."""
    from uci_searchengine_ray.pipelines import cleaning

    texts = [
        "a b c d e f",            # shares "a b c d" with doc 1
        "x x a b c d y",
        "unique tokens only here",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(3, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["s"] * 3),
            "n_chars": pa.array(np.asarray([len(x) for x in texts], np.int64)),
        }
    )
    d = tmp_path / "sds"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    out = (
        cleaning.strip_dup_spans(str(d), w=3, min_df=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # doc 0: dup windows at 0,1 cover tokens 0..3 → "e f" survives
    assert out.loc[0, "clean_text"] == "e f"
    assert out.loc[0, ["n_tokens", "n_kept"]].tolist() == [6, 2]
    # doc 1: dup windows at 2,3 cover tokens 2..5 → "x x" + "y" survive
    assert out.loc[1, "clean_text"] == "x x y"
    assert out.loc[1, ["n_tokens", "n_kept"]].tolist() == [7, 3]
    # doc 2 untouched
    assert out.loc[2, "clean_text"] == "unique tokens only here"


def _strip_oracle(docs_path: str) -> pd.DataFrame:
    """``strip_dup_spans`` as the DuckDB oracle computes it, canonicalised."""
    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{docs_path}')"
    )
    return _canon(con.execute(e.oracle_sql()["strip_dup_spans"]).fetchdf())


def test_strip_dup_spans_sf0001_matches_oracle(ray_session):
    """The interval-spool strip on the driver testdata is row-identical to
    the DuckDB oracle, and strips something."""
    from uci_searchengine_ray.pipelines import cleaning

    sf = "/root/testdata/sf0.001"
    a = _canon(cleaning.strip_dup_spans(sf).to_pandas())
    pd.testing.assert_frame_equal(
        a,
        _strip_oracle(os.path.join(sf, "documents.parquet")),
        check_dtype=False,
    )
    assert (a["n_kept"] < a["n_tokens"]).any()  # something was stripped


def test_strip_dup_spans_sparse_hashed_ids(ray_session, tmp_path):
    """Hashed 63-bit doc_ids (the production id space): the interval
    spool's min/max pruning degrades to full scans but the searchsorted
    membership mapping must stay exact — compare against the DuckDB
    oracle, which never touches the spool."""
    from uci_searchengine_ray.pipelines import cleaning

    rng = np.random.default_rng(7)
    base = "alpha beta gamma delta epsilon zeta eta theta " * 4
    texts = [base + f"tail{i}" for i in range(40)] + ["unique words only"]
    ids = np.sort(
        rng.choice(np.iinfo(np.int64).max // 2, len(texts), replace=False)
    ).astype(np.int64)
    d = tmp_path / "sparse"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)}),
        str(d / "documents.parquet"),
    )
    a = (
        cleaning.strip_dup_spans(str(d))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        _canon(a), _strip_oracle(str(d / "documents.parquet")),
        check_dtype=False,
    )
    assert (a["n_kept"] < a["n_tokens"]).sum() == 40  # shared runs stripped
    assert a.loc[a["n_kept"] == a["n_tokens"], "clean_text"].iloc[0] == "unique words only"


def test_boilerplate_min_frac_and_head_guard(ray_session):
    """min_frac derives the df threshold from the corpus size; an
    over-budget head fails loudly naming the remedy."""
    from uci_searchengine_ray.pipelines import cleaning

    sf = "/root/testdata/sf0.001"
    # min_frac=1.0 → min_docs = N → nothing qualifies → nothing removed
    out = cleaning.boilerplate_lines(sf, min_frac=1.0).to_pandas()
    assert (out["n_removed"] == 0).all()
    # min_docs=1 qualifies every distinct line, so the head is non-empty
    with pytest.raises(RuntimeError, match="min_frac"):
        cleaning.boilerplate_lines(sf, min_docs=1, max_head=0)


def test_strip_dup_spans_spool_dir_reuse(ray_session, tmp_path):
    """A reused spool_dir must be CLEARED on entry: a previous corpus'
    interval files at the same path must not leak into the next strip."""
    from uci_searchengine_ray.pipelines import cleaning

    def write_corpus(name, texts):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(
                        np.arange(len(texts), dtype=np.int64)
                    ),
                    "text": pa.array(texts, pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )
        return str(d)

    run = " ".join(f"w{i}" for i in range(20))
    dup_corpus = write_corpus("a", [run + " t1", run + " t2"])
    clean_corpus = write_corpus("b", ["only unique words here", "more unique"])
    spool = str(tmp_path / "spool")
    a = cleaning.strip_dup_spans(dup_corpus, spool_dir=spool).to_pandas()
    assert (a["n_kept"] < a["n_tokens"]).all()  # shared run stripped
    # same spool, doc_ids overlap (0,1): corpus B has no dup windows and
    # must come out untouched despite corpus A's stale intervals
    b = cleaning.strip_dup_spans(clean_corpus, spool_dir=spool).to_pandas()
    assert (b["n_kept"] == b["n_tokens"]).all()


def test_strip_dup_spans_refuses_foreign_spool_dir(ray_session, tmp_path):
    """ADVICE r4: a caller-supplied spool_dir holding pre-existing data NOT
    written by a previous run must be refused, not silently rmtree'd."""
    from uci_searchengine_ray.pipelines import cleaning

    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["a b c", "d e f"], pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    foreign = tmp_path / "precious"
    foreign.mkdir()
    (foreign / "data.txt").write_text("do not delete me")
    with pytest.raises(ValueError, match="not written by a previous"):
        cleaning.strip_dup_spans(str(d), spool_dir=str(foreign))
    assert (foreign / "data.txt").read_text() == "do not delete me"
    # a marker-owned dir (previous run) is reusable
    out = cleaning.strip_dup_spans(
        str(d), spool_dir=str(tmp_path / "fresh")
    ).to_pandas()
    out2 = cleaning.strip_dup_spans(
        str(d), spool_dir=str(tmp_path / "fresh")
    ).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("doc_id").reset_index(drop=True),
        out2.sort_values("doc_id").reset_index(drop=True),
    )


def test_eval_gram_broadcast_size_gate(ray_session, tmp_path):
    """VERDICT r4 #3: the eval-gram broadcast fails loudly BEFORE the read
    when the eval source exceeds the byte budget."""
    from uci_searchengine_ray.pipelines import cleaning

    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(50, dtype=np.int64)),
                "text": pa.array(
                    [f"tok{i} tok{i+1} " * 40 for i in range(50)], pa.string()
                ),
            }
        ),
        str(d / "documents.parquet"),
    )
    with pytest.raises(RuntimeError, match="broadcast budget"):
        cleaning.collect_eval_grams_from(
            str(d / "documents.parquet"), max_bytes=1
        )
    with pytest.raises(RuntimeError, match="broadcast budget"):
        cleaning.collect_eval_grams(str(d), max_bytes=1)
    # within budget: both paths produce the gram set
    g = cleaning.collect_eval_grams_from(str(d / "documents.parquet"))
    assert len(g) > 0
    g2 = cleaning.collect_eval_grams(str(d))
    assert len(g2) > 0


def test_decontaminate_against_uri_eval_path(ray_session, tmp_path):
    """The eval-gram size gate sizes a ``file://`` URI (recursively, for a
    nested directory) the way ``read_parquet`` reads it: the URI run flags
    the same docs as the plain-path run, and the gate still trips on it."""
    from uci_searchengine_ray.pipelines import cleaning

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(os.path.join(sf, "documents.parquet"))
    ev = tmp_path / "ev" / "part=0"
    ev.mkdir(parents=True)
    ids = docs["doc_id"].to_numpy()
    pq.write_table(
        docs.select(["text"]).filter(pa.array(ids % 7 == 0)),
        str(ev / "a.parquet"),
    )
    ev_dir = str(tmp_path / "ev")

    def run(path):
        out = cleaning.decontaminate_against(sf, path).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    plain = run(ev_dir)
    assert plain["contaminated"].any() and not plain["contaminated"].all()
    pd.testing.assert_frame_equal(run("file://" + ev_dir), plain)
    with pytest.raises(RuntimeError, match="broadcast budget"):
        cleaning.collect_eval_grams_from("file://" + ev_dir, max_bytes=1)
