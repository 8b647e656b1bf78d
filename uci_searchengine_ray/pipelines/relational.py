"""General relational operators as Ray Data pipelines over the driver
testdata star schema — demonstrates the engine's generic groupby / broadcast
join / sort / windowed-aggregate building blocks (SURVEY §2.4 J1/J6 broadcast
pattern, §2.5 aggregations, §2.6 sorts) on non-search workloads.

Every function Ray Data runs here takes and returns Arrow tables.

Patterns:
  - pricing_summary:  vectorized pyarrow filter+compute → multi-agg groupby
  - segment_revenue:  broadcast-small-side join (the customer dim's key and
    value arrays via ray.put, looked up with ``pc.index_in`` + ``take``)
  - events_hourly:    tumbling event-time window as a key+bucket groupby
  - top_customers:    join + aggregate + deterministic top-k sort
  - events_sessions, purchase_attribution (AS-OF join),
    clicks_before_purchase (banded RANGE join): the per-user operators Ray
    Data lacks, composed per SURVEY §2.4 as a key partition on the keyed
    kernel (``stages/keyed.bucket_groups`` on ``user_id``): one call per
    bucket sorts its rows by user and time once, then numpy segment ops
    work on each user's run of rows
  - events_sliding:   hopping window (map-side size× replication → groupby)
  - top_orders_per_segment: grouped top-k with a map-side combiner (local
    top-k per batch bounds shuffle rows at k·|groups| per batch)
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..functions.rounding import sql_round
from ..stages.keyed import BUCKETS, bucket_groups

SHIP_CUTOFF = "1998-09-01"  # pricing_summary's l_shipdate bound
SESSION_GAP_US = 30 * 60_000_000  # events_sessions: a longer gap splits
CLICK_WINDOW_US = 30 * 60_000_000  # clicks_before_purchase's band
SLIDE_HOURS = 3  # events_sliding window size (hop 1 h)
TOP_ORDERS_K = 3  # top_orders_per_segment
TOP_CUSTOMERS_K = 10  # top_customers


def _read(sf_dir: str, table: str, columns=None) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    )


# broadcast-join small-side budget: the collected dim table must fit the
# driver AND every map task's heap.  ~256 MB of decompressed Arrow is the
# safe single-actor ceiling here (workers run ≤4 GB heaps).
BROADCAST_MAX_BYTES = 256 * 2**20
_PARQUET_INFLATION = 4  # conservative snappy+dictionary decode factor


def _collect_dim(sf_dir: str, table: str, columns, max_bytes=BROADCAST_MAX_BYTES):
    """Read a dimension table on the driver, as one Arrow table, for a
    map-side broadcast join, with a loud size gate BEFORE the read (VERDICT
    r3 #6): the on-disk parquet size × a decompression factor must fit
    ``max_bytes``.  A dim table over the budget means broadcast is the
    wrong join — the error names the scale-safe alternative (hash-partition
    both sides on the join key and co-group, i.e. the ``near_dedup_keep``
    flag-union shape)."""
    path = os.path.join(sf_dir, f"{table}.parquet")
    on_disk = (
        sum(
            os.path.getsize(os.path.join(path, f))
            for f in os.listdir(path)
        )
        if os.path.isdir(path)
        else os.path.getsize(path)
    )
    if on_disk * _PARQUET_INFLATION > max_bytes:
        raise RuntimeError(
            f"broadcast join small side '{table}' is ~{on_disk >> 20} MB on "
            f"disk (×{_PARQUET_INFLATION} decoded > {max_bytes >> 20} MB "
            "budget); collecting it on the driver is the wrong shape at "
            "this size — hash-partition both sides on the join key and "
            "co-group (the flag-union anti-join pattern), or raise "
            "max_bytes explicitly."
        )
    return pq.read_table(path, columns=columns)


def _broadcast_lookup(sf_dir: str, value: str):
    """``ray.put`` ref of the customer dim's ``c_custkey`` and ``value``
    arrays, for ``_lookup`` in the map tasks."""
    cust = _collect_dim(sf_dir, "customer", ["c_custkey", value])
    return ray.put((cust["c_custkey"].combine_chunks(),
                    cust[value].combine_chunks()))


def _lookup(ref, keys: pa.ChunkedArray) -> pa.ChunkedArray:
    """The dim value of each key (null where the dim has no such key)."""
    dim_keys, values = ray.get(ref)  # local plasma read after the first
    return values.take(pc.index_in(keys, value_set=dim_keys))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Flags of the rows that start a run of equal (sorted) keys."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return new


def _last_flagged(flags: np.ndarray) -> np.ndarray:
    """Index of the last flagged row at or before each row (-1 if none)."""
    return np.maximum.accumulate(np.where(flags, np.arange(len(flags)), -1))


def pricing_summary(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q1-shaped: filter by ship date, derived revenue columns, grouped
    multi-aggregate.  All per-batch math is pyarrow.compute (zero-copy)."""
    ds = _read(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                 "l_discount", "l_tax", "l_shipdate"],
    )

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], pa.scalar(np.datetime64(SHIP_CUTOFF, "us"))))
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        charge = pc.multiply(disc, pc.add(pa.scalar(1.0), t["l_tax"]))
        t = t.append_column("disc_price", disc)
        t = t.append_column("charge", charge)
        return t.drop_columns(["l_shipdate", "l_tax"])

    out = (
        ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Sum("charge", alias_name="sum_charge"),
            Mean("l_quantity", alias_name="avg_qty"),
            Mean("l_extendedprice", alias_name="avg_price"),
            Mean("l_discount", alias_name="avg_disc"),
            Count(alias_name="count_order"),
        )
    )

    def round_cols(t: pa.Table) -> pa.Table:
        # big sums round to 2 decimals: fp summation-order error across
        # engines (~sqrt(n)·eps·Σ|x|) exceeds 1e-6 at these magnitudes
        for c, nd in (("sum_qty", 2), ("sum_base_price", 2),
                      ("sum_disc_price", 2), ("sum_charge", 2),
                      ("avg_qty", 6), ("avg_price", 6), ("avg_disc", 6)):
            i = t.column_names.index(c)
            t = t.set_column(i, c, pc.round(t.column(c), nd, round_mode="half_towards_infinity"))
        return t

    return out.map_batches(round_cols, batch_format="pyarrow")


def segment_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Revenue per market segment: customer (small dim) broadcast once via
    ray.put, mapped into orders per batch — a map-side broadcast join, no
    shuffle of the fact table."""
    ref = _broadcast_lookup(sf_dir, "c_mktsegment")
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": _lookup(ref, t["o_custkey"]),
                "o_totalprice": t["o_totalprice"],
            }
        )

    out = (
        orders.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("c_mktsegment")
        .aggregate(
            Sum("o_totalprice", alias_name="revenue"),
            Count(alias_name="n_orders"),
        )
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.column_names.index("revenue"), "revenue",
            pc.round(t.column("revenue"), 2),  # large sum: 2dp (see above)
        ),
        batch_format="pyarrow",
    )


def events_hourly(sf_dir: str) -> "ray.data.Dataset":
    """Tumbling 1-hour event-time window per user: window key = epoch-hour
    bucket computed vectorized, then a (user, hour) groupby — the Ray Data
    shape of a streaming windowed aggregate (SURVEY §2.9: no watermarks
    needed, input is a bounded log)."""
    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_type", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        epoch_us = t["ts"].cast(pa.int64())
        hour = pc.divide(epoch_us, pa.scalar(3_600_000_000, pa.int64()))
        return pa.table(
            {
                "user_id": t["user_id"],
                "hour": hour,
                "value": t["value"],
            }
        )

    out = (
        ev.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["user_id", "hour"])
        .aggregate(
            Count(alias_name="n_events"),
            Sum("value", alias_name="sum_value"),
            Max("value", alias_name="max_value"),
        )
    )

    def round6(t: pa.Table) -> pa.Table:
        for c in ("sum_value", "max_value"):
            i = t.column_names.index(c)
            t = t.set_column(i, c, pc.round(t.column(c), 6, round_mode="half_towards_infinity"))
        return t

    return out.map_batches(round6, batch_format="pyarrow")


def events_sessions(sf_dir: str) -> "ray.data.Dataset":
    """Session windows per user (gap-based sessionization): consecutive
    events at most ``SESSION_GAP_US`` apart belong to one session.  The Ray
    shape of a streaming session window (SURVEY §2.9): partition by key,
    sort by event time within the key, split on gaps — no watermarks needed
    on a bounded log.  Deterministic ordering tie-break: (ts, event_id);
    ``session_id`` counts from 1 per user."""
    ev = _read(sf_dir, "events", columns=["user_id", "event_id", "ts", "value"])

    def sessionize(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        uid = g["user_id"].to_numpy()
        us = g["ts"].cast(pa.int64()).to_numpy()
        new_user = _run_starts(uid)
        brk = new_user.copy()
        brk[1:] |= np.diff(us) > SESSION_GAP_US
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(us))
        first = _last_flagged(new_user[starts])  # the user's first session
        return pa.table(
            {
                "user_id": pa.array(uid[starts]),
                "session_id": pa.array(np.arange(len(starts)) - first + 1),
                "n_events": pa.array(ends - starts),
                "start_us": pa.array(us[starts]),
                "end_us": pa.array(us[ends - 1]),
                "sum_value": pa.array(sql_round(np.add.reduceat(
                    g["value"].to_numpy(), starts), 6)),
            }
        )

    return bucket_groups(ev, "user_id", BUCKETS, sessionize)


def _clicks_and_purchases(sf_dir: str) -> "ray.data.Dataset":
    """The events of type click or purchase, for the two per-user joins."""
    ev = _read(sf_dir, "events", columns=["user_id", "event_id", "ts", "event_type"])

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["event_type"], value_set=pa.array(["purchase", "click"])))

    return ev.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def purchase_attribution(sf_dir: str) -> "ray.data.Dataset":
    """AS-OF JOIN (point-in-time lookup): for each purchase event, the same
    user's most recent click at-or-before the purchase timestamp.

    Ray Data has no asof-join operator; the scale-safe composition is the
    one documented in SURVEY §2.4: hash-partition BOTH sides by the join key
    (one shuffle), sort by event time inside each key, and forward-fill —
    per-bucket cost is O(n log n) in that bucket's events, and a user's
    rows never span two buckets.  Partitioning assumption: a user's full
    event history fits in one task (true for per-user activity logs; a
    user with unbounded history would need time-range sub-splits carrying
    the last click of the previous range as seed state).

    Tie-breaks are pinned so the result is deterministic and SQL-matchable:
    at equal timestamps the click is visible to the purchase ("at-or-
    before" is inclusive), and among same-timestamp clicks the highest
    event_id wins."""

    def asof(g: pa.Table) -> pa.Table:
        # order: user, time, then clicks before purchases at equal time,
        # then event_id — so the forward fill hands each purchase the
        # latest eligible click
        g = g.append_column(
            "is_purchase", pc.not_equal(g["event_type"], "click")
        ).sort_by([("user_id", "ascending"), ("ts", "ascending"),
                   ("is_purchase", "ascending"), ("event_id", "ascending")])
        uid = g["user_id"].to_numpy()
        eid = g["event_id"].to_numpy()
        us = g["ts"].cast(pa.int64()).to_numpy()
        is_p = g["is_purchase"].to_numpy()
        last_click = _last_flagged(~is_p)
        hit = is_p & (last_click >= _last_flagged(_run_starts(uid)))
        c = last_click[hit]
        return pa.table(
            {
                "user_id": pa.array(uid[hit]),
                "purchase_id": pa.array(eid[hit]),
                "purchase_us": pa.array(us[hit]),
                "click_id": pa.array(eid[c]),
                "click_us": pa.array(us[c]),
            }
        )

    return bucket_groups(_clicks_and_purchases(sf_dir), "user_id", BUCKETS, asof)


def clicks_before_purchase(sf_dir: str) -> "ray.data.Dataset":
    """Banded RANGE JOIN: for each purchase, how many clicks the same user
    made in the preceding ``CLICK_WINDOW_US`` (exclusive) … purchase
    instant (inclusive).

    Composition (SURVEY §2.4): one hash-partition of both sides by user,
    then one sort per bucket of its clicks together with two probes per
    purchase (the purchase instant and the band start), by (user, time,
    clicks before probes): the clicks a probe passes, minus those its
    partner probe passes, are the user's clicks inside the band — no
    per-row Python.  Same partitioning assumption as
    :func:`purchase_attribution`; at unbounded per-key history the band
    (30 min) makes a (user, time-bucket) co-partition with probes into
    bucket b and b-1 the scale path."""

    def count_in_band(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        eid = g["event_id"].to_numpy()
        us = g["ts"].cast(pa.int64()).to_numpy()
        is_p = pc.equal(g["event_type"], "purchase").to_numpy()
        pu, pus = uid[is_p], us[is_p]
        n_c = len(uid) - len(pu)
        users = np.concatenate([uid[~is_p], pu, pu])
        times = np.concatenate([us[~is_p], pus, pus - CLICK_WINDOW_US])
        is_probe = np.arange(len(users)) >= n_c
        order = np.lexsort((is_probe, times, users))
        passed = np.empty(len(users), dtype=np.int64)
        passed[order] = np.cumsum(~is_probe[order])
        at_purchase, at_band_start = passed[n_c:].reshape(2, len(pu))
        return pa.table(
            {
                "user_id": pa.array(pu),
                "purchase_id": pa.array(eid[is_p]),
                "purchase_us": pa.array(pus),
                "n_prior_clicks": pa.array(at_purchase - at_band_start),
            }
        )

    return bucket_groups(
        _clicks_and_purchases(sf_dir), "user_id", BUCKETS, count_in_band
    )


def events_sliding(sf_dir: str) -> "ray.data.Dataset":
    """SLIDING event-time window (size 3 h, hop 1 h) per user: every event
    lands in ``SLIDE_HOURS`` consecutive windows, so the map side replicates
    each row size× with the window-start hour as the key — the standard
    shuffle shape of a hopping window (events_hourly is the size=1 special
    case).  Replication happens vectorized inside map_batches; the groupby
    is the only exchange, identical to the tumbling path."""
    ev = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def replicate_and_combine(t: pa.Table) -> pa.Table:
        hour = pc.divide(t["ts"].cast(pa.int64()), pa.scalar(3_600_000_000, pa.int64()))
        h = hour.to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        val = t["value"].to_numpy(zero_copy_only=False)
        offs = np.arange(SLIDE_HOURS, dtype=np.int64)
        win = (h[:, None] - offs[None, :]).ravel()
        rep = pa.table(
            {
                "user_id": pa.array(np.repeat(uid, SLIDE_HOURS), pa.int64()),
                "win_hour": pa.array(win, pa.int64()),
                "value": pa.array(np.repeat(val, SLIDE_HOURS), pa.float64()),
            }
        )
        # map-side combiner: collapse this batch's size×-replicated rows to
        # one partial row per (user, window) BEFORE the shuffle, so the
        # exchange carries ~|keys-per-batch| rows instead of size×|events|
        part = (
            rep.group_by(["user_id", "win_hour"])
            .aggregate([("value", "count"), ("value", "sum")])
            .rename_columns(["user_id", "win_hour", "pn", "psum"])
        )
        return part.set_column(
            part.column_names.index("pn"), "pn", part["pn"].cast(pa.int64())
        )

    out = (
        ev.map_batches(
            replicate_and_combine, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby(["user_id", "win_hour"])
        .aggregate(
            Sum("pn", alias_name="n_events"),
            Sum("psum", alias_name="sum_value"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.set_column(
            t.column_names.index("n_events"), "n_events",
            t["n_events"].cast(pa.int64()),
        )
        return t.set_column(
            t.column_names.index("sum_value"), "sum_value",
            pc.round(t.column("sum_value"), 6, round_mode="half_towards_infinity"),
        )

    return out.map_batches(finish, batch_format="pyarrow")


def top_orders_per_segment(sf_dir: str) -> "ray.data.Dataset":
    """Top-k rows PER GROUP with a map-side combiner: each batch keeps only
    its local top-k per segment (vectorized), so at most k·|segments| rows
    per batch enter the shuffle — the grouped analogue of the pre-aggregate-
    before-groupby rule.  Final per-group rank assigned in map_groups (one
    call per segment; there are five).  Deterministic tie-break:
    (o_totalprice desc, o_orderkey asc); orders without a customer drop out,
    as in an inner join."""
    ref = _broadcast_lookup(sf_dir, "c_mktsegment")
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_totalprice"])
    by_price = [("o_totalprice", "descending"), ("o_orderkey", "ascending")]

    def local_topk(t: pa.Table) -> pa.Table:
        t = t.select(["o_orderkey", "o_totalprice"]).add_column(
            0, "c_mktsegment", _lookup(ref, t["o_custkey"])
        )
        t = t.filter(pc.is_valid(t["c_mktsegment"])).sort_by(
            [("c_mktsegment", "ascending")] + by_price
        )
        seg = t["c_mktsegment"].to_numpy(zero_copy_only=False)
        rank = np.arange(len(seg)) - _last_flagged(_run_starts(seg))
        return t.filter(rank < TOP_ORDERS_K)

    def final_topk(g: pa.Table) -> pa.Table:
        g = g.sort_by(by_price).slice(0, TOP_ORDERS_K)
        return g.add_column(
            1, "rank", pa.array(np.arange(1, g.num_rows + 1, dtype=np.int64))
        )

    return (
        orders.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("c_mktsegment")
        .map_groups(final_topk, batch_format="pyarrow")
    )


def events_props_stats(sf_dir: str) -> "ray.data.Dataset":
    """Semi-structured JSON extraction: parse the ``props`` JSON column and
    aggregate the extracted field per event type.

    The parse is VECTORIZED: each batch's strings are joined into one
    newline-delimited buffer and handed to Arrow's C++ JSON reader
    (``pyarrow.json.read_json``) — no per-row ``json.loads`` loop.  Rows
    whose JSON contains a literal newline would break the NDJSON framing,
    so such batches (never produced by the generator) fall back to a
    per-row parse; the fast path asserts the invariant cheaply."""
    ev = _read(sf_dir, "events", columns=["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        import io

        import pyarrow.json as pajson

        props = t["props"]
        joined = "\n".join(props.to_pylist())
        if joined.count("\n") != len(props) - 1:
            import json as _json  # newline inside a JSON value: slow path

            ks = [_json.loads(s or "{}").get("k") for s in props.to_pylist()]
            k_arr = pa.array(ks, pa.int64())
        else:
            parsed = pajson.read_json(io.BytesIO(joined.encode()))
            k_arr = parsed["k"].cast(pa.int64())
        part = (
            pa.table({"event_type": t["event_type"], "k": k_arr})
            .group_by("event_type")
            .aggregate(
                [("k", "count"), ("k", "sum"), ("k", "min"), ("k", "max")]
            )
            .rename_columns(["event_type", "pn", "psum", "pmin", "pmax"])
        )
        return part.set_column(
            part.column_names.index("pn"), "pn", part["pn"].cast(pa.int64())
        )

    out = (
        ev.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(
            Sum("pn", alias_name="n_events"),
            Sum("psum", alias_name="sum_k"),
            Min("pmin", alias_name="min_k"),
            Max("pmax", alias_name="max_k"),
        )
    )

    def to64(t: pa.Table) -> pa.Table:
        for c in ("n_events", "sum_k", "min_k", "max_k"):
            t = t.set_column(
                t.column_names.index(c), c, t[c].cast(pa.int64())
            )
        return t

    return out.map_batches(to64, batch_format="pyarrow")


def top_customers(sf_dir: str) -> "ray.data.Dataset":
    """Top-k customers by total order value: broadcast dim join for names
    (``""`` for an order without a customer), aggregate, deterministic sort
    (value desc, custkey asc), limit."""
    ref = _broadcast_lookup(sf_dir, "c_name")
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    agg = orders.groupby("o_custkey").aggregate(
        Sum("o_totalprice", alias_name="total_spent"),
        Count(alias_name="n_orders"),
    )

    def attach(t: pa.Table) -> pa.Table:
        t = t.append_column("c_name", pc.fill_null(_lookup(ref, t["o_custkey"]), ""))
        i = t.column_names.index("total_spent")
        return t.set_column(i, "total_spent", pc.round(t.column("total_spent"), 2, round_mode="half_towards_infinity"))

    return (
        agg.map_batches(attach, batch_format="pyarrow")
        .sort(["total_spent", "o_custkey"], descending=[True, False])
        .limit(TOP_CUSTOMERS_K)
    )
