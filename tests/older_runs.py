"""Test helper: rewrite a snapshot's runs as builds before the pinned
``run_format`` wrote them."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pa_ds
import pyarrow.parquet as pq

from uci_searchengine_ray.functions import codecs


def to_hashed_id_runs(snap: str) -> None:
    """Rewrite ``snap``'s runs as older builds wrote them: runs name docs by
    their hashed ids, carry a ``tf_sum`` column and sit in one
    ``runs/group=G/merge_key=M/`` dir per key; build_config.json has no
    ``run_format``."""
    runs_root = os.path.join(snap, "runs")
    for group in sorted(os.listdir(runs_root)):
        gdir = os.path.join(runs_root, group)
        for name in sorted(os.listdir(gdir)):
            path = os.path.join(gdir, name)
            meta = os.path.join(snap, "doc_meta", group, "meta-" + name[len("runs-"):])
            ids = np.sort(pq.read_table(meta, columns=["doc_id"])["doc_id"].to_numpy())
            tbl = pq.read_table(path)
            os.remove(path)
            if tbl.num_rows == 0:
                continue
            ns = tbl["n"].to_numpy().astype(np.int64)
            ranks, tfs = codecs.decode_postings(tbl["ids_enc"], tbl["tfs_enc"], ns)
            starts = np.concatenate(([0], np.cumsum(ns)[:-1]))
            ids_enc, _, _ = codecs.encode_postings(ids[ranks], tfs, starts)
            tbl = tbl.set_column(tbl.schema.get_field_index("ids_enc"), "ids_enc",
                                 ids_enc)
            tbl = tbl.add_column(3, "tf_sum", pa.array(
                np.add.reduceat(tfs.astype(np.int64), starts), pa.int64()))
            for key in sorted(set(tbl["merge_key"].to_pylist())):
                kdir = os.path.join(gdir, f"merge_key={key}")
                os.makedirs(kdir, exist_ok=True)
                rows = tbl.filter(pa_ds.field("merge_key") == key).drop_columns(["merge_key"])
                pq.write_table(rows, os.path.join(kdir, name))
    bc = os.path.join(snap, "build_config.json")
    with open(bc) as f:
        pinned = json.load(f)
    del pinned["run_format"]
    with open(bc, "w") as f:
        json.dump(pinned, f)
