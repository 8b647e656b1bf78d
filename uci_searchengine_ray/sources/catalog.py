"""Snapshot catalog: named, portable index snapshots.

Rebuild of the reference's database-management surface (SURVEY.md §2.1
S5-S7): one SQLite file per named database, switchable / uploadable /
downloadable / deletable at runtime (connection.py:36-40,155-179;
routes.py:62-130,440-460).  Here a "database" is an index snapshot directory
(runs + postings + doc_meta + stats.json + manifest); the catalog
is a root directory of named snapshots plus a small JSON state file recording
which snapshot is active.

All operations are plain filesystem ops — no Ray session required — and the
active-snapshot switch is what a query-actor pool re-points at
(pipelines/search.QueryScorer takes the snapshot path at construction).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tarfile
import time
from typing import List, Optional

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
_STATE_FILE = "catalog.json"
_REQUIRED = ("stats.json",)


class SnapshotCatalog:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- state ------------------------------------------------------------
    def _state_path(self) -> str:
        return os.path.join(self.root, _STATE_FILE)

    def _read_state(self) -> dict:
        try:
            with open(self._state_path()) as f:
                return json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    def _write_state(self, state: dict) -> None:
        tmp = self._state_path() + ".tmp"
        with open(tmp, "w") as f:
            json.dump(state, f, indent=2, sort_keys=True)
        os.replace(tmp, self._state_path())

    def _check_name(self, name: str) -> None:
        if not _NAME_RE.match(name or ""):
            raise ValueError(f"invalid snapshot name {name!r}")

    def path(self, name: str) -> str:
        self._check_name(name)
        return os.path.join(self.root, name)

    # -- catalog ops (S7: list / switch / delete) --------------------------
    def list(self) -> List[dict]:
        out = []
        active = self.active()
        for name in sorted(os.listdir(self.root)):
            p = os.path.join(self.root, name)
            # skip non-dirs and names switch()/delete() would reject anyway
            # (e.g. a crashed import's leftover .import_tmp) — otherwise the
            # listing shows phantom entries no API call can act on
            if not os.path.isdir(p) or not _NAME_RE.match(name):
                continue
            stats = {}
            try:
                with open(os.path.join(p, "stats.json")) as f:
                    stats = json.load(f)
            except (FileNotFoundError, json.JSONDecodeError):
                pass
            out.append(
                {
                    "name": name,
                    "active": name == active,
                    "n_docs": stats.get("n_docs"),
                    "n_terms": stats.get("n_terms"),
                    "mode": stats.get("mode"),
                }
            )
        return out

    def active(self) -> Optional[str]:
        return self._read_state().get("active")

    def switch(self, name: str) -> str:
        """Point the catalog at another snapshot (routes.py:62-114 analog)."""
        p = self.path(name)
        if not os.path.isdir(p):
            raise FileNotFoundError(f"no snapshot named {name!r}")
        for req in _REQUIRED:
            if not os.path.exists(os.path.join(p, req)):
                raise ValueError(f"snapshot {name!r} is incomplete (missing {req})")
        state = self._read_state()
        state["active"] = name
        self._write_state(state)
        return p

    def delete(self, name: str) -> None:
        p = self.path(name)
        if not os.path.isdir(p):
            raise FileNotFoundError(f"no snapshot named {name!r}")
        if self.active() == name:
            state = self._read_state()
            state.pop("active", None)
            self._write_state(state)
        shutil.rmtree(p)

    # -- import / export (S5 / S6) ----------------------------------------
    def register(self, name: str, snapshot_dir: str, move: bool = False) -> str:
        """Bring an existing snapshot dir into the catalog.  Name collisions
        are deduped with a timestamp suffix (connection.py:164-171 analog)."""
        self._check_name(name)
        final = name
        n = 0
        # loop until FREE: a same-second double register would otherwise
        # shutil.move the snapshot INSIDE the existing suffixed dir
        while os.path.exists(self.path(final)):
            n += 1
            final = f"{name}_{int(time.time())}_{n}" if n > 1 else f"{name}_{int(time.time())}"
        dest = self.path(final)
        if move:
            shutil.move(snapshot_dir, dest)
        else:
            shutil.copytree(snapshot_dir, dest)
        return final

    def export_tar(self, name: str, out_path: str) -> str:
        """Portable single-file export (routes.py:440-460 FileResponse
        analog): snapshots are already just parquet+json, tarred for
        transport."""
        p = self.path(name)
        if not os.path.isdir(p):
            raise FileNotFoundError(f"no snapshot named {name!r}")
        tmp = out_path + ".tmp"
        with tarfile.open(tmp, "w:gz") as tar:
            tar.add(p, arcname=name)
        os.replace(tmp, out_path)
        return out_path

    def import_tar(self, tar_path: str) -> str:
        """Upload/import (routes.py:117-130 analog), collision-deduped."""
        with tarfile.open(tar_path, "r:gz") as tar:
            names = {m.name.split("/", 1)[0] for m in tar.getmembers()}
            if len(names) != 1:
                raise ValueError("tar must contain exactly one snapshot dir")
            (name,) = names
            self._check_name(name)
            tmp_root = os.path.join(self.root, ".import_tmp")
            if os.path.exists(tmp_root):
                shutil.rmtree(tmp_root)
            os.makedirs(tmp_root)
            tar.extractall(tmp_root, filter="data")
        final = self.register(name, os.path.join(tmp_root, name), move=True)
        shutil.rmtree(tmp_root, ignore_errors=True)
        return final
