"""Hashing utilities: content sha256 invariant, deterministic doc ids, rolling
fingerprints, term merge keys.

- ``content_sha256`` mirrors the reference's url-hash helper
  (utils/__init__.py:25-31, sha256 hexdigest) applied to document content; it is
  the per-row end-to-end invariant required by BASELINE.json's input_hint.
- ``stable_doc_id`` is the scale path for doc-id assignment: a deterministic
  63-bit id from (repo, path, commit) that needs no global sort and is identical
  across runs and parallelism levels (SURVEY.md §7 hard part 2).
- ``rolling_fingerprint`` is a polynomial rolling hash (Karp–Rabin) document
  fingerprint for the text-analysis extras.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MOD = (1 << 61) - 1  # Mersenne prime 2^61-1
_BASE = 1_000_003


def content_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_sha256_batch(texts) -> list:
    return [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]


def stable_doc_id(repo: str, path: str, commit: str) -> int:
    """Deterministic 63-bit doc id from the corpus natural key."""
    h = hashlib.sha256(f"{repo}\x00{path}\x00{commit}".encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def term_shard(term: str, num_keys: int) -> int:
    """Stable merge key of a term, in ``range(num_keys)``: the index build
    co-locates a term's runs and blocks by it."""
    h = hashlib.md5(term.encode("utf-8"), usedforsecurity=False).digest()
    return int.from_bytes(h[:4], "big") % num_keys


def rolling_fingerprint(text: str) -> int:
    """Polynomial rolling hash of the whole text, mod 2^61-1."""
    h = 0
    for ch in text.encode("utf-8"):
        h = (h * _BASE + ch) % _MOD
    return h


def rolling_fingerprint_batch(texts) -> np.ndarray:
    """Per-doc rolling fingerprint via Python big-int Horner fold.

    Evaluates the byte polynomial as one big-int `int.from_bytes`-style fold in
    C (``int(bytes.hex(), 16)`` ≡ base-256 value) then reduces mod 2^61-1 with
    a single modular reduction after rebasing: h(B) ≡ Σ b_i·B^(n-1-i).  Because
    the base here is _BASE (not 256) we keep the straightforward Horner loop —
    fingerprints are a cold analysis path, not the indexing hot path.
    """
    return np.fromiter(
        (rolling_fingerprint(t) for t in texts), dtype=np.int64, count=len(texts)
    )
