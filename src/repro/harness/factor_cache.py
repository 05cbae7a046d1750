"""Content-addressed cache of distributed factorizations (``FactorCache``).

The result store (:mod:`repro.harness.store`) caches experiment *rows*; this
module applies the same content-addressing discipline to the expensive part
of the solve pipeline itself: the ``O(n^3)`` distributed factorization.  A
factor's identity is the SHA-256 of everything that determines its bits —

* the matrix spec: generator ``kind`` (a :mod:`repro.randmat` family), size
  ``n`` and ``seed``;
* the run configuration: grid shape ``Pr x Pc``, block size ``b``, and the
  resolved ``pivoting`` strategy and ``matmul`` backend (keyed, with the
  constant engine and kernel-tier entries, exactly like the result store
  keys them: a factor
  produced by CALU_PRRP — or by the Strassen trailing update — must never be
  served to a plain CALU request).

Artifacts are ``.npz`` files (packed factors + permuted matrix + pivot
sequence + a JSON metadata record) under ``factors/`` — relocatable via
``REPRO_FACTOR_CACHE_DIR`` — with an LRU size cap
(``REPRO_FACTOR_CACHE_MAX_BYTES`` or the ``max_bytes`` argument): cache hits
refresh an artifact's recency, and writes evict the least-recently-used
artifacts once the cap is exceeded.

:meth:`FactorCache.fetch_or_factor` is single-flight per key, like
:meth:`repro.harness.store.ResultStore.fetch_or_run`: concurrent requests
for the same factor compute it once.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..core.options import SolveConfig
from ..layouts.grid import ProcessGrid
from ..parallel.factor import FactoredMatrix, pcalu_factor
from .store import ENV_VAR as RESULTS_ENV_VAR  # noqa: F401  (doc cross-ref)
from .store import KEYED_ENGINE, KEYED_KERNEL_TIER, key_lock

#: Environment variable relocating the factor cache (consistent with
#: ``REPRO_RESULTS_DIR`` for the result store).
ENV_VAR = "REPRO_FACTOR_CACHE_DIR"

#: Environment variable capping the cache size in bytes (LRU eviction).
ENV_MAX_BYTES = "REPRO_FACTOR_CACHE_MAX_BYTES"

#: Default artifact directory when neither an explicit root nor the
#: environment variable is given.
DEFAULT_ROOT = "factors"

#: Artifact schema version (bumped on incompatible layout changes).
SCHEMA_VERSION = 1


def generate_matrix(kind: str, n: int, seed: int = 0) -> np.ndarray:
    """Instantiate the matrix a factor key describes.

    ``kind`` names one of :data:`repro.randmat.generators.KINDS`.
    """
    from ..randmat.generators import square_matrix

    return np.asarray(square_matrix(kind, n, seed=seed), dtype=np.float64)


def factor_key(
    kind: str,
    n: int,
    seed: int,
    nprow: int,
    npcol: int,
    block_size: int,
    pivoting: str,
    matmul: str = "summa",
) -> str:
    """SHA-256 content address of one factorization (hex digest)."""
    canonical = json.dumps(
        {
            "kind": kind,
            "n": int(n),
            "seed": int(seed),
            "nprow": int(nprow),
            "npcol": int(npcol),
            "block_size": int(block_size),
            "pivoting": pivoting,
            "kernel_tier": KEYED_KERNEL_TIER,
            "engine": KEYED_ENGINE,
            "matmul": matmul,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class FactorFetch:
    """Outcome of :meth:`FactorCache.fetch_or_factor`."""

    factor: FactoredMatrix
    cached: bool
    path: Path

    @property
    def key(self) -> str:
        return self.factor.key or ""


class FactorCache:
    """LRU-capped, content-addressed store of :class:`FactoredMatrix` artifacts."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
    ):
        self.root = Path(root or os.environ.get(ENV_VAR) or DEFAULT_ROOT)
        if max_bytes is None:
            env = os.environ.get(ENV_MAX_BYTES)
            max_bytes = int(env) if env else None
        self.max_bytes = max_bytes

    # ------------------------------------------------------------- addressing
    def path_for(self, key: str) -> Path:
        return self.root / f"factor-{key[:16]}.npz"

    # -------------------------------------------------------------- load/save
    def load(self, key: str) -> Optional[FactoredMatrix]:
        """Load a cached factor by key, or ``None`` when absent/unreadable.

        A hit refreshes the artifact's mtime, which is what the LRU
        eviction orders by.
        """
        path = self.path_for(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                if meta.get("schema") != SCHEMA_VERSION or meta.get("key") != key:
                    return None
                factor = FactoredMatrix(
                    n=int(meta["n"]),
                    block_size=int(meta["block_size"]),
                    nprow=int(meta["nprow"]),
                    npcol=int(meta["npcol"]),
                    pivoting=str(meta["pivoting"]),
                    packed=np.asarray(data["packed"], dtype=np.float64),
                    permuted=np.asarray(data["permuted"], dtype=np.float64),
                    perm=np.asarray(data["perm"], dtype=np.int64),
                    matmul=str(meta.get("matmul", "summa")),
                    key=key,
                )
        except (OSError, KeyError, ValueError):
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        return factor

    def save(
        self,
        factor: FactoredMatrix,
        key: str,
        kind: str = "explicit",
        seed: Optional[int] = None,
    ) -> Path:
        """Atomically persist a factor under its content address."""
        meta = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "kind": kind,
            "seed": seed,
            "n": factor.n,
            "block_size": factor.block_size,
            "nprow": factor.nprow,
            "npcol": factor.npcol,
            "pivoting": factor.pivoting,
            "matmul": factor.matmul,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique per writer: concurrent processes may race on the same key.
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}.npz")
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                meta=np.array(json.dumps(meta)),
                packed=factor.packed,
                permuted=factor.permuted,
                perm=factor.perm,
            )
        os.replace(tmp, path)
        factor.key = key
        self._enforce_cap(keep=path)
        return path

    # ------------------------------------------------------------------- runs
    def fetch_or_factor(
        self,
        kind: str = "randn",
        n: int = 96,
        seed: int = 0,
        config: Optional[SolveConfig] = None,
        *,
        use_cache: bool = True,
        force: bool = False,
    ) -> FactorFetch:
        """Serve a factorization from the cache, or compute and store it.

        ``config`` is the :class:`~repro.core.options.SolveConfig` of the
        factorization (``None``: every knob at its default); an unset
        ``grid`` means ``P = 4`` on the paper's near-square grid and an unset
        ``b`` means 16.  The content key is computed from the config's
        resolved knobs.  Single-flight per key: two concurrent calls with the
        same key factor once.
        """
        config = config or SolveConfig.resolve()
        grid = config.process_grid() or ProcessGrid.default_for(4)
        block_size = 16 if config.b is None else config.b
        key = factor_key(
            kind, n, seed, grid.nprow, grid.npcol, block_size, config.pivoting,
            matmul=config.matmul,
        )
        path = self.path_for(key)

        with key_lock(("factor", str(self.root), key)):
            if use_cache and not force:
                factor = self.load(key)
                if factor is not None:
                    return FactorFetch(factor=factor, cached=True, path=path)
            A = generate_matrix(kind, n, seed=seed)
            factor = pcalu_factor(A, config.replace(grid=grid, b=block_size))
            factor.key = key
            if use_cache:
                self.save(factor, key, kind=kind, seed=seed)
            return FactorFetch(factor=factor, cached=False, path=path)

    # -------------------------------------------------------------- reporting
    def entries(self) -> List[Dict[str, object]]:
        """Metadata of every cached factor, most recently used first."""
        if not self.root.is_dir():
            return []
        found = []
        for path in sorted(self.root.glob("factor-*.npz")):
            try:
                stat = path.stat()
                with np.load(path, allow_pickle=False) as data:
                    meta = json.loads(str(data["meta"]))
            except (OSError, KeyError, ValueError):
                continue
            if meta.get("schema") != SCHEMA_VERSION:
                continue
            meta["bytes"] = stat.st_size
            meta["mtime"] = stat.st_mtime
            meta["path"] = str(path)
            found.append(meta)
        found.sort(key=lambda m: m["mtime"], reverse=True)
        return found

    def count(self) -> int:
        return len(self.entries())

    def total_bytes(self) -> int:
        return sum(int(e["bytes"]) for e in self.entries())

    def purge(self) -> int:
        """Delete every cached factor; returns the number removed."""
        removed = 0
        for entry in self.entries():
            try:
                os.unlink(entry["path"])
                removed += 1
            except OSError:
                pass
        return removed

    # --------------------------------------------------------------- eviction
    def _enforce_cap(self, keep: Optional[Path] = None) -> None:
        """Evict least-recently-used artifacts until under ``max_bytes``.

        The just-written artifact (``keep``) is never evicted, so a single
        oversized factor still caches (the cap then holds for everything
        else).
        """
        if self.max_bytes is None:
            return
        entries = self.entries()  # most recently used first
        total = sum(int(e["bytes"]) for e in entries)
        for entry in reversed(entries):  # least recently used first
            if total <= self.max_bytes:
                break
            if keep is not None and Path(entry["path"]) == keep:
                continue
            try:
                os.unlink(entry["path"])
                total -= int(entry["bytes"])
            except OSError:
                pass
