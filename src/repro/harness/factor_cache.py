"""Content-addressed cache of distributed factorizations (``FactorCache``).

The result store caches experiment *rows*; this cache holds the expensive
part of the solve pipeline itself, the ``O(n^3)`` distributed factorization.
Both follow the one store policy of :mod:`repro.harness.store` (content key,
schema, root lookup, atomic write, single-flight fetch, a file that does not
decode is a miss, listings of loadable artifacts, ``purge`` over every
artifact file); only the format and the LRU cap live here.  A factor's key
hashes everything that determines its bits: the matrix (generator ``kind``,
``n``, ``seed``), the grid shape, the block size, ``pivoting``, ``matmul``
and the constant engine and kernel-tier entries, so a factor produced by
CALU_PRRP or by the Strassen update is never served to a plain CALU request.

Artifacts are ``factor-<key16>.npz`` files (packed factors, permuted matrix,
pivot sequence and a JSON ``meta`` record) under ``factors/`` or
``REPRO_FACTOR_CACHE_DIR``, the factor's only global form: a save gathers
its block-cyclic pieces and a load scatters them once.  The LRU cap
(``REPRO_FACTOR_CACHE_MAX_BYTES`` or ``max_bytes``) counts every artifact
file: hits refresh recency, and writes evict the least recently used files
until the cache fits.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.options import SolveConfig
from ..layouts.block_cyclic import BlockCyclic2D
from ..layouts.grid import ProcessGrid
from ..parallel.factor import FactoredMatrix, pcalu_factor
from .store import (
    KEYED_ENGINE, KEYED_KERNEL_TIER, SCHEMA_VERSION, checked, content_key,
    delete_files, read_artifact, single_flight, stat_files, store_root,
    write_atomic,
)

#: Environment variable relocating the factor cache.
ENV_VAR = "REPRO_FACTOR_CACHE_DIR"

#: Environment variable capping the cache size in bytes (LRU eviction).
ENV_MAX_BYTES = "REPRO_FACTOR_CACHE_MAX_BYTES"

#: Default artifact directory when neither an explicit root nor the
#: environment variable is given.
DEFAULT_ROOT = "factors"


def generate_matrix(kind: str, n: int, seed: int = 0) -> np.ndarray:
    """Instantiate the matrix a factor key describes.

    ``kind`` names one of :data:`repro.randmat.generators.KINDS`.
    """
    from ..randmat.generators import square_matrix

    return np.asarray(square_matrix(kind, n, seed=seed), dtype=np.float64)


def factor_key(kind: str, n: int, seed: int, nprow: int, npcol: int,
               block_size: int, pivoting: str, matmul: str = "summa") -> str:
    """SHA-256 content address of one factorization (hex digest)."""
    return content_key({
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
    })


#: The factor fields its ``.npz`` meta records after schema, key, kind, seed.
_META_FIELDS = ("n", "block_size", "nprow", "npcol", "pivoting", "matmul")


def _read_meta(path: Path) -> Dict[str, object]:
    with np.load(path, allow_pickle=False) as data:
        return checked(json.loads(str(data["meta"])))


def _read_factor(path: Path, key: str) -> FactoredMatrix:
    with np.load(path, allow_pickle=False) as data:
        meta = checked(json.loads(str(data["meta"])))
        if meta["key"] != key:
            raise ValueError(f"{path} holds another key")
        n, b, pr, pc = (int(meta[f]) for f in ("n", "block_size", "nprow", "npcol"))
        dist = BlockCyclic2D(n, n, b, ProcessGrid(pr, pc))
        return FactoredMatrix(
            n=n, block_size=b, nprow=pr, npcol=pc,
            pivoting=str(meta["pivoting"]),
            lu=dist.scatter(np.asarray(data["packed"], dtype=np.float64)),
            pa=dist.scatter(np.asarray(data["permuted"], dtype=np.float64)),
            perm=np.asarray(data["perm"], dtype=np.int64),
            matmul=str(meta.get("matmul", "summa")),
            key=key,
        )


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

    def __init__(self, root: Optional[os.PathLike] = None, max_bytes: Optional[int] = None):
        self.root = store_root(root, ENV_VAR, DEFAULT_ROOT)
        if max_bytes is None:
            env = os.environ.get(ENV_MAX_BYTES)
            max_bytes = int(env) if env else None
        self.max_bytes = max_bytes

    # ------------------------------------------------------------- addressing
    def path_for(self, key: str) -> Path:
        return self.root / f"factor-{key[:16]}.npz"

    # -------------------------------------------------------------- load/save
    def load(self, key: str) -> Optional[FactoredMatrix]:
        """Load a cached factor by key, or ``None`` when it is not loadable.

        A hit refreshes the artifact's mtime, which is what the LRU
        eviction orders by.
        """
        path = self.path_for(key)
        factor = read_artifact(path, lambda p: _read_factor(p, key))
        if factor is not None:
            with contextlib.suppress(OSError):
                os.utime(path)
        return factor

    def save(self, factor: FactoredMatrix, key: str, kind: str = "explicit",
             seed: Optional[int] = None) -> Path:
        """Atomically persist a factor under its content address (its pieces gathered)."""
        meta = {"schema": SCHEMA_VERSION, "key": key, "kind": kind, "seed": seed,
                **{f: getattr(factor, f) for f in _META_FIELDS}}
        path = write_atomic(self.path_for(key), lambda fh: np.savez(
            fh,
            meta=np.array(json.dumps(meta)),
            packed=factor.dist.gather(factor.lu),
            permuted=factor.dist.gather(factor.pa),
            perm=factor.perm,
        ))
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

        def compute() -> FactoredMatrix:
            A = generate_matrix(kind, n, seed=seed)
            factor = pcalu_factor(A, config.replace(grid=grid, b=block_size))
            factor.key = key
            if use_cache:
                self.save(factor, key, kind=kind, seed=seed)
            return factor

        factor, cached = single_flight(self, key, lambda: self.load(key), compute,
                                       use_cache=use_cache, force=force)
        return FactorFetch(factor=factor, cached=cached, path=self.path_for(key))

    # -------------------------------------------------------------- reporting
    def files(self) -> List[Tuple[Path, os.stat_result]]:
        """``(path, stat)`` of every artifact file, loadable or not."""
        return stat_files(self.root.glob("factor-*.npz"))

    def entries(self) -> List[Dict[str, object]]:
        """Metadata of every loadable factor, most recently used first."""
        found = []
        for path, st in self.files():
            meta = read_artifact(path, _read_meta)
            if meta is not None:
                found.append({**meta, "bytes": st.st_size, "mtime": st.st_mtime,
                              "path": str(path)})
        found.sort(key=lambda m: m["mtime"], reverse=True)
        return found

    def count(self) -> int:
        return len(self.entries())

    def total_bytes(self) -> int:
        return sum(int(e["bytes"]) for e in self.entries())

    def purge(self) -> int:
        """Delete every artifact file, loadable or not; returns the number removed."""
        return delete_files(self.files())

    # --------------------------------------------------------------- eviction
    def _enforce_cap(self, keep: Optional[Path] = None) -> None:
        """Evict least-recently-used artifact files until under ``max_bytes``.

        Every artifact file counts, loadable or not.  The just-written
        artifact (``keep``) is never evicted, so a single oversized factor
        still caches (the cap then holds for everything else).
        """
        if self.max_bytes is None:
            return
        files = sorted(self.files(), key=lambda f: f[1].st_mtime)  # LRU first
        total = sum(st.st_size for _, st in files)
        for path, st in files:
            if total <= self.max_bytes:
                break
            if path != keep:
                path.unlink(missing_ok=True)
                total -= st.st_size
