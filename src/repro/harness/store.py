"""Content-addressed result store for experiment artifacts.

Each run of a registered spec is identified by the SHA-256 of its *context*:
the spec name, the fully resolved parameters, the resolved pivoting strategy,
the resolved distributed-matmul backend, and constant engine and kernel-tier
entries.  The
artifact — rows plus metadata — is written as JSON under
``results/<spec>/<spec>-<key12>.json`` (relocatable via the
``REPRO_RESULTS_DIR`` environment variable or an explicit root), so a re-run with the same context is a cache hit that loads
bit-identical rows, and ``--force`` recomputes in place.

JSON round-trips Python floats exactly (shortest-repr), so cached rows are
bit-for-bit the rows the runner produced; the test suite enforces this.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.options import KNOBS, SolveConfig
from .spec import ExperimentSpec, Rows, jsonify

#: Environment variable relocating the artifact store (consistent with
#: ``REPRO_FACTOR_CACHE_DIR`` for the factor cache).
ENV_VAR = "REPRO_RESULTS_DIR"

#: Default artifact directory when neither an explicit root nor the
#: environment variable is given.
DEFAULT_ROOT = "results"

#: Artifact schema version (bumped on incompatible layout changes).
SCHEMA_VERSION = 1

#: The ``kernel_tier`` entry of every context and factor key.  Kernels pick
#: their own code path and nothing configures a tier; keying the value every
#: default key has recorded keeps existing keys — and the artifacts stored
#: under them — valid.
KEYED_KERNEL_TIER = "lapack"

#: The ``engine`` entry of every context and factor key, and of every stored
#: artifact.  The simulator has one scheduler and nothing configures it; this
#: is the name every key has recorded, so existing keys stay valid.
KEYED_ENGINE = "coroutine"

#: Process-wide per-key locks making cached runs single-flight: two
#: concurrent fetches of the same context key compute once — the second
#: waits and is then served the artifact the first one stored.  Keyed by
#: (store root, context key) so distinct stores never contend.
_KEY_LOCKS: Dict[object, threading.Lock] = {}
_KEY_LOCKS_GUARD = threading.Lock()


def key_lock(key: object) -> threading.Lock:
    """The process-wide lock serializing computation of one cache key."""
    with _KEY_LOCKS_GUARD:
        lock = _KEY_LOCKS.get(key)
        if lock is None:
            lock = _KEY_LOCKS[key] = threading.Lock()
        return lock


def context_key(
    spec_name: str,
    params: Mapping[str, object],
    pivoting: str = "ca",
    matmul: str = "summa",
) -> str:
    """SHA-256 content address of one run context (hex digest).

    ``pivoting`` and ``matmul`` are part of the context because those knobs
    (``--pivoting``, ``--matmul``) change what every CALU-driven runner
    computes — two runs that differ only in pivoting or in the
    distributed-matmul backend must never share an artifact.
    """
    canonical = json.dumps(
        {
            "spec": spec_name,
            "params": jsonify(dict(params)),
            "kernel_tier": KEYED_KERNEL_TIER,
            "engine": KEYED_ENGINE,
            "pivoting": pivoting,
            "matmul": matmul,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class FetchResult:
    """Outcome of :meth:`ResultStore.fetch_or_run`."""

    artifact: Dict[str, object]
    cached: bool
    path: Path

    @property
    def rows(self) -> Rows:
        return self.artifact["rows"]


class ResultStore:
    """Content-addressed JSON artifact store under a ``results/`` root."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root or os.environ.get(ENV_VAR) or DEFAULT_ROOT)

    # ------------------------------------------------------------- addressing
    def path_for(self, spec_name: str, key: str) -> Path:
        return self.root / spec_name / f"{spec_name}-{key[:12]}.json"

    def run_config(
        self,
        spec: ExperimentSpec,
        overrides: Optional[Mapping[str, object]] = None,
        quick: bool = False,
    ) -> Tuple[Dict[str, object], SolveConfig, str]:
        """Resolve one run to ``(params, SolveConfig, context key)``.

        A knob the spec takes as a parameter (``pivoting``, ``matmul``) is
        passed straight to its runner, so that value is what the run uses and
        what gets keyed and recorded; a knob the spec does not take is keyed
        and recorded at its default.  Knob values (and a spec's ``engine``)
        are validated here: a stale name fails before any lookup.
        """
        params = spec.resolve_params(overrides, quick=quick)
        config = SolveConfig.resolve(**{k: str(params[k]) for k in KNOBS if k in params})
        return params, config, context_key(
            spec.name, params, config.pivoting, config.matmul
        )

    # -------------------------------------------------------------- load/save
    def load(self, path: Path) -> Optional[Dict[str, object]]:
        """Load an artifact, or None when absent/unreadable."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                artifact = json.load(fh)
        except (OSError, ValueError):
            return None
        if artifact.get("schema") != SCHEMA_VERSION:
            return None
        return artifact

    def save(self, artifact: Dict[str, object]) -> Path:
        """Atomically write an artifact to its content address."""
        path = self.path_for(artifact["spec"], artifact["key"])
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique per writer: two sweep threads may race on the same key.
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------- runs
    def fetch_or_run(
        self,
        spec: ExperimentSpec,
        overrides: Optional[Mapping[str, object]] = None,
        quick: bool = False,
        force: bool = False,
        use_cache: bool = True,
    ) -> FetchResult:
        """Serve a run from the cache, or execute it and store the artifact.

        ``force`` recomputes and overwrites; ``use_cache=False`` bypasses the
        store entirely (nothing read, nothing written).

        Cached runs are single-flight: two concurrent calls with the same
        context key take a per-key lock, so one computes and stores the
        artifact and the other waits, then loads it as a cache hit instead
        of recomputing.
        """
        params, config, key = self.run_config(spec, overrides, quick=quick)
        path = self.path_for(spec.name, key)
        if use_cache and not force:
            artifact = self.load(path)
            if artifact is not None:
                return FetchResult(artifact=artifact, cached=True, path=path)

        if use_cache:
            lock = key_lock((str(self.root), key))
            lock.acquire()
        try:
            if use_cache and not force:
                # Another thread may have computed and stored the artifact
                # while this one waited on the key lock.
                artifact = self.load(path)
                if artifact is not None:
                    return FetchResult(artifact=artifact, cached=True, path=path)
            return self._run_and_store(
                spec, overrides, quick, use_cache, params, config, key, path
            )
        finally:
            if use_cache:
                lock.release()

    def _run_and_store(
        self, spec, overrides, quick, use_cache, params, config, key, path
    ) -> FetchResult:
        start = time.perf_counter()
        rows = spec.run(overrides, quick=quick)
        elapsed = time.perf_counter() - start
        artifact = {
            "schema": SCHEMA_VERSION,
            "spec": spec.name,
            "paper_ref": spec.paper_ref,
            "title": spec.title,
            "key": key,
            "params": jsonify(params),
            "engine": KEYED_ENGINE,
            "pivoting": config.pivoting,
            "matmul": config.matmul,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "elapsed_s": elapsed,
            "n_rows": len(rows),
            "columns": list(spec.columns) if spec.columns else None,
            "rows": rows,
        }
        if use_cache:
            self.save(artifact)
        return FetchResult(artifact=artifact, cached=False, path=path)

    # -------------------------------------------------------------- reporting
    def _spec_paths(self, spec_name: Optional[str] = None) -> List[Tuple[str, List[Path]]]:
        """``(spec, sorted artifact paths)`` per spec directory (or one spec's)."""
        roots = [self.root / spec_name] if spec_name is not None else sorted(self.root.glob("*"))
        return [(d.name, sorted(d.glob("*.json"))) for d in roots if d.is_dir()]

    def artifacts(self, spec_name: Optional[str] = None) -> List[Dict[str, object]]:
        """All stored artifacts (optionally for one spec), newest first."""
        found: List[Tuple[float, Dict[str, object]]] = []
        for _, paths in self._spec_paths(spec_name):
            for path in paths:
                artifact, stat = self.load(path), _stat(path)
                if artifact is not None and stat is not None:
                    found.append((stat.st_mtime, artifact))
        found.sort(key=lambda item: item[0], reverse=True)
        return [artifact for _, artifact in found]

    def count(self, spec_name: str) -> int:
        """Number of cached artifacts for one spec."""
        return sum(len(paths) for _, paths in self._spec_paths(spec_name))

    def entries(self) -> List[Dict[str, object]]:
        """Artifact count and bytes of every spec holding artifacts, by name."""
        sizes = [(spec, [st.st_size for st in map(_stat, paths) if st])
                 for spec, paths in self._spec_paths()]
        return [{"spec": s, "artifacts": len(b), "bytes": sum(b)} for s, b in sizes if b]

    def purge(self) -> int:
        """Delete every stored artifact; returns the number removed."""
        paths = [path for _, group in self._spec_paths() for path in group]
        for path in paths:
            path.unlink(missing_ok=True)
        return len(paths)


def _stat(path: Path) -> Optional[os.stat_result]:
    """``path.stat()``, or ``None`` when another process pruned the store
    mid-listing (the artifact is then skipped, not a crashed listing)."""
    try:
        return path.stat()
    except OSError:
        return None
