"""Content-addressed artifact stores: the one store policy and the result store.

:class:`ResultStore` keeps experiment rows as JSON under
``results/<spec>/<spec>-<key12>.json``; :class:`~repro.harness.factor_cache.
FactorCache` keeps factorizations as ``.npz`` under ``factors/``.  Both follow
one policy, implemented once by the helpers below; only the file formats and
the factor cache's LRU cap are store-specific:

* the address is the SHA-256 of the canonical JSON of what determines the
  artifact (:func:`content_key`), and every file records :data:`SCHEMA_VERSION`;
* the root is the explicit argument, else the store's environment variable
  (``REPRO_RESULTS_DIR``, ``REPRO_FACTOR_CACHE_DIR``), else its default;
* writes go to a per-writer temp file no listing glob matches, then are
  renamed into place (:func:`write_atomic`);
* fetches are single-flight per ``(store, root, key)`` (:func:`single_flight`);
* a file that fails to decode in any way — truncated, another format, another
  schema — is a miss (:func:`read_artifact`), and the recompute overwrites it;
* listings (``entries``, ``count``, ``artifacts``) show loadable artifacts,
  while ``purge`` and the LRU cap act on every artifact file, loadable or not.

A result's context key hashes the spec, its resolved parameters, pivoting,
matmul and constant engine and kernel-tier entries; ``--force`` recomputes in
place.  JSON round-trips Python floats exactly, so cached rows are bit-for-bit
the rows the runner produced.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, TypeVar

from ..core.options import KNOBS, SolveConfig
from .spec import ExperimentSpec, Rows, jsonify

T = TypeVar("T")

#: Environment variable relocating the artifact store.
ENV_VAR = "REPRO_RESULTS_DIR"

#: Default artifact directory when neither an explicit root nor the
#: environment variable is given.
DEFAULT_ROOT = "results"

#: Artifact schema version of both stores (bumped on incompatible changes).
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

#: Process-wide per-key locks making cached fetches single-flight.
_KEY_LOCKS: Dict[object, threading.Lock] = {}
_KEY_LOCKS_GUARD = threading.Lock()


def key_lock(key: object) -> threading.Lock:
    """The process-wide lock serializing computation of one cache key."""
    with _KEY_LOCKS_GUARD:
        lock = _KEY_LOCKS.get(key)
        if lock is None:
            lock = _KEY_LOCKS[key] = threading.Lock()
        return lock


# ----------------------------------------------------------- the store policy
def content_key(fields: Mapping[str, object]) -> str:
    """SHA-256 hex digest of the canonical JSON of ``fields``."""
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def store_root(root: Optional[os.PathLike], env_var: str, default: str) -> Path:
    """The explicit ``root``, else ``$env_var``, else ``default``."""
    return Path(root or os.environ.get(env_var) or default)


def write_atomic(path: Path, write: Callable[[BinaryIO], None]) -> Path:
    """Write ``path`` through ``write(fh)`` under a temp name, then rename.

    The temp name, ``.<name>.<pid>.<thread>.tmp``, is unique per writer and
    matches no listing glob, so a writer killed mid-write leaves a file that
    no load, listing, purge or cap ever opens.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_json(path: Path) -> object:
    """The JSON document stored at ``path``."""
    return json.loads(path.read_bytes())


def checked(meta: object) -> Dict[str, object]:
    """``meta`` when it is an artifact record of this schema, else ValueError."""
    if not isinstance(meta, dict) or meta.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"not a schema-{SCHEMA_VERSION} artifact")
    return meta


def read_artifact(path: Path, decode: Callable[[Path], T]) -> Optional[T]:
    """``decode(path)``, or ``None`` — a miss — when decoding fails at all."""
    try:
        return decode(path)
    except Exception:  # absent, truncated, another format or another schema
        return None


def single_flight(store, key: str, load: Callable[[], Optional[T]],
                  compute: Callable[[], T], use_cache: bool = True,
                  force: bool = False) -> Tuple[T, bool]:
    """``(value, cached)``: a stored hit, or ``compute()`` once per key.

    Double-checked: a hit returns without locking; a miss takes the lock of
    ``(store class, store root, key)`` and loads again, so a thread that
    waited on another's compute is served the artifact it stored.
    ``force`` skips both loads; ``use_cache=False`` also skips the lock.
    """
    if use_cache and not force:
        hit = load()
        if hit is not None:
            return hit, True
    if not use_cache:
        return compute(), False
    with key_lock((type(store).__name__, str(store.root), key)):
        hit = None if force else load()
        return (hit, True) if hit is not None else (compute(), False)


def stat_files(paths: Iterable[Path]) -> List[Tuple[Path, os.stat_result]]:
    """``(path, stat)`` per path, sorted; a file deleted meanwhile is skipped."""
    found = []
    for path in sorted(paths):
        with contextlib.suppress(OSError):
            found.append((path, path.stat()))
    return found


def delete_files(files: Iterable[Tuple[Path, os.stat_result]]) -> int:
    """Unlink every listed file; returns the number this call removed."""
    removed = 0
    for path, _ in files:
        with contextlib.suppress(FileNotFoundError):
            path.unlink()
            removed += 1
    return removed


# --------------------------------------------------------------- result store
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
    return content_key({
        "spec": spec_name,
        "params": jsonify(dict(params)),
        "kernel_tier": KEYED_KERNEL_TIER,
        "engine": KEYED_ENGINE,
        "pivoting": pivoting,
        "matmul": matmul,
    })


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
        self.root = store_root(root, ENV_VAR, DEFAULT_ROOT)

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
        """Load an artifact, or None when it is not a loadable artifact."""
        return read_artifact(path, lambda p: checked(read_json(p)))

    def save(self, artifact: Dict[str, object]) -> Path:
        """Atomically write an artifact to its content address."""
        text = json.dumps(artifact, indent=1) + "\n"
        return write_atomic(self.path_for(artifact["spec"], artifact["key"]),
                            lambda fh: fh.write(text.encode("utf-8")))

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
        store entirely (nothing read, nothing written).  Single-flight per
        context key: concurrent calls run the spec once, the others are
        served the stored artifact as cache hits.
        """
        params, config, key = self.run_config(spec, overrides, quick=quick)
        path = self.path_for(spec.name, key)
        artifact, cached = single_flight(
            self, key, lambda: self.load(path),
            lambda: self._run(spec, overrides, quick, use_cache, params, config, key),
            use_cache=use_cache, force=force,
        )
        return FetchResult(artifact=artifact, cached=cached, path=path)

    def _run(self, spec, overrides, quick, use_cache, params, config, key):
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
        return artifact

    # -------------------------------------------------------------- reporting
    def files(self, spec_name: Optional[str] = None) -> List[Tuple[Path, os.stat_result]]:
        """``(path, stat)`` of every artifact file (or one spec's), loadable or not."""
        return stat_files(self.root.glob(f"{spec_name or '*'}/*.json"))

    def _loadable(self, spec_name: Optional[str] = None):
        """``(path, stat, artifact)`` of every loadable artifact."""
        found = ((path, st, self.load(path)) for path, st in self.files(spec_name))
        return [entry for entry in found if entry[2] is not None]

    def artifacts(self, spec_name: Optional[str] = None) -> List[Dict[str, object]]:
        """All stored artifacts (optionally for one spec), newest first."""
        found = sorted(self._loadable(spec_name), key=lambda e: e[1].st_mtime, reverse=True)
        return [artifact for _, _, artifact in found]

    def count(self, spec_name: str) -> int:
        """Number of loadable artifacts for one spec."""
        return len(self._loadable(spec_name))

    def entries(self) -> List[Dict[str, object]]:
        """Loadable-artifact count and bytes of every spec holding any, by name."""
        sizes: Dict[str, List[int]] = {}
        for path, st, _ in self._loadable():
            sizes.setdefault(path.parent.name, []).append(st.st_size)
        return [{"spec": s, "artifacts": len(b), "bytes": sum(b)} for s, b in sizes.items()]

    def purge(self) -> int:
        """Delete every artifact file, loadable or not; returns the number removed."""
        return delete_files(self.files())
