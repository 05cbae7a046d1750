"""Tests for the content-addressed distributed factor cache.

The contract under test:

* :func:`repro.harness.factor_key` is injective over every knob that
  changes the factorization's bits (kind, n, seed, grid shape, block size,
  pivoting, matmul backend);
* a miss factors and persists, a hit round-trips the arrays bit-for-bit
  and never re-factors;
* ``REPRO_FACTOR_CACHE_DIR`` relocates the store and
  ``REPRO_FACTOR_CACHE_MAX_BYTES`` / ``max_bytes`` drives LRU eviction
  where hits refresh recency;
* :meth:`FactorCache.fetch_or_factor` is single-flight: concurrent
  requests for one key factor exactly once;
* a cached factor solves bit-identically to a cold ``pdgesv``.
"""

from __future__ import annotations

import itertools
import json
import threading

import numpy as np
import pytest

from repro.core.options import SolveConfig
from repro.harness import FactorCache, factor_key, generate_matrix
from repro.harness.factor_cache import ENV_MAX_BYTES, ENV_VAR
from repro.parallel import pdgesv, pdgesv_solve


def _cache(tmp_path, **kw):
    return FactorCache(root=tmp_path / "factors", **kw)


def p4() -> SolveConfig:
    """P = 4 (a 2 x 2 grid), b = 8, the unit machine."""
    return SolveConfig.resolve(grid=4, b=8)


def identity(factor):
    """The metadata that names a factor: its knobs, grid shape and block size."""
    return (factor.pivoting, factor.matmul, factor.nprow, factor.npcol, factor.block_size)


# --------------------------------------------------------------------- keying
def test_factor_key_distinct_across_every_knob():
    base = dict(
        kind="randn", n=64, seed=0, nprow=2, npcol=2, block_size=8,
        pivoting="ca",
    )
    variants = [
        {"kind": "uniform"}, {"n": 96}, {"seed": 1}, {"nprow": 4},
        {"npcol": 1}, {"block_size": 16}, {"pivoting": "pp"},
        {"pivoting": "ca_prrp"},
        {"matmul": "caps"},
    ]
    keys = [factor_key(**base)] + [factor_key(**{**base, **v}) for v in variants]
    assert len(set(keys)) == len(keys)
    # Stable across calls (pure content address).
    assert factor_key(**base) == keys[0]


def test_generate_matrix_kinds_and_unknown_kind():
    for kind in ("randn", "uniform", "toeplitz", "diagonally_dominant"):
        A = generate_matrix(kind, 16, seed=3)
        assert A.shape == (16, 16) and A.dtype == np.float64
        assert np.array_equal(A, generate_matrix(kind, 16, seed=3))
    with pytest.raises(ValueError, match="unknown matrix kind"):
        generate_matrix("hilbert", 16)


# --------------------------------------------------------------- miss-then-hit
def test_fetch_or_factor_miss_then_hit_round_trips_bits(tmp_path):
    cache = _cache(tmp_path)
    kw = dict(kind="randn", n=48, seed=7, config=p4())
    miss = cache.fetch_or_factor(**kw)
    assert not miss.cached
    assert miss.path.is_file()
    assert miss.factor.key == miss.key

    hit = cache.fetch_or_factor(**kw)
    assert hit.cached
    assert hit.key == miss.key
    assert np.array_equal(hit.factor.packed, miss.factor.packed)
    assert np.array_equal(hit.factor.permuted, miss.factor.permuted)
    assert np.array_equal(hit.factor.perm, miss.factor.perm)
    for attr in ("n", "block_size", "nprow", "npcol", "pivoting", "matmul"):
        assert getattr(hit.factor, attr) == getattr(miss.factor, attr)
    # The cached artifact carries no in-process factorization trace.
    assert hit.factor.source is None and miss.factor.source is not None


def test_factor_recording_an_engine_still_loads(tmp_path):
    """Factors written before the engine stopped being a knob carry an
    ``engine`` in their metadata, even one no longer accepted; the loader
    ignores it and serves the factor under its unchanged key."""
    cache = _cache(tmp_path)
    miss = cache.fetch_or_factor(kind="randn", n=32, seed=2, config=p4())
    with np.load(miss.path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays["meta"]))
    assert "engine" not in meta
    arrays["meta"] = np.array(json.dumps({**meta, "engine": "event"}))
    with open(miss.path, "wb") as fh:
        np.savez(fh, **arrays)

    hit = cache.fetch_or_factor(kind="randn", n=32, seed=2, config=p4())
    assert hit.cached and hit.key == miss.key
    assert np.array_equal(hit.factor.packed, miss.factor.packed)
    assert identity(hit.factor) == identity(miss.factor)


def test_cached_factor_solves_bit_identical_to_cold_pdgesv(tmp_path):
    cache = _cache(tmp_path)
    kw = dict(kind="randn", n=48, seed=7, config=p4())
    cache.fetch_or_factor(**kw)          # populate
    hit = cache.fetch_or_factor(**kw)    # disk round-trip
    assert hit.cached

    A = generate_matrix("randn", 48, seed=7)
    rng = np.random.default_rng(0)
    b = A @ rng.standard_normal(48)
    cold = pdgesv(A, b, p4())
    warm = pdgesv_solve(hit.factor, b, p4())
    assert np.array_equal(cold.x, warm.x)
    assert cold.residual_norms == warm.residual_norms
    assert cold.backward_errors == warm.backward_errors


def test_force_recomputes_and_use_cache_false_bypasses_store(tmp_path):
    cache = _cache(tmp_path)
    kw = dict(kind="randn", n=32, seed=1, config=p4())
    first = cache.fetch_or_factor(**kw)
    forced = cache.fetch_or_factor(force=True, **kw)
    assert not forced.cached
    assert np.array_equal(first.factor.packed, forced.factor.packed)

    bypass_root = tmp_path / "empty"
    bypass = FactorCache(root=bypass_root)
    res = bypass.fetch_or_factor(use_cache=False, **kw)
    assert not res.cached
    assert not bypass_root.exists()


def test_env_var_relocates_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "relocated"))
    cache = FactorCache()
    assert cache.root == tmp_path / "relocated"
    cache.fetch_or_factor(kind="randn", n=32, seed=0, config=p4())
    assert cache.count() == 1
    assert (tmp_path / "relocated").is_dir()


# ----------------------------------------------------------------- LRU capping
def test_lru_cap_evicts_least_recently_used(tmp_path, monkeypatch):
    cache = _cache(tmp_path)
    kws = [
        dict(kind="randn", n=32, seed=s, config=p4())
        for s in (0, 1, 2)
    ]
    fetches = [cache.fetch_or_factor(**kw) for kw in kws]
    sizes = [f.path.stat().st_size for f in fetches]
    assert cache.count() == 3

    # Refresh seed 0's recency (hit), then cap to ~2 artifacts: the LRU
    # artifact (seed 1) must be evicted, seeds 0 and 2 survive.
    # Artifacts share one (n, b) so sizes are near-identical.
    now = [1000.0, 2000.0, 3000.0]
    import os
    for f, t in zip(fetches, now):
        os.utime(f.path, (t, t))
    os.utime(fetches[0].path, (4000.0, 4000.0))  # seed 0 now MRU
    capped = FactorCache(root=cache.root, max_bytes=sum(sizes[:2]))
    capped._enforce_cap()
    keys = {e["seed"] for e in capped.entries()}
    assert keys == {0, 2}


def test_save_never_evicts_the_just_written_artifact(tmp_path):
    cache = _cache(tmp_path)
    fetch = cache.fetch_or_factor(kind="randn", n=32, seed=0, config=p4())
    tiny = FactorCache(root=cache.root, max_bytes=1)  # below any artifact
    tiny.save(fetch.factor, fetch.key, kind="randn", seed=0)
    assert tiny.count() == 1  # the write survives; the cap holds for others


def test_max_bytes_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_MAX_BYTES, "12345")
    cache = _cache(tmp_path)
    assert cache.max_bytes == 12345
    monkeypatch.delenv(ENV_MAX_BYTES)
    assert _cache(tmp_path).max_bytes is None


# ------------------------------------------------------------------ reporting
def test_entries_count_bytes_purge(tmp_path):
    cache = _cache(tmp_path)
    for s in (0, 1):
        cache.fetch_or_factor(kind="randn", n=32, seed=s, config=p4())
    entries = cache.entries()
    assert len(entries) == cache.count() == 2
    assert cache.total_bytes() == sum(int(e["bytes"]) for e in entries)
    assert all(e["kind"] == "randn" and e["n"] == 32 for e in entries)
    # MRU first.
    assert entries[0]["mtime"] >= entries[1]["mtime"]
    assert cache.purge() == 2
    assert cache.count() == 0 and cache.total_bytes() == 0


def _truncate(cut):
    def corrupt(path):
        data = path.read_bytes()
        path.write_bytes(data[:cut(len(data))])
    return corrupt


def _restamp_schema(path, schema=0):
    """Rewrite a factor file with its ``meta`` claiming another schema."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays["meta"]))
    arrays["meta"] = np.array(json.dumps({**meta, "schema": schema}))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


#: Ways a factor file goes bad.  A cut ``.npz`` raises ``BadZipFile``, not a
#: ``ValueError``; the n = 32 factor below is 18 446 bytes, so "half" and
#: "last-10" cut at 9 223 and 18 436.
CORRUPTIONS = {
    "not-an-npz": lambda path: path.write_bytes(b"not an npz"),
    "cut-10": _truncate(lambda size: 10),
    "cut-100": _truncate(lambda size: 100),
    "cut-half": _truncate(lambda size: size // 2),
    "cut-last-10": _truncate(lambda size: size - 10),
    "schema-0": _restamp_schema,
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_corrupt_artifact_is_a_miss(tmp_path, corruption):
    cache = _cache(tmp_path)
    fetch = cache.fetch_or_factor(kind="randn", n=32, seed=0, config=p4())
    CORRUPTIONS[corruption](fetch.path)
    assert cache.load(fetch.key) is None
    assert cache.entries() == [] and cache.count() == 0 and cache.total_bytes() == 0
    again = cache.fetch_or_factor(kind="randn", n=32, seed=0, config=p4())
    assert not again.cached  # recomputed, not served corrupt bits
    for name in ("packed", "permuted", "perm"):
        assert np.array_equal(getattr(again.factor, name), getattr(fetch.factor, name))
    assert cache.fetch_or_factor(kind="randn", n=32, seed=0, config=p4()).cached


def test_stray_partial_temp_file_is_never_opened(tmp_path):
    """A writer killed mid-write leaves its temp file; no listing, purge,
    cap or fetch may trip over it."""
    cache = _cache(tmp_path)
    fetch = cache.fetch_or_factor(kind="randn", n=32, seed=0, config=p4())
    stray = fetch.path.with_name(f".{fetch.path.name}.999.1.tmp")
    # Older writers named temp files factor-<key16>.tmp.<pid>.<tid>.npz: by
    # name an artifact file, so it is never listed but is purged and capped.
    old_stray = fetch.path.with_name(f"factor-{fetch.key[:16]}.tmp.999.1.npz")
    for path in (stray, old_stray):
        path.write_bytes(fetch.path.read_bytes()[:100])
    assert [e["path"] for e in cache.entries()] == [str(fetch.path)]
    assert cache.count() == 1 and cache.total_bytes() == fetch.path.stat().st_size
    assert len(cache.files()) == 2
    capped = FactorCache(root=cache.root, max_bytes=1)
    other = capped.fetch_or_factor(kind="randn", n=32, seed=1, config=p4())
    assert not other.cached and [e["seed"] for e in capped.entries()] == [1]
    assert [path for path, _ in capped.files()] == [other.path]
    assert capped.purge() == 1 and capped.files() == []
    assert stray.is_file()  # a temp file is no artifact


def test_listing_shows_loadable_factors_and_purge_removes_every_file(tmp_path):
    cache = _cache(tmp_path)
    good, cut, stale = (
        cache.fetch_or_factor(kind="randn", n=32, seed=s, config=p4()) for s in (0, 1, 2)
    )
    _truncate(lambda size: size // 2)(cut.path)
    _restamp_schema(stale.path)
    assert [e["seed"] for e in cache.entries()] == [0]
    assert cache.count() == 1 and cache.total_bytes() == good.path.stat().st_size
    assert len(cache.files()) == 3
    assert cache.purge() == 3
    assert list(cache.root.iterdir()) == []


def test_lru_cap_counts_unloadable_files(tmp_path):
    import os

    cache = _cache(tmp_path)
    fetches = [cache.fetch_or_factor(kind="randn", n=32, seed=s, config=p4())
               for s in (0, 1, 2)]
    _truncate(lambda size: size // 2)(fetches[1].path)
    _restamp_schema(fetches[2].path)
    for t, f in enumerate(fetches):
        os.utime(f.path, (1000.0 + t, 1000.0 + t))
    keep = fetches[0].path
    FactorCache(root=cache.root, max_bytes=keep.stat().st_size)._enforce_cap(keep=keep)
    assert [path for path, _ in cache.files()] == [keep]


def test_artifact_with_a_kernel_tier_field_still_loads(tmp_path):
    """``.npz`` files written while the tier was configurable carry a
    ``kernel_tier`` meta field; the reader ignores it."""
    cache = _cache(tmp_path)
    fetch = cache.fetch_or_factor(kind="randn", n=32, seed=0, config=p4())
    with np.load(fetch.path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays["meta"]))
    for tier in ("auto", "reference", "lapack"):
        arrays["meta"] = np.array(json.dumps({**meta, "kernel_tier": tier}))
        with open(fetch.path, "wb") as fh:
            np.savez(fh, **arrays)
        loaded = cache.load(fetch.key)
        assert loaded is not None and identity(loaded) == identity(fetch.factor)
        assert np.array_equal(loaded.packed, fetch.factor.packed)


# --------------------------------------------------------------- single-flight
def test_fetch_or_factor_is_single_flight(tmp_path, monkeypatch):
    import repro.harness.factor_cache as fc

    cache = _cache(tmp_path)
    calls = itertools.count()
    real = fc.pcalu_factor

    barrier = threading.Barrier(4, timeout=30)

    def counting(*args, **kwargs):
        next(calls)
        return real(*args, **kwargs)

    monkeypatch.setattr(fc, "pcalu_factor", counting)

    results = [None] * 4
    def worker(i):
        barrier.wait()
        results[i] = cache.fetch_or_factor(
            kind="randn", n=32, seed=0, config=p4()
        )

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert next(calls) == 1  # exactly one factorization ran
    keys = {r.key for r in results}
    assert len(keys) == 1
    assert sum(1 for r in results if not r.cached) == 1
    assert sum(1 for r in results if r.cached) == 3
    first = results[0].factor
    for r in results[1:]:
        assert np.array_equal(r.factor.packed, first.packed)
