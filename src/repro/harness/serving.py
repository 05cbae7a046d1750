"""Solve-as-a-service: async request batching over a cached factor.

The production story of communication-avoiding LU: the ``O(n^3)``
factorization is paid once (and cached — :mod:`repro.harness.factor_cache`),
after which every ``A x = b`` request is an ``O(n^2)`` pair of triangular
sweeps.  Because :mod:`repro.scalapack.pdtrsv` is batched over right-hand
sides — the message count is independent of ``nrhs`` — the cheapest way to
serve many concurrent requests is to *coalesce* them: stack their right-hand
sides into one ``n x nrhs`` block and run a single multi-RHS
:func:`repro.parallel.psolve.pdgesv_solve` sweep, amortizing the
``(n/b)(log2 Pr + log2 Pc)`` message steps over the whole batch.

:class:`SolveService` implements that dispatcher:

* :meth:`~SolveService.submit` enqueues a request and returns a ticket
  immediately (a future); :meth:`~SolveService.solve` is submit-and-wait.
* A dispatcher thread collects requests into batches of up to ``window``
  (waiting at most ``linger_s`` after the first request of a batch for more
  to arrive), stacks their right-hand sides, and runs one coalesced
  ``pdgesv_solve``.
* Per-request residual SLOs ride the existing iterative-refinement loop:
  the batch refines (within ``refine`` steps) until every member's max-abs
  residual meets its target (``rhs_slo`` of
  :func:`~repro.parallel.psolve.pdgesv_solve`), so one impatient request
  cannot starve and one demanding request drives extra refinement for the
  whole sweep — the classic batching trade, surfaced per request in the
  outcome.
* Every outcome reports its wall-clock latency, its batch, and whether its
  SLO was met; :attr:`SolveService.stats` counts requests, batches and
  triangular sweeps so tests can assert the coalescing really happened.

For deterministic tests the service can be created with ``start=False`` and
driven synchronously with :meth:`~SolveService.drain`.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.options import SolveConfig
from ..parallel.factor import FactoredMatrix
from ..parallel.psolve import pdgesv_solve

#: Default maximum number of requests coalesced into one sweep.
DEFAULT_WINDOW = 8

#: Default time (seconds) the dispatcher lingers after a batch's first
#: request, waiting for more requests to coalesce.
DEFAULT_LINGER_S = 0.02


@dataclass
class SolveOutcome:
    """Result of one served request.

    Attributes
    ----------
    x:
        Solution column(s) for this request (same shape as the submitted
        right-hand side).
    residual:
        Final max-abs residual of this request's right-hand side(s).
    residual_history:
        This request's max-abs residual after the initial solve and each
        refinement step of its batch.
    iterations:
        Refinement steps the batch performed.
    slo:
        The residual target this request asked for (``None`` = none).
    met_slo:
        Whether ``residual <= slo`` (``True`` when no SLO was given).
    latency_s:
        Wall-clock submit-to-completion latency.
    batch_id:
        Sequential id of the coalesced batch that served this request.
    batch_size:
        Number of right-hand-side columns in that batch's sweep.
    """

    x: np.ndarray
    residual: float
    residual_history: List[float]
    iterations: int
    slo: Optional[float]
    met_slo: bool
    latency_s: float
    batch_id: int
    batch_size: int


@dataclass
class ServiceStats:
    """Counters of one service's lifetime (updated under the service lock)."""

    requests: int = 0
    batches: int = 0
    batched_rhs: int = 0
    sweeps: int = 0
    refinements: int = 0
    max_batch: int = 0
    slo_misses: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Pending:
    """One enqueued request."""

    B: np.ndarray  # always n x k (k >= 1 columns)
    one_d: bool
    slo: Optional[float]
    submitted_at: float
    future: Future = field(default_factory=Future)


class SolveService:
    """Async dispatcher coalescing solve requests against one factor.

    Parameters
    ----------
    factor:
        The :class:`~repro.parallel.factor.FactoredMatrix` every request is
        solved against (typically a
        :meth:`~repro.harness.factor_cache.FactorCache.fetch_or_factor` hit).
    config:
        Optional :class:`~repro.core.options.SolveConfig` whose machine and
        engine run the solve sweeps (see
        :func:`~repro.parallel.psolve.pdgesv_solve`) — e.g. a tuned config
        from :func:`repro.harness.tuning.load_tuned_config`.
    window:
        Maximum right-hand-side columns coalesced into one sweep.
    linger_s:
        How long the dispatcher waits after a batch's first request for
        more requests before dispatching a partial batch.
    refine:
        Refinement budget per batch (the SLO loop runs within it).
    default_slo:
        Residual target applied to requests that do not carry their own.
    start:
        Start the dispatcher thread immediately.  With ``start=False`` the
        service is driven synchronously via :meth:`drain` (deterministic
        batching for tests: exactly ``ceil(pending / window)`` batches).
    """

    def __init__(
        self,
        factor: FactoredMatrix,
        config: Optional[SolveConfig] = None,
        *,
        window: int = DEFAULT_WINDOW,
        linger_s: float = DEFAULT_LINGER_S,
        refine: int = 2,
        tolerance: float = 1.0e-16,
        default_slo: Optional[float] = None,
        start: bool = True,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.factor = factor
        self.config = config
        self.window = int(window)
        self.linger_s = float(linger_s)
        self.refine = int(refine)
        self.tolerance = float(tolerance)
        self.default_slo = default_slo
        self.stats = ServiceStats()
        self._queue: "queue.Queue[Optional[_Pending]]" = queue.Queue()
        # A request popped from the queue that did not fit the current
        # batch; consumed first by the next batch.  Only the dispatcher
        # (thread or drain caller) touches it.
        self._carry: Optional[_Pending] = None
        self._lock = threading.Lock()
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if start:
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="solve-service", daemon=True
            )
            self._thread.start()

    # ---------------------------------------------------------------- clients
    def submit(self, b: np.ndarray, slo: Optional[float] = None) -> Future:
        """Enqueue one solve request; returns a future of :class:`SolveOutcome`.

        ``b`` is an ``n``-vector or an ``n x k`` block of right-hand sides
        (the whole request is served by one batch).  ``slo`` is the
        per-request max-abs residual target, defaulting to the service's
        ``default_slo``.  A right-hand side of the wrong shape or with a NaN
        or infinite entry raises ``ValueError`` here and never joins a batch.
        """
        if self._closed:
            raise RuntimeError("SolveService is closed")
        b = np.asarray(b, dtype=np.float64)
        one_d = b.ndim == 1
        B = b[:, None] if one_d else b
        if B.ndim != 2 or B.shape[0] != self.factor.n:
            raise ValueError(
                f"right-hand side has shape {b.shape}, expected "
                f"({self.factor.n},) or ({self.factor.n}, k)"
            )
        if not np.isfinite(B).all():
            raise ValueError("b has non-finite entries (NaN or Inf)")
        pending = _Pending(
            B=B,
            one_d=one_d,
            slo=self.default_slo if slo is None else float(slo),
            submitted_at=time.perf_counter(),
        )
        if B.shape[1] == 0:
            # A degenerate (zero-column) request never joins a sweep: it is
            # fulfilled immediately with an empty solution.
            pending.future.set_result(
                SolveOutcome(
                    x=np.zeros((self.factor.n, 0)),
                    residual=0.0,
                    residual_history=[],
                    iterations=0,
                    slo=pending.slo,
                    met_slo=True,
                    latency_s=0.0,
                    batch_id=0,
                    batch_size=0,
                )
            )
            return pending.future
        self._queue.put(pending)
        return pending.future

    def solve(
        self, b: np.ndarray, slo: Optional[float] = None, timeout: Optional[float] = None
    ) -> SolveOutcome:
        """Submit one request and wait for its outcome."""
        return self.submit(b, slo=slo).result(timeout=timeout)

    # ------------------------------------------------------------- lifecycle
    def drain(self) -> int:
        """Synchronously serve everything queued; returns batches dispatched.

        Only meaningful when the dispatcher thread is not running
        (``start=False``): batching is then deterministic — requests are
        served in submission order in batches of exactly ``window``.
        """
        if self._thread is not None:
            raise RuntimeError("drain() requires a service created with start=False")
        batches = 0
        while True:
            batch = self._collect(block=False)
            if not batch:
                return batches
            self._serve(batch)
            batches += 1

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting requests, serve what is queued, stop the thread."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join(timeout=timeout)
        else:
            while self._collect_and_serve(block=False):
                pass

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ dispatcher
    def _dispatch_loop(self) -> None:
        while True:
            batch = self._collect(block=True)
            if batch is None:
                return
            if batch:
                self._serve(batch)

    def _collect(self, block: bool) -> Optional[List[_Pending]]:
        """Gather up to ``window`` RHS columns into one batch.

        Returns ``None`` when the sentinel (close) was consumed in blocking
        mode, else the (possibly empty) batch.  The batch is bounded by
        *columns*, not requests, so a multi-column request counts its width.
        """
        batch: List[_Pending] = []
        cols = 0
        deadline: Optional[float] = None
        while cols < self.window:
            if self._carry is not None:
                item: Optional[_Pending] = self._carry
                self._carry = None
            else:
                timeout: Optional[float] = None
                if batch:
                    timeout = deadline - time.monotonic()
                    if timeout <= 0:
                        break
                try:
                    if block:
                        item = self._queue.get(timeout=timeout)
                    else:
                        item = self._queue.get_nowait()
                except queue.Empty:
                    break
            if item is None:
                # Close sentinel: serve what we have, then signal shutdown.
                if batch:
                    self._serve(batch)
                return None if block else []
            if batch and cols + item.B.shape[1] > self.window:
                # Doesn't fit this sweep; it opens the next batch instead.
                self._carry = item
                break
            batch.append(item)
            cols += item.B.shape[1]
            if deadline is None:
                deadline = time.monotonic() + self.linger_s
        return batch

    def _collect_and_serve(self, block: bool) -> bool:
        batch = self._collect(block=block)
        if batch:
            self._serve(batch)
        return bool(batch)

    def _serve(self, batch: List[_Pending]) -> None:
        """Run one coalesced multi-RHS sweep and fulfill the batch's futures."""
        try:
            widths = [p.B.shape[1] for p in batch]
            B = np.concatenate([p.B for p in batch], axis=1)
            nrhs = B.shape[1]
            slo_vec = np.full(nrhs, np.inf)
            col = 0
            for p, w in zip(batch, widths):
                if p.slo is not None:
                    slo_vec[col : col + w] = p.slo
                col += w
            has_slo = bool(np.any(np.isfinite(slo_vec)))
            res = pdgesv_solve(
                self.factor,
                B,
                self.config,
                refine=self.refine,
                tolerance=self.tolerance,
                rhs_slo=slo_vec if has_slo else None,
            )
        except BaseException as exc:
            for p in batch:
                p.future.set_exception(exc)
            return

        with self._lock:
            self.stats.requests += len(batch)
            self.stats.batches += 1
            self.stats.batched_rhs += nrhs
            # One forward + one backward pdtrsv per initial solve and per
            # refinement step, regardless of nrhs — the coalescing win.
            self.stats.sweeps += 2 * (1 + res.iterations)
            self.stats.refinements += res.iterations
            self.stats.max_batch = max(self.stats.max_batch, nrhs)
            batch_id = self.stats.batches

        done = time.perf_counter()
        per_rhs = np.asarray(res.per_rhs_residuals)  # (steps, nrhs)
        col = 0
        for p, w in zip(batch, widths):
            cols = slice(col, col + w)
            history = [float(np.max(step[cols])) for step in per_rhs]
            residual = history[-1] if history else 0.0
            met = p.slo is None or residual <= p.slo
            if not met:
                with self._lock:
                    self.stats.slo_misses += 1
            x = res.x[:, cols]
            outcome = SolveOutcome(
                x=x[:, 0] if p.one_d else x,
                residual=residual,
                residual_history=history,
                iterations=res.iterations,
                slo=p.slo,
                met_slo=met,
                latency_s=done - p.submitted_at,
                batch_id=batch_id,
                batch_size=nrhs,
            )
            p.future.set_result(outcome)
            col += w
