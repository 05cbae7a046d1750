"""Floating-point operation accounting.

The paper's cost model (Section 3 and 5) distinguishes three kinds of work:

* ``gamma`` operations: additions and multiplications (time ``γ`` each),
* ``gamma_d`` operations: divisions (time ``γ_d`` each),
* communication: messages and words (handled in :mod:`repro.costs`).

Every sequential kernel in :mod:`repro.kernels` accepts an optional
:class:`FlopCounter` and charges the classic dense linear-algebra flop counts
to it, so that both the sequential algorithms and the simulated parallel
algorithms report work in the same currency as Equations (1)-(3) of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FlopCounter:
    """Accumulator for floating-point work.

    Attributes
    ----------
    muladds:
        Number of multiply/add floating point operations (the paper's ``γ``
        operations).  A fused ``a*b + c`` counts as 2.
    divides:
        Number of divisions (the paper's ``γ_d`` operations).
    comparisons:
        Number of comparisons performed while searching for pivots.  The
        paper's model neglects these; we record them anyway because they are
        useful when validating pivot-search implementations.
    """

    muladds: float = 0.0
    divides: float = 0.0
    comparisons: float = 0.0

    def add_muladds(self, n: float) -> None:
        """Charge ``n`` multiply/add operations."""
        self.muladds += float(n)

    def add_divides(self, n: float) -> None:
        """Charge ``n`` divisions."""
        self.divides += float(n)

    def add_comparisons(self, n: float) -> None:
        """Charge ``n`` comparisons (pivot searches)."""
        self.comparisons += float(n)

    def merge(self, other: "FlopCounter") -> None:
        """Accumulate the counts of ``other`` into this counter."""
        self.muladds += other.muladds
        self.divides += other.divides
        self.comparisons += other.comparisons

    def copy(self) -> "FlopCounter":
        """Return an independent copy of this counter."""
        return FlopCounter(self.muladds, self.divides, self.comparisons)

    @property
    def total(self) -> float:
        """Total arithmetic operations (muladds + divides)."""
        return self.muladds + self.divides

    def reset(self) -> None:
        """Zero all counters."""
        self.muladds = 0.0
        self.divides = 0.0
        self.comparisons = 0.0

    def __add__(self, other: "FlopCounter") -> "FlopCounter":
        return FlopCounter(
            self.muladds + other.muladds,
            self.divides + other.divides,
            self.comparisons + other.comparisons,
        )


@dataclass
class FlopFormulas:
    """Closed-form flop counts for the dense kernels used in the paper.

    These are the textbook leading-order counts; they are used both to charge
    analytic models and to sanity-check the counts measured by the kernels.
    """

    @staticmethod
    def getf2(m: int, n: int) -> float:
        """Multiply/adds of unblocked LU with partial pivoting of an m x n matrix."""
        m = float(m)
        n = float(n)
        if m >= n:
            return m * n * n - n**3 / 3.0
        # Wide case: eliminate only m-1 columns.
        return m * m * n - m**3 / 3.0

    @staticmethod
    def getf2_divides(m: int, n: int) -> float:
        """Divisions of unblocked LU with partial pivoting of an m x n matrix."""
        k = min(m, n)
        # Column j scales (m - j - 1) subdiagonal entries: sum over j.
        return float(k) * float(m) - float(k) * (float(k) + 1.0) / 2.0

    @staticmethod
    def trsm(m: int, n: int) -> float:
        """Multiply/adds of a triangular solve with an m x m triangle and n right-hand sides."""
        return float(m) * float(m) * float(n)

    @staticmethod
    def gemm(m: int, n: int, k: int) -> float:
        """Multiply/adds of C -= A @ B with A m x k and B k x n."""
        return 2.0 * float(m) * float(n) * float(k)

    # ------------------------------------------------------------------
    # Exact (not leading-order) counts, matching the reference loops step
    # for step.  These are what the LAPACK-backed kernel paths charge so
    # that flop ledgers are identical to the loops' (all counts are integers
    # well below 2**53, hence exact in float64 regardless of order).
    # ------------------------------------------------------------------

    @staticmethod
    def getf2_exact(m: int, n: int, zero_columns=()) -> "FlopCounter":
        """Exact counts of the reference :func:`~repro.kernels.getf2.getf2` loop.

        ``zero_columns`` lists the column indices whose pivot was exactly
        zero: the reference loop skips the scaling and the rank-1 update for
        those columns (the pivot search is still performed and charged).
        """
        k = min(m, n)
        muladds = 0
        divides = 0
        comparisons = 0
        skipped = frozenset(int(j) for j in zero_columns)
        for j in range(k):
            comparisons += m - j - 1
            if j in skipped:
                continue
            if j < m - 1:
                divides += m - j - 1
                if j < n - 1:
                    muladds += 2 * (m - j - 1) * (n - j - 1)
        return FlopCounter(float(muladds), float(divides), float(comparisons))

    @staticmethod
    def rgetf2_exact(m: int, n: int, threshold: int = 8) -> "FlopCounter":
        """Exact counts of the reference recursive kernel on a nonsingular input.

        Mirrors the recursion of :func:`~repro.kernels.rgetf2.rgetf2`: leaf
        ``getf2`` counts plus the triangular solve (``n1^2 n2`` muladds) and
        the GEMM update (``2 (m - n1) n1 n2`` muladds) of each split.
        """
        if n <= threshold or n == 1:
            return FlopFormulas.getf2_exact(m, n)
        n1 = n // 2
        n2 = n - n1
        total = FlopFormulas.rgetf2_exact(m, n1, threshold)
        total.add_muladds(float(n1) * float(n1) * float(n2))
        if m > n1:
            total.add_muladds(2.0 * float(m - n1) * float(n1) * float(n2))
        total.merge(FlopFormulas.rgetf2_exact(m - n1, n2, threshold))
        return total

    @staticmethod
    def rrqr_select_exact(m: int, n: int, k: int) -> "FlopCounter":
        """Exact counts of ``k`` pivoted Householder steps on an ``m x n`` matrix.

        The ledger of the reference strong-RRQR kernel
        (:mod:`repro.kernels.rrqr`) when no column is exactly zero and no
        strengthening swap runs — for a row selection, ``m x n`` is the
        *transposed* block.  Step ``j`` charges the pivot search
        (``2 (m-j)(n-j)`` muladds, ``n-j-1`` comparisons), the reflector
        (``2 (m-j)``), its application to ``R`` (``4 (m-j)(n-j) + (n-j)``)
        and to ``Q`` (``4 m (m-j) + m``) and one divide.
        """
        tri = k * (k - 1) // 2
        rows = k * m - tri  # sum of (m - j)
        cols = k * n - tri  # sum of (n - j)
        area = k * m * n - (m + n) * tri + (k - 1) * k * (2 * k - 1) // 6
        muladds = 6 * area + (2 + 4 * m) * rows + cols + k * m
        return FlopCounter(float(muladds), float(k), float(cols - k))
