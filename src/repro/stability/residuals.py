"""HPL-style accuracy tests (Table 1 and Table 2 of the paper).

The High-Performance Linpack benchmark accepts a factorization if three
scaled residuals are "of order O(1)" (in practice below 16):

    HPL1 = ||A x - b||_inf / (eps * ||A||_1 * N)
    HPL2 = ||A x - b||_inf / (eps * ||A||_1 * ||x||_1)
    HPL3 = ||A x - b||_inf / (eps * ||A||_inf * ||x||_inf * N)

The paper computes these for systems solved with CALU's factors (and with
GEPP's, for reference), together with the componentwise backward error
``w_b`` before iterative refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The pass threshold used by HPL (and quoted by the paper).
HPL_PASS_THRESHOLD = 16.0


@dataclass
class HPLResiduals:
    """The three HPL residuals of one solved system."""

    hpl1: float
    hpl2: float
    hpl3: float

    @property
    def passed(self) -> bool:
        """True if all three residuals are below the HPL acceptance threshold."""
        return max(self.hpl1, self.hpl2, self.hpl3) < HPL_PASS_THRESHOLD

    def as_dict(self) -> dict:
        """Dictionary form used by the experiment tables."""
        return {"HPL1": self.hpl1, "HPL2": self.hpl2, "HPL3": self.hpl3}


def hpl_residuals(A: np.ndarray, x: np.ndarray, b: np.ndarray) -> HPLResiduals:
    """Compute the three HPL scaled residuals for a computed solution ``x``."""
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = A.shape[0]
    eps = np.finfo(np.float64).eps
    r_inf = float(np.linalg.norm(b - A @ x, np.inf))
    a1 = float(np.linalg.norm(A, 1))
    ainf = float(np.linalg.norm(A, np.inf))
    x1 = float(np.linalg.norm(x, 1))
    xinf = float(np.linalg.norm(x, np.inf))

    def safe(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    return HPLResiduals(
        hpl1=safe(r_inf, eps * a1 * n),
        hpl2=safe(r_inf, eps * a1 * x1),
        hpl3=safe(r_inf, eps * ainf * xinf * n),
    )
