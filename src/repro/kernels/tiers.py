"""Kernel tier selection: reference Python loops vs. optimized LAPACK calls.

The numerical kernels of this package come in *tiers*:

``reference``
    The original per-column Python loops.  Every stability quantity the paper
    measures (growth histories, pivot thresholds) is recorded by this tier,
    and its results define the bit-exact behaviour all other tiers are
    validated against.

``lapack``
    Large factorizations are delegated to ``scipy.linalg.lapack.dgetrf`` with
    closed-form flop/comparison accounting (see
    :class:`~repro.kernels.flops.FlopFormulas`).  The factor entries agree to
    rounding but are *not* bit-identical, because LAPACK scales multipliers
    by a precomputed reciprocal and vendor BLAS uses FMA in the rank-1
    update.  Pivot choices match the reference tier on every tested input
    (LAPACK's ``IDAMAX`` breaks ties towards the first maximum exactly like
    ``numpy.argmax``) — but because the compared trailing entries are
    rounded differently, an adversarial near-tie within ~1 ulp could in
    principle flip a pivot; this tier is therefore used only where the pivot
    *order* flows onward (tournament leaves, plain factorizations), the
    agreement is enforced by ``tests/test_kernels_tiers.py``, and call sites
    where bits are contractual (tournament merges, growth tracking,
    threshold recording) always pin the reference tier instead.

    The strong-RRQR row selection of CALU_PRRP
    (:func:`~repro.kernels.rrqr.select_rows_rrqr`) takes its pivots from
    ``dgeqp3`` and *verifies* them — clear greedy margins, ``max |R11^{-1}
    R12| <= tau`` on LAPACK's own factor — before believing them; anything
    doubtful is redone by the reference kernel, so the selection and its
    ledger are the same on every tier (see :mod:`repro.kernels.rrqr`).
    Because an RRQR merge passes on only the *order* of its winners (the rows
    themselves are gathered from the stacked originals, and the panel's ``U``
    comes from a later elimination), RRQR merges may leave the reference
    tier where ``getf2`` merges, whose ``U`` becomes the panel's, may not.

``auto`` (the default)
    Resolves to ``lapack`` whenever SciPy's LAPACK bindings are importable
    and the caller did not request stability recording; falls back to
    ``reference`` otherwise.  (SciPy is a hard dependency of the TRSM
    kernels in this package, so in practice the fallback only triggers in
    stripped-down environments where :mod:`repro.kernels` is vendored
    piecemeal.)

Selected per call (``kernel_tier=`` on ``getf2``, ``rgetf2``,
``select_rows_rrqr``; threaded through ``tournament_pivoting``, ``tslu``,
``calu``, ``ptslu``; ``SolveConfig.kernel_tier`` for ``pcalu``); an unset
value means ``auto`` (the two-level rule of :mod:`repro.core.options`).

Kernels that record stability quantities (``track_growth=``,
``compute_thresholds=``) force the reference tier regardless of the knob, so
the paper's stability experiments are bit-identical no matter how the process
is configured.
"""

from __future__ import annotations

from typing import Optional

from ..core.options import Option, UnknownOptionError, register_option

#: Recognised tier names.
TIERS = ("auto", "reference", "lapack")

#: Tier used when no per-call value is given.
DEFAULT_TIER = "auto"

try:  # pragma: no cover - exercised implicitly by every tier resolution
    from scipy.linalg import lapack as _scipy_lapack

    HAVE_LAPACK = hasattr(_scipy_lapack, "dgetrf")
except Exception:  # pragma: no cover - scipy missing or broken
    _scipy_lapack = None
    HAVE_LAPACK = False

def lapack_module():
    """Return the ``scipy.linalg.lapack`` module (None when unavailable)."""
    return _scipy_lapack


def _validate(tier: str) -> str:
    if tier not in TIERS:
        raise UnknownOptionError("kernel tier", tier, list(TIERS))
    return tier


#: The kernel-tier knob, registered into the shared configuration subsystem
#: (:mod:`repro.core.options`), whose precedence rule picks the tier name
#: (explicit > "auto").  The tier-specific
#: semantics — ``force_reference`` and the ``auto`` -> ``lapack``/``reference``
#: degradation — stay here, applied *after* that rule, in :func:`resolve_tier`.
OPTION = register_option(
    Option(
        name="kernel_tier",
        kind="kernel tier",
        default=DEFAULT_TIER,
        validate=_validate,
    )
)


def available_tiers() -> list:
    """Tier names usable in this process (``lapack`` requires SciPy)."""
    return [t for t in TIERS if t != "lapack" or HAVE_LAPACK]


def resolve_tier(tier: Optional[str] = None, force_reference: bool = False) -> str:
    """Resolve a per-call ``kernel_tier=`` argument to ``reference``/``lapack``.

    ``force_reference`` is set by kernels when the caller requested stability
    recording (growth histories, pivot thresholds): those paths must replay
    the reference arithmetic bit-for-bit, so every other tier is overridden.
    An explicit ``"lapack"`` request without SciPy raises; ``"auto"`` degrades
    silently.
    """
    if force_reference:
        return "reference"
    name = OPTION.resolve(tier)
    if name == "auto":
        return "lapack" if HAVE_LAPACK else "reference"
    if name == "lapack" and not HAVE_LAPACK:
        raise RuntimeError(
            "kernel tier 'lapack' requested but scipy.linalg.lapack is not available"
        )
    return name
