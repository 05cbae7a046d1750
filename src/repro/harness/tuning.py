"""Model-driven configuration search (``repro tune``).

Layer 2 of the configuration subsystem built on
:class:`~repro.core.options.SolveConfig`: given a workload — matrix family
``kind``, size ``n``, right-hand-side count ``nrhs``, target ``machine`` and
process count ``P`` — enumerate the reachable slice of the configuration
space (block size ``b``, grid shape ``Pr x Pc``, pivoting strategy,
distributed-matmul backend), rank every candidate by *predicted* time
under the paper's analytic models priced on the machine model, then
*simulate* the top-k candidates (plus the built-in default configuration)
on the virtual-MPI simulator to confirm the ranking.  The winner is the
candidate with the smallest simulated time — the default is always in the
simulated pool, so the tuned configuration can never lose to it — and every
simulated row records the predicted-vs-simulated ``gap``
(``|predicted - simulated| / simulated``) so the artifact is honest about
how far the closed-form model is from the schedule the simulator actually
executed.

The search runs as a registered :class:`~repro.harness.spec.ExperimentSpec`
(``tune``), so a tuning run is one content-addressed artifact in the result
store: re-running with the same workload is a cache hit, and
``repro serve --tuned`` loads the chosen row of such an artifact as its
default configuration (:func:`load_tuned_config`).

Model notes
-----------
* ``pivoting="pp"`` candidates are priced with Equation (3)
  (:func:`~repro.models.pdgetrf_model.pdgetrf_cost`); ``ca``/``ca_prrp``
  with Equation (2) (:func:`~repro.models.calu_model.calu_cost`) — the
  models do not distinguish CALU from CALU_PRRP (same counts, different
  panel pivoting), so those two tie on predicted time and the simulation
  breaks the tie.
* ``matmul="caps"`` candidates rescale the trailing-update term
  ``(m n^2 - n^3/3)/P`` of Equation (2) by the Strassen/classical flop
  ratio of the representative local update
  (:func:`caps_flop_ratio`), mirroring the exact flop accounting of
  :mod:`repro.matmul.caps` (:func:`strassen_flop_count`).
* Which kernel body computes a panel (the reference loop or LAPACK) is
  chosen by the code, not configured, and changes no count the simulator
  charges, so it is no search axis; nor is the engine (the simulator has
  one scheduler).  :func:`tuned_config` ignores the ``kernel_tier`` column
  of tune rows and the ``engine`` of artifacts that carry one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.options import SolveConfig
from ..core.strategies import DEFAULT_STRATEGY, STRATEGIES
from ..costs.accounting import CostLedger
from .spec import ExperimentSpec, register
from .store import KEYED_ENGINE

#: Block sizes the search tries (filtered per candidate for feasibility).
BLOCK_SIZES = (4, 8, 16, 32, 64)

#: Workloads the tuner can price and simulate.
WORKLOADS = ("solve", "matmul")


# ----------------------------------------------------------------- enumeration
def grid_shapes(P: int) -> List[Tuple[int, int]]:
    """All ordered factorizations ``Pr x Pc = P`` (both orientations).

    The models are not symmetric in ``(Pr, Pc)`` — column traffic scales
    with ``log2 Pr``, row traffic with ``log2 Pc`` — so ``2x8`` and ``8x2``
    are distinct candidates.
    """
    if P <= 0:
        raise ValueError("P must be positive")
    shapes = []
    for d in range(1, P + 1):
        if P % d == 0:
            shapes.append((d, P // d))
    return shapes


def feasible(n: int, b: int, Pr: int, Pc: int) -> bool:
    """Whether a (n, b, grid) triple is worth simulating.

    Requires ``b < n`` and at least one block row/column per grid
    row/column, so no rank is left without work in the block-cyclic layout.
    """
    if b >= n:
        return False
    nblocks = -(-n // b)
    return nblocks >= Pr and nblocks >= Pc


def enumerate_candidates(
    n: int,
    P: int,
    workload: str = "solve",
    machine: Optional[str] = None,
    block_sizes: Sequence[int] = BLOCK_SIZES,
    pivotings: Optional[Sequence[str]] = None,
    matmuls: Sequence[str] = ("summa", "caps"),
) -> List[SolveConfig]:
    """Every feasible :class:`SolveConfig` candidate, in preference order.

    The order matters: the predicted-time sort is stable, so exact ties
    (e.g. ``ca`` vs ``ca_prrp``) resolve to the earlier candidate here.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if pivotings is None:
        # The matmul workload never pivots; pin the default strategy so the
        # axis does not triple the candidate count for nothing.
        pivotings = tuple(sorted(STRATEGIES)) if workload == "solve" else (
            DEFAULT_STRATEGY,
        )
    out: List[SolveConfig] = []
    for Pr, Pc in grid_shapes(P):
        for b in block_sizes:
            if not feasible(n, b, Pr, Pc):
                continue
            for pivoting in pivotings:
                for matmul in matmuls:
                    out.append(
                        SolveConfig(
                            pivoting=pivoting,
                            matmul=matmul,
                            grid=(Pr, Pc),
                            b=b,
                            machine=machine,
                        )
                    )
    return out


def default_config(
    n: int,
    P: int,
    machine: Optional[str] = None,
) -> SolveConfig:
    """The configuration an untuned run would use (the baseline to beat).

    Built-in defaults everywhere: ``b = 16`` (degraded to the largest
    feasible block size on small problems), the near-square
    :meth:`~repro.layouts.grid.ProcessGrid.default_for` grid, default
    pivoting, SUMMA trailing update.
    """
    from ..layouts.grid import ProcessGrid
    from ..matmul import DEFAULT_BACKEND

    grid = ProcessGrid.default_for(P)
    b = 16
    if not feasible(n, b, grid.nprow, grid.npcol):
        for candidate in sorted(set(BLOCK_SIZES), reverse=True):
            if feasible(n, candidate, grid.nprow, grid.npcol):
                b = candidate
                break
        else:
            raise ValueError(
                f"no feasible block size for n={n} on a "
                f"{grid.nprow}x{grid.npcol} grid"
            )
    return SolveConfig(
        pivoting=DEFAULT_STRATEGY,
        matmul=DEFAULT_BACKEND,
        grid=(grid.nprow, grid.npcol),
        b=b,
        machine=machine,
    )


# ------------------------------------------------------------------ prediction
def strassen_flop_count(m: int, k: int, n: int) -> float:
    """Exact flops :func:`repro.matmul.caps.strassen_multiply` charges.

    Closed-form mirror of the sequential Strassen kernel's accounting: the
    base case (any odd dimension, or the smallest dimension at or below
    ``STRASSEN_CUTOFF``) is a classical ``2 m n k`` GEMM; one recursion
    level pays seven half-size products plus the quadrant additions of the
    ``T``/``S`` operand combinations and the ``C`` reconstruction.
    """
    from ..matmul.caps import _CM, _SB, _TA, STRASSEN_CUTOFF

    if m % 2 or k % 2 or n % 2 or min(m, k, n) <= STRASSEN_CUTOFF:
        return 2.0 * m * n * k
    m2, k2, n2 = m // 2, k // 2, n // 2
    adds = (
        sum(len(terms) - 1 for terms in _TA) * m2 * k2
        + sum(len(terms) - 1 for terms in _SB) * k2 * n2
        + sum(len(terms) - 1 for terms in _CM.values()) * m2 * n2
    )
    return 7.0 * strassen_flop_count(m2, k2, n2) + adds


def caps_flop_ratio(n: int, b: int, Pr: int, Pc: int) -> float:
    """Strassen/classical flop ratio of the representative trailing update.

    The trailing update at each step of the factorization is a local
    ``mloc x b`` by ``b x nloc`` product per rank; with ``k = b`` small the
    Strassen recursion rarely fires, so the ratio is usually exactly 1 —
    the honest statement that CAPS buys bandwidth, not flops, at these
    block sizes.
    """
    mloc = max(n // Pr, 1)
    nloc = max(n // Pc, 1)
    classical = 2.0 * mloc * b * nloc
    return strassen_flop_count(mloc, b, nloc) / classical


def predicted_ledger(
    config: SolveConfig,
    n: int,
    nrhs: int = 1,
    refine: int = 2,
    workload: str = "solve",
) -> CostLedger:
    """Analytic critical-path ledger of one workload under ``config``.

    ``solve``: factorization (Equation 2 or 3 by pivoting strategy, with
    the CAPS trailing-update flop adjustment) plus the full ``pdgesv``
    solve phase.  ``matmul``: the backend's exact message/word totals and
    flops, averaged per processor — a balanced-schedule lower bound on the
    simulated critical path (the reported gap absorbs the imbalance).
    """
    from ..models.calu_model import calu_cost
    from ..models.matmul_model import caps_message_counts, summa_message_counts
    from ..models.pdgetrf_model import pdgetrf_cost
    from ..models.solve_model import solve_cost

    Pr, Pc = config.nprow, config.npcol
    b = config.b
    if b is None or Pr is None:
        raise ValueError("config must pin grid and block size to be priced")
    P = Pr * Pc

    if workload == "matmul":
        if config.matmul == "caps":
            counts = caps_message_counts(n, n, n, P)
            flops = strassen_flop_count(n, n, n)
        else:
            counts = summa_message_counts(n, n, n, Pr, Pc, b)
            flops = 2.0 * float(n) ** 3
        return CostLedger(
            muladds=flops / P,
            messages_col=counts["messages_col"] / P,
            words_col=counts["words_col"] / P,
            messages_row=counts["messages_row"] / P,
            words_row=counts["words_row"] / P,
            messages_any=counts["messages_any"] / P,
            words_any=counts["words_any"] / P,
            label=f"{config.matmul}(n={n}, P={P}, b={b}) per-proc",
        )

    if config.pivoting == "pp":
        ledger = pdgetrf_cost(n, n, b, Pr, Pc)
    else:
        ledger = calu_cost(n, n, b, Pr, Pc)
    if config.matmul == "caps":
        trailing = (float(n) ** 3 - float(n) ** 3 / 3.0) / P
        ratio = caps_flop_ratio(n, b, Pr, Pc)
        ledger = ledger + CostLedger(
            muladds=trailing * (ratio - 1.0),
            label="strassen trailing-update adjustment",
        )
    return ledger + solve_cost(n, b, Pr, Pc, nrhs=nrhs, refinements=refine)


def predicted_time(
    config: SolveConfig,
    n: int,
    nrhs: int = 1,
    refine: int = 2,
    workload: str = "solve",
) -> float:
    """Predicted seconds of one workload on ``config``'s machine model."""
    machine = config.machine_model()
    if machine is None:
        from ..machines.model import unit_machine

        machine = unit_machine()
    return predicted_ledger(
        config, n, nrhs=nrhs, refine=refine, workload=workload
    ).time(machine)


# ------------------------------------------------------------------ simulation
def simulate_config(
    config: SolveConfig,
    kind: str = "randn",
    n: int = 96,
    nrhs: int = 1,
    seed: int = 0,
    refine: int = 2,
    workload: str = "solve",
) -> float:
    """Simulated seconds of one workload under ``config`` (critical path).

    ``solve`` runs a full :func:`~repro.parallel.psolve.pdgesv` (the
    factorization trace plus the solve trace); ``matmul`` runs one
    standalone :func:`~repro.matmul.pdgemm`.  Deterministic in
    ``(config, kind, n, nrhs, seed)``.
    """
    from ..randmat.generators import randn

    machine = config.machine_model()
    if machine is None:
        from ..machines.model import unit_machine

        machine = unit_machine()
    grid = config.process_grid()

    if workload == "matmul":
        from ..matmul import pdgemm

        A = randn(n, seed=seed + n)
        B = randn(n, seed=seed + n + 104729)
        result = pdgemm(
            A, B, grid=grid, block_size=config.b, matmul=config.matmul,
            machine=machine,
        )
        return float(result.trace.critical_path_time)

    from ..parallel.psolve import pdgesv
    from .factor_cache import generate_matrix

    A = generate_matrix(kind, n, seed=seed)
    x_true = randn(n, nrhs, seed=seed + 7919)
    rhs = A @ x_true
    res = pdgesv(A, rhs, config, refine=refine)
    elapsed = float(res.trace.critical_path_time)
    if res.factorization is not None:
        elapsed += float(res.factorization.trace.critical_path_time)
    return elapsed


# ----------------------------------------------------------------- the search
def tune_point(
    kind: str = "randn",
    n: int = 96,
    nrhs: int = 2,
    P: int = 4,
    machine: str = "ibm_power5",
    seed: int = 0,
    top_k: int = 3,
    refine: int = 2,
    workload: str = "solve",
) -> List[Dict[str, object]]:
    """Search the configuration space for one workload (one row per sim).

    Enumerates every feasible candidate, ranks by predicted time, simulates
    the ``top_k`` best-predicted candidates plus the built-in default, and
    marks the smallest simulated time ``chosen``.  A top-k candidate equal
    to the default shares its simulation; the default row is always
    present, so the chosen configuration's simulated time is ≤ the
    default's by construction.
    """
    candidates = enumerate_candidates(n, P, workload=workload, machine=machine)
    if not candidates:
        raise ValueError(f"no feasible configuration for n={n}, P={P}")
    predictions = [
        predicted_time(c, n, nrhs=nrhs, refine=refine, workload=workload)
        for c in candidates
    ]
    ranked = sorted(zip(predictions, range(len(candidates))))

    baseline = default_config(n, P, machine=machine)

    selected = [
        (prediction, candidates[index])
        for prediction, index in ranked[: max(int(top_k), 1)]
    ]

    simulations: Dict[SolveConfig, float] = {}

    def simulated(config: SolveConfig) -> float:
        if config not in simulations:
            simulations[config] = simulate_config(
                config, kind=kind, n=n, nrhs=nrhs, seed=seed, refine=refine,
                workload=workload,
            )
        return simulations[config]

    entries = [
        (
            "default",
            baseline,
            predicted_time(
                baseline, n, nrhs=nrhs, refine=refine, workload=workload
            ),
            simulated(baseline),
        )
    ]
    for rank, (prediction, config) in enumerate(selected, start=1):
        entries.append((f"top{rank}", config, prediction, simulated(config)))

    best = min(range(len(entries)), key=lambda i: (entries[i][3], entries[i][2]))
    rows: List[Dict[str, object]] = []
    for i, (label, config, prediction, sim) in enumerate(entries):
        rows.append(
            {
                "candidate": label,
                "workload": workload,
                "kind": kind,
                "n": n,
                "P": P,
                "nrhs": nrhs,
                "machine": machine,
                "b": config.b,
                "grid": f"{config.nprow}x{config.npcol}",
                "pivoting": config.pivoting,
                "matmul": config.matmul,
                "predicted_s": prediction,
                "simulated_s": sim,
                "gap": abs(prediction - sim) / sim if sim > 0 else 0.0,
                "chosen": i == best,
                "enumerated": len(candidates),
                "seed": seed,
            }
        )
    return rows


SPEC_TUNE = register(
    ExperimentSpec(
        name="tune",
        title="Config search: rank by model prediction, confirm by simulation",
        runner=tune_point,
        params={"kind": "randn", "n": 96, "nrhs": 2, "P": 4,
                "machine": "ibm_power5", "seed": 0, "top_k": 3, "refine": 2,
                "workload": "solve", "engine": KEYED_ENGINE},
        quick={"n": 48, "nrhs": 1, "top_k": 2},
        columns=("candidate", "workload", "n", "P", "nrhs", "b", "grid",
                 "pivoting", "matmul", "predicted_s",
                 "simulated_s", "gap", "chosen", "enumerated", "seed"),
        paper_ref="Section 6 (machine models) + Equations (2)/(3)",
        sweepable=("kind", "n", "nrhs", "P", "machine", "seed", "workload"),
    )
)


# ------------------------------------------------------------- tuned defaults
def load_tune_artifact(
    ref: str = "latest", store=None
) -> Dict[str, object]:
    """Load one stored tune artifact by path, key prefix, or ``"latest"``."""
    from .store import ResultStore, read_artifact, read_json

    if ref != "latest":
        path = Path(ref)
        if path.is_file():
            artifact = read_artifact(path, read_json)
            if not isinstance(artifact, dict) or artifact.get("spec") != "tune":
                raise ValueError(f"{ref} is not a readable tune artifact")
            return artifact
    if store is None:
        store = ResultStore()
    artifacts = store.artifacts("tune")
    if not artifacts:
        raise ValueError(
            f"no tune artifacts under {store.root}; run `repro tune` first"
        )
    if ref == "latest":
        return artifacts[0]
    matches = [a for a in artifacts if str(a.get("key", "")).startswith(ref)]
    if not matches:
        raise ValueError(f"no tune artifact matching key prefix {ref!r}")
    return matches[0]


def tuned_config(artifact: Dict[str, object]) -> SolveConfig:
    """The chosen :class:`SolveConfig` recorded in a tune artifact."""
    rows: Iterable[Dict[str, object]] = artifact.get("rows") or ()
    row = next((r for r in rows if r.get("chosen")), None)
    if row is None:
        raise ValueError("tune artifact has no chosen row")
    nprow, _, npcol = str(row["grid"]).partition("x")
    # resolve() validates the knobs: an artifact recorded with a knob value
    # that no longer exists fails here, not inside the run.
    return SolveConfig.resolve(
        pivoting=str(row["pivoting"]),
        matmul=str(row["matmul"]),
        grid=(int(nprow), int(npcol)),
        b=int(row["b"]),
        machine=str(row["machine"]) if row.get("machine") else None,
    )


def load_tuned_config(ref: str = "latest", store=None) -> SolveConfig:
    """Convenience: :func:`load_tune_artifact` + :func:`tuned_config`."""
    return tuned_config(load_tune_artifact(ref, store=store))
