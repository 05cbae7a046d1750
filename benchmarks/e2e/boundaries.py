"""Where the tracer cuts: the layers and the boundary names between them.

Layers are the packages under ``src/repro/`` that an op can execute.  Every
function and SPMD program a layer exports through its package ``__all__`` is
a boundary; ``EXTRA`` adds the public methods and module-level functions the
per-layer metrics are defined on, which ``__all__`` does not reach.

Deliberately *not* wrapped, so their time stays in the caller's self time:
``ProcessGrid.rank/coords/row_ranks/column_ranks``, the ``BlockCyclic2D``
index maps (``global_to_local_*``, ``local_rows/cols``), ``FlopCounter.add_*``
and ``MachineModel.message_time/compute_time``.  They run hundreds of
thousands of times per op for well under a microsecond each; a span around
them would measure mostly the span.
"""

from __future__ import annotations

LAYERS = (
    "kernels",
    "core",
    "layouts",
    "distsim",
    "scalapack",
    "matmul",
    "parallel",
    "machines",
    "harness",
)

#: ``(spec, kind)``: ``kind`` None = detect; "gen" = plain function returning
#: a generator; "outermost" = recursive, span the outermost call only.
EXTRA = (
    ("repro.distsim.engine.base:payload_words", "outermost"),
    ("repro.distsim.engine.base:Communicator.send", None),
    ("repro.distsim.engine.base:Communicator.charge_flops", None),
    ("repro.distsim.engine.base:Communicator.charge_counter", None),
    ("repro.distsim.engine.group_ops:evaluate_collective", None),
    ("repro.matmul.base:MatmulBackend.share_panel", "gen"),
    ("repro.matmul.base:MatmulBackend.update_trailing", None),
    ("repro.layouts.block_cyclic:BlockCyclic2D.scatter", None),
    ("repro.layouts.block_cyclic:BlockCyclic2D.gather", None),
    ("repro.kernels.getf2:getf2_nopivot", None),
    ("repro.harness.factor_cache:FactorCache.fetch_or_factor", None),
    ("repro.harness.factor_cache:FactorCache.load", None),
    ("repro.harness.factor_cache:FactorCache.save", None),
    ("repro.harness.store:ResultStore.fetch_or_run", None),
    ("repro.harness.serving:SolveService.submit", None),
    ("repro.harness.serving:SolveService._serve", None),
)

#: Private names: useful (the dispatcher's own batching time), not required.
OPTIONAL = frozenset({"repro.harness.serving:SolveService._serve"})
