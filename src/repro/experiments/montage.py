"""Figure 15: Montage execution time by stage (§5.2).

Three versions, as in the paper:

* **Swift + clustered GRAM4+PBS** — the DAG through the clustered
  provider;
* **Swift + Falkon** — the DAG through a Falkon dispatcher (the final
  co-add is a single serial task, so "Falkon performs poorly in this
  step");
* **MPI** — the Montage team's barrier-synchronised version, modelled
  analytically: every stage runs on all processors with a per-stage
  initialisation/aggregation cost, data pre-staged, and — uniquely —
  the final co-add parallelised.

Paper shape: Falkon ≈ MPI overall; excluding the final mAdd,
Swift+Falkon beats MPI by ~5 % (1 067 s vs 1 120 s); Pegasus/GRAM-style
clustered submission is slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.node import Cluster, ClusterSpec, NodeSpec
from repro.config import FalkonConfig
from repro.core.system import FalkonSystem
from repro.dag import ClusteredGramProvider, FalkonProvider, WorkflowEngine
from repro.lrm.gram import Gram4Gateway
from repro.lrm.pbs import make_pbs
from repro.sim import Environment
from repro.workloads.montage import MontageShape, montage_workflow

__all__ = ["MontageResult", "run_montage", "mpi_stage_times", "PAPER_ANCHORS_MONTAGE"]

PAPER_ANCHORS_MONTAGE = {
    "falkon_total_wo_final_add": 1067.0,
    "mpi_total_wo_final_add": 1120.0,
}

PROCESSORS = 32
#: Per-stage MPI initialisation + aggregation cost ("the MPI version
#: performs initialization and aggregation actions before each step").
MPI_STAGE_OVERHEAD = 20.0


@dataclass
class MontageResult:
    stage_times: dict[str, dict[str, float]]  # version -> stage -> seconds

    def total(self, version: str, include_final_add: bool = True) -> float:
        times = self.stage_times[version]
        return sum(
            seconds
            for stage, seconds in times.items()
            if include_final_add or stage != "mAdd"
        )


def mpi_stage_times(shape: MontageShape, processors: int = PROCESSORS) -> dict[str, float]:
    """Analytic MPI model: barrier per stage, all stages parallelised."""
    counts = {
        "mProject": (shape.images, shape.project_secs),
        "mOverlap": (1, shape.overlap_secs),
        "mDiff": (shape.overlaps, shape.diff_secs),
        "mFit": (shape.overlaps, shape.fit_secs),
        "mBgModel": (1, shape.bgmodel_secs),
        "mBackground": (shape.images, shape.background_secs),
        "mAddTile": (shape.tiles, shape.tile_secs),
        # The MPI version parallelises the final co-add.
        "mAdd": (processors, shape.final_add_secs / processors),
    }
    return {
        stage: MPI_STAGE_OVERHEAD + math.ceil(count / processors) * seconds
        for stage, (count, seconds) in counts.items()
    }


def _falkon_run(shape: MontageShape) -> dict[str, float]:
    system = FalkonSystem(FalkonConfig.paper_defaults())
    system.static_pool(PROCESSORS)
    engine = WorkflowEngine(system.env, FalkonProvider(system.env, system.dispatcher))
    result = engine.run_to_completion(montage_workflow(shape))
    assert result.ok
    return result.stage_elapsed()


def _clustered_run(shape: MontageShape) -> dict[str, float]:
    env = Environment()
    cluster = Cluster(
        env, ClusterSpec(name="montage", nodes=PROCESSORS, node=NodeSpec(processors=1))
    )
    gateway = Gram4Gateway(env, make_pbs(env, cluster))
    engine = WorkflowEngine(
        env,
        # Time-window clustering: DAG tasks trickle in as dependencies
        # complete, so groups are formed over 60 s batches (Swift-style).
        ClusteredGramProvider(env, gateway, clusters=PROCESSORS, batch_window=60.0),
    )
    result = engine.run_to_completion(montage_workflow(shape))
    assert result.ok
    return result.stage_elapsed()


def run_montage(shape: MontageShape | None = None) -> MontageResult:
    shape = shape or MontageShape()
    return MontageResult(
        stage_times={
            "GRAM4+PBS clustered": _clustered_run(shape),
            "Falkon": _falkon_run(shape),
            "MPI": mpi_stage_times(shape),
        }
    )
