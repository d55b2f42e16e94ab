"""Discrete-event simulation of the WSS->NWS pipeline (Fig. 20).

The closed-form pipeline model (Eq. 13) assumes perfectly overlapped
stages.  This simulator executes the pipeline on the shared
:mod:`repro.events` kernel — images arrive, a conv-stage process serves
them one at a time, batches of ``Bsize`` hand off through a
:class:`~repro.events.Store` to a concurrent FCN-stage process — and
measures actual per-image latency and steady-state throughput.  It
validates the analytical model the planner relies on
(``tests/hw/test_eventsim.py`` asserts agreement) and exposes what the
closed form hides: fill/drain transients and per-image latency spread
within a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.events import Simulator, Store
from repro.hw.pipeline import PipelineDesign, pipeline_timing
from repro.hw.specs import FPGASpec
from repro.models.layer_specs import NetworkSpec

__all__ = ["ImageTrace", "PipelineSimResult", "simulate_pipeline"]

#: images per simulated run: several batches past the fill transient
NUM_IMAGES = 64


@dataclass(frozen=True)
class ImageTrace:
    """Lifecycle timestamps of one image through the pipeline.

    Every image arrives at t = 0 (a backlogged source).
    """

    index: int
    conv_start_s: float
    conv_done_s: float
    fcn_done_s: float

    @property
    def service_latency_s(self) -> float:
        """Pipeline service time: conv start to FCN completion — the
        quantity Eq. (13) bounds (queueing under backlog excluded)."""
        return self.fcn_done_s - self.conv_start_s


@dataclass
class PipelineSimResult:
    """Outcome of one simulated run."""

    traces: list[ImageTrace] = field(default_factory=list)
    makespan_s: float = 0.0

    @property
    def images(self) -> int:
        return len(self.traces)

    def steady_state_throughput_ips(self, skip_batches: int, batch: int) -> float:
        """Throughput excluding the first ``skip_batches`` (fill transient)."""
        skip = skip_batches * batch
        if self.images <= skip:
            raise ValueError("not enough images to skip the transient")
        first = self.traces[skip].conv_start_s
        return (self.images - skip) / (self.makespan_s - first)

    @property
    def max_service_latency_s(self) -> float:
        return max(t.service_latency_s for t in self.traces)


def simulate_pipeline(
    design: PipelineDesign,
    inference: NetworkSpec,
    diagnosis: NetworkSpec,
    fpga: FPGASpec,
) -> PipelineSimResult:
    """Run :data:`NUM_IMAGES` images through the two-stage pipeline.

    All images arrive at t = 0: a backlogged source (the conv stage is
    never starved), which is the regime Eq. (13) describes.  Per-image
    conv time and per-batch FCN time come from the same layer models the
    analytical pipeline uses, so any disagreement is purely about stage
    overlap, not about layer costs.
    """
    timing = pipeline_timing(design, inference, diagnosis, fpga)
    conv_per_image = timing.conv_stage_s / design.batch_size
    fcn_per_batch = timing.fcn_stage_s
    batch = design.batch_size

    sim = Simulator()
    handoff: Store = Store(sim)
    traces: list[ImageTrace] = []
    num_batches = (NUM_IMAGES + batch - 1) // batch

    def conv_stage():
        pending: list[tuple[int, float, float]] = []
        for index in range(NUM_IMAGES):
            conv_start = sim.now
            yield sim.timeout(conv_per_image)
            pending.append((index, conv_start, sim.now))
            if len(pending) == batch or index == NUM_IMAGES - 1:
                # Whole batch hands off to the FCN stage together; the
                # unbounded Store lets conv race ahead while FCN drains.
                handoff.put(pending)
                pending = []

    def fcn_stage():
        for _ in range(num_batches):
            batch_images = yield handoff.get()
            yield sim.timeout(fcn_per_batch)
            fcn_done = sim.now
            for img_index, img_cstart, img_cdone in batch_images:
                traces.append(
                    ImageTrace(
                        index=img_index,
                        conv_start_s=img_cstart,
                        conv_done_s=img_cdone,
                        fcn_done_s=fcn_done,
                    )
                )

    sim.process(conv_stage())
    sim.process(fcn_stage())
    makespan = sim.run()
    return PipelineSimResult(traces=traces, makespan_s=makespan)
