"""Which public callables of ``src/repro`` each per-layer span wraps.

One row per span name; a span may wrap several callables of one layer
(``ImageGenerator.batch`` and ``.generate`` are both ``data.render``).
``inclusive`` spans additionally report ``<span>.incl_s``.  The names
here, plus :data:`DERIVED_METRICS`, are exactly the ``per_layer`` names in
``BENCHMARK.json`` — ``test_harness.py`` holds the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

import tracing


def _add(counters: dict, key: str, amount) -> None:
    counters[key] = counters.get(key, 0) + amount


def _count_flags(counters: dict, mask) -> None:
    _add(counters, "diagnosis.scanned", len(mask))
    _add(counters, "diagnosis.flagged", int(mask.sum()))


def _count_rollout(counters: dict, rollout) -> None:
    _add(counters, "fleet.rollouts", 1)
    _add(counters, "fleet.promotions", int(rollout.promoted))


def _count_cloud_cost(counters: dict, outcome) -> None:
    _add(counters, "cloud.sim_update_time_s", outcome.modeled_update_time_s)
    _add(counters, "cloud.sim_energy_j", outcome.modeled_cloud_energy_j)


@dataclass(frozen=True)
class LayerSpan:
    name: str
    targets: tuple[str, ...]
    inclusive: bool = False
    observe: object = None  # (counters, result) -> None


_DIAGNOSERS = tuple(
    f"repro.diagnosis.diagnoser:{cls}.flags"
    for cls in (
        "JigsawDiagnoser",
        "InferenceConfidenceDiagnoser",
        "OracleDiagnoser",
        "RandomDiagnoser",
    )
)

LAYER_SPANS: tuple[LayerSpan, ...] = (
    # data
    LayerSpan("data.render", (
        "repro.data.images:ImageGenerator.batch",
        "repro.data.images:ImageGenerator.generate",
    )),
    LayerSpan("data.drift", (
        "repro.data.drift:DriftModel.apply_batch",
        "repro.data.drift:DriftModel.apply",
    )),
    LayerSpan("data.cache", ("repro.data.cache:DatasetCache.get_or_build",)),
    # selfsup / cloud start-up
    LayerSpan("selfsup.pretrain", (
        "repro.core.cloud:InSituCloud.unsupervised_pretrain",
    ), inclusive=True),
    LayerSpan("core.cloud.init", (
        "repro.core.cloud:InSituCloud.initialize_inference",
    ), inclusive=True),
    # nn
    LayerSpan("nn.forward", ("repro.nn.network:Sequential.forward",), inclusive=True),
    LayerSpan("nn.backward", ("repro.nn.network:Sequential.backward",), inclusive=True),
    LayerSpan("nn.conv.forward", ("repro.nn.conv:Conv2D.forward",)),
    LayerSpan("nn.conv.backward", ("repro.nn.conv:Conv2D.backward",)),
    LayerSpan("nn.im2col", ("repro.nn.im2col:im2col",)),
    LayerSpan("nn.col2im", ("repro.nn.im2col:col2im",)),
    # node / diagnosis
    LayerSpan("core.node.process_stage", (
        "repro.core.node:InSituNode.process_stage",
    ), inclusive=True),
    # Nodes call ``flags`` directly; ``diagnose`` (the Cloud-side scan of
    # system b) calls ``flags`` too, and only the leaf counts the mask.
    LayerSpan("diagnosis.diagnose", _DIAGNOSERS, inclusive=True, observe=_count_flags),
    LayerSpan("diagnosis.diagnose", (
        "repro.diagnosis.diagnoser:Diagnoser.diagnose",
    ), inclusive=True),
    # transfer
    LayerSpan("transfer.train", (
        "repro.transfer.finetune:train_classifier",
    ), inclusive=True),
    LayerSpan("transfer.distill", (
        "repro.transfer.distill:distill_classifier",
    ), inclusive=True),
    LayerSpan("transfer.evaluate", (
        "repro.transfer.finetune:evaluate",
    ), inclusive=True),
    # cloud / registry
    LayerSpan("core.cloud.update", (
        "repro.core.cloud:InSituCloud.incremental_update",
    ), inclusive=True),
    LayerSpan("core.registry.check", (
        "repro.core.registry:UpdateGuard.check",
    ), inclusive=True),
    LayerSpan("core.registry.publish", ("repro.core.registry:ModelRegistry.publish",)),
    # fleet
    LayerSpan("fleet.cloud_try_update", (
        "repro.fleet.simulation:cloud_try_update",
    ), inclusive=True, observe=_count_cloud_cost),
    LayerSpan("fleet.cloud_initialize", (
        "repro.fleet.simulation:cloud_initialize",
    ), observe=_count_cloud_cost),
    LayerSpan("fleet.scheduler.rollout", (
        "repro.fleet.scheduler:FleetScheduler.rollout",
    ), inclusive=True, observe=_count_rollout),
    LayerSpan("fleet.uplink.solve", (
        "repro.fleet.uplink:SharedUplink.stage_upload_times",
        "repro.fleet.uplink:SharedUplink.push_times",
        "repro.fleet.uplink:SharedUplink.transfer_times",
    )),
    LayerSpan("fleet.pool.startup", ("repro.fleet.pool:FleetWorkerPool.__init__",)),
    LayerSpan("fleet.pool.publish", ("repro.fleet.pool:FleetWorkerPool.publish",)),
    LayerSpan("fleet.pool.run_stage", (
        "repro.fleet.pool:FleetWorkerPool.run_stage",
    ), inclusive=True),
    LayerSpan("fleet.pool.shutdown", ("repro.fleet.pool:FleetWorkerPool.shutdown",)),
    # events
    LayerSpan("events.kernel.run", ("repro.events.kernel:Simulator.run",), inclusive=True),
    LayerSpan("events.flows.transfer", ("repro.events.flows:FlowLink.transfer",)),
    # topology
    LayerSpan("topology.gateway.buffer", (
        "repro.topology.gateway:GatewayBuffer.offer",
        "repro.topology.gateway:GatewayBuffer.flush",
    )),
    LayerSpan("topology.second_opinion", (
        "repro.topology.gateway:SecondOpinion.resolve",
    )),
    # scenario
    LayerSpan("scenario.load_spec", ("repro.scenario.schema:load_spec_file",)),
    LayerSpan("scenario.build_plans", ("repro.scenario.processes:build_plans",)),
    LayerSpan("scenario.prepare_assets", (
        "repro.scenario.assets:prepare_scenario_assets",
    ), inclusive=True),
    LayerSpan("scenario.run_replicate", (
        "repro.scenario.summary:run_replicate",
    ), inclusive=True),
    LayerSpan("scenario.head_updates", (
        "repro.scenario.heads:run_head_updates",
    ), inclusive=True),
    LayerSpan("scenario.summary", ("repro.scenario.summary:build_summary",)),
)

#: counted without a span: one call per simulated event is too hot
EVENT_COUNTER = ("events.kernel.events", "repro.events.kernel:Simulator.step")

#: root spans the harness opens itself (no wrapped callable)
ROOT_SPANS = ("engine.run",)

#: per-layer metrics computed from counters, reports and rusage rather
#: than read off one span: name -> unit
DERIVED_METRICS: dict[str, str] = {
    "data.cache.hit_share": "fraction",
    "diagnosis.flagged_share": "fraction",
    "core.cloud.sim_update_time_s": "s",
    "core.cloud.sim_energy_kj": "kJ",
    "fleet.scheduler.promoted_share": "fraction",
    "fleet.pool.parallel_efficiency": "fraction",
    "events.kernel.events": "count",
    "events.kernel.self_us_per_event": "us",
    "comm.upload_mb": "MB",
    "comm.download_mb": "MB",
    "sim.final_accuracy": "fraction",
    "sim.node_epochs": "count",
    "host.user_s": "s",
    "host.sys_s": "s",
    "host.child_cpu_s": "s",
    "host.minor_faults": "count",
    "harness.trace_overhead_share": "fraction",
    "harness.unattributed_share": "fraction",
}


def span_metric_units() -> dict[str, str]:
    """``<span>.self_s`` / ``.calls`` (/ ``.incl_s``) names -> unit."""
    units: dict[str, str] = {}
    inclusive = {s.name for s in LAYER_SPANS if s.inclusive} | set(ROOT_SPANS)
    for name in [s.name for s in LAYER_SPANS] + list(ROOT_SPANS):
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
        if name in inclusive:
            units[f"{name}.incl_s"] = "s"
    return units


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the runner prints, with its unit."""
    return {**span_metric_units(), **DERIVED_METRICS}


def install_all(recorder: tracing.SpanRecorder) -> list[tracing.Patch]:
    """Wrap every layer callable; returns what :func:`tracing.remove` undoes."""
    patches: list[tracing.Patch] = []
    for layer in LAYER_SPANS:
        for target in layer.targets:
            patches += tracing.install(
                target,
                lambda fn, layer=layer: recorder.wrap(
                    layer.name, fn, layer.observe
                ),
            )
    counter_name, counter_target = EVENT_COUNTER
    patches += tracing.install(
        counter_target, lambda fn: recorder.count_calls(counter_name, fn)
    )
    return patches
