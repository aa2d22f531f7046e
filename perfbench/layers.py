"""Which program methods the traced run wraps, and under which layer.

Layer names follow the program's modules.  Each entry wraps public
methods of one class (or module-level functions where another module
imported them by name).  Calls into code that is not listed here are
charged to the nearest listed caller; in particular the DC and PDME
schedulers' dispatch and every unlisted kernel callback land in
``kernel`` (``EventKernel.run_budgeted``), and the private RPC handlers
land in ``kernel`` as well, apart from the decoding and intake they
call, which have layers of their own.
"""

from __future__ import annotations

import importlib

from perfbench.trace import SpanRecorder

#: (module, class, methods, layer)
METHODS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("repro.plant.chiller", "ChillerSimulator",
     ("step", "sample_vibration", "sample_process"), "plant"),
    ("repro.hpc.pipeline", "FeaturePipeline", ("process",), "hpc"),
    ("repro.dsp.batch", "BatchSpectralCache",
     ("full", "averaged", "envelope_spectrum"), "dsp"),
    ("repro.algorithms.dli.engine", "DliExpertSystem", ("analyze",), "algorithms.dli"),
    ("repro.algorithms.fuzzy.engine", "FuzzyDiagnostics", ("analyze",), "algorithms.fuzzy"),
    ("repro.algorithms.sbfr_source", "SbfrKnowledgeSource",
     ("analyze", "analyze_batch"), "algorithms.sbfr"),
    ("repro.dc.concentrator", "DataConcentrator",
     ("run_process_scan", "rms_alarm_scan"), "dc"),
    ("repro.dc.database", "DcDatabase",
     ("store_measurement", "store_measurements", "store_report",
      "uplink_put", "uplink_delete", "save_scheduler_cursor"), "dc.db"),
    ("repro.dc.uplink", "ReportUplink", ("submit", "flush", "flush_batched"), "dc.uplink"),
    ("repro.netsim.kernel", "EventKernel", ("run_budgeted",), "kernel"),
    ("repro.netsim.network", "Network", ("send",), "netsim"),
    ("repro.netsim.rpc", "RpcEndpoint", ("call",), "netsim"),
    ("repro.supervisor.heartbeat", "HeartbeatEmitter", ("emit",), "supervisor"),
    ("repro.supervisor.heartbeat", "HeartbeatMonitor", ("beat", "sweep"), "supervisor"),
    ("repro.supervisor.breaker", "CircuitBreaker",
     ("allow", "record_success", "record_failure"), "supervisor"),
    ("repro.supervisor.breaker", "GuardedEndpoint", ("call",), "supervisor"),
    ("repro.stream.daemon", "StreamDaemon", ("tick",), "stream"),
    ("repro.stream.watchdog", "Watchdog", ("observe",), "stream"),
    ("repro.stream.backpressure", "BackpressureController", ("update",), "stream"),
    ("repro.stream.catchup", "CatchupController", ("pending", "update"), "stream"),
    ("repro.pdme.executive", "PdmeExecutive", ("submit", "submit_batch"), "pdme"),
    ("repro.oosm.model", "ShipModel", ("post_report", "post_reports"), "oosm"),
    ("repro.pdme.shard", "ShardedPdme", ("submit_batch", "fused_snapshot"), "pdme.shard"),
    ("repro.pdme.shard", "ShardWorker", ("ingest_batch", "fused_snapshot"), "pdme.shard"),
    ("repro.fusion.engine", "KnowledgeFusionEngine", ("ingest", "ingest_batch"), "fusion"),
    ("repro.fusion.diagnostic", "DiagnosticFusion", ("ingest",), "fusion.diagnostic"),
    ("repro.fusion.prognostic", "PrognosticFusion", ("ingest",), "fusion.prognostic"),
    ("repro.oosm.persistence", "ReportStore",
     ("ingest", "ingest_batch", "page_after", "rows"), "oosm.log"),
    ("repro.gateway.service", "FleetGateway",
     ("fleet_health", "fleet_health_json", "health", "health_json",
      "alarms", "alarms_json", "reports"), "gateway"),
    ("repro.gateway.service", "FleetGateway", ("post_reports",), "gateway.write"),
)

#: (importing module, function name, layer)
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("repro.netsim.rpc", "encode_message", "protocol"),
    ("repro.netsim.rpc", "decode_message", "protocol"),
    ("repro.dc.database", "encode_report", "protocol"),
    ("repro.dc.database", "decode_report", "protocol"),
    ("repro.dc.uplink", "encode_report", "protocol"),
    ("repro.dc.uplink", "decode_report", "protocol"),
    ("repro.oosm.persistence", "encode_report", "protocol"),
    ("repro.oosm.persistence", "decode_report", "protocol"),
    ("repro.pdme.executive", "decode_report", "protocol"),
    ("repro.gateway.service", "decode_report", "protocol"),
    ("repro.gateway.service", "canonical_dumps", "protocol.canonical"),
    ("repro.pdme.shard", "canonical_dumps", "protocol.canonical"),
)

#: Every layer, in pipeline order (the per-layer ``<layer>.busy_s``).
LAYERS: tuple[str, ...] = (
    "plant", "hpc", "dsp", "algorithms.dli", "algorithms.fuzzy",
    "algorithms.sbfr", "dc", "dc.db", "dc.uplink", "kernel", "netsim",
    "protocol", "supervisor", "stream", "pdme", "oosm", "pdme.shard",
    "fusion", "fusion.diagnostic", "fusion.prognostic", "fusion.snapshot",
    "oosm.log", "protocol.canonical", "gateway", "gateway.write",
    "gateway.replica",
)

#: Per-round counts: (name, unit).  Taken at wrapped boundaries or
#: read from the program's own stats after the round.
COUNTS: tuple[tuple[str, str], ...] = (
    ("dc.scans", "count"),
    ("dc.reports", "count"),
    ("dc.uplink.retries", "count"),
    ("dc.uplink.first_try_ratio", "ratio"),
    ("netsim.events", "count"),
    ("netsim.frames", "count"),
    ("supervisor.heartbeats", "count"),
    ("pdme.duplicates", "count"),
    ("pdme.intake.useful_ratio", "ratio"),
    ("fusion.rejected", "count"),
    ("fusion.snapshot.curves", "count"),
    ("oosm.log.rows", "count"),
    ("gateway.cache.hits", "count"),
    ("gateway.cache.misses", "count"),
    ("gateway.cache.hit_ratio", "ratio"),
    ("gateway.page_rows", "count"),
)


def install(rec: SpanRecorder, counts: dict[str, float]) -> None:
    """Wrap every listed method and function; boundary counts go to
    ``counts`` (the caller resets it per round)."""

    def bump(name: str, by):
        def observe(result, args) -> None:
            counts[name] = counts.get(name, 0) + by(result)
        return observe

    for module, cls_name, names, layer in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        rec.wrap_methods(cls, layer, names)
    for module, name, layer in FUNCTIONS:
        rec.wrap_function(module, name, layer)
    mod = importlib.import_module
    rec.wrap_methods(
        mod("repro.dc.concentrator").DataConcentrator, "dc",
        ("run_vibration_tests",), bump("dc.scans", lambda r: 1),
    )
    rec.wrap_methods(
        mod("repro.fusion.engine").KnowledgeFusionEngine, "fusion.snapshot",
        ("fused_snapshot",), bump("fusion.snapshot.curves", lambda r: len(r["prognostic"])),
    )
    rec.wrap_methods(
        mod("repro.gateway.replica").ReadReplica, "gateway.replica",
        ("page_after",), bump("gateway.page_rows", len),
    )
