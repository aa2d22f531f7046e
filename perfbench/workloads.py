"""The three benchmark workloads.

Each workload is a closed loop run from one thread of one process and
starts no program threads or processes.  It is run in *rounds*: every
round builds fresh program objects from the same seeded inputs and
pushes the same fixed amount of work through them, so rounds are
interchangeable units, memory does not grow with run length, and a
traced round can be compared with an untraced one.

A workload provides

``tail_pct``
    the fixed percentile reported as ``op_tail_s``;
``build()``
    construct the program objects for one round (timed for ``setup_s``
    on the first rounds; for ``fleet_query`` this includes the preload
    through the program's intake);
``run_round(inst, ops)``
    the timed phase: returns the work done, in the workload's unit,
    while ``ops`` records one latency sample per operation;
``check(inst, final)``
    the output checks, outside the timed phase (failure messages);
    ``final`` marks the run's last round, which gets every check even
    where a check is too slow to repeat after each round;
``counts(inst)``
    per-round counts for the per-layer metrics of the traced run;
``close(inst)``
    release files and connections.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path

from repro import build_mpros_system
from repro.gateway import gateway_for_sharded
from repro.obs.registry import MetricsRegistry
from repro.oosm.shipyard import build_chilled_water_ship
from repro.pdme.shard import ShardedPdme, registry_for_plant
from repro.plant.faults import FaultKind, seeded
from repro.stream import StreamDaemon

from perfbench import checks
from perfbench.streams import fleet_stream

_clock = time.perf_counter


class OpTimer:
    """Latency samples and failure counts for one workload's operation."""

    def __init__(self, recorder=None) -> None:
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.recorder = recorder

    def begin(self) -> float:
        if self.recorder is not None:
            self.recorder.op_id = self.attempted
        self.attempted += 1
        return _clock()

    def end(self, t0: float, ok: bool = True) -> None:
        self.samples.append(_clock() - t0)
        if not ok:
            self.failed += 1
        if self.recorder is not None:
            self.recorder.op_id = None

    def call(self, fn, *args):
        """Time ``fn(*args)``; an exception counts the operation as
        failed and is kept in ``errors``, and the call returns None."""
        t0 = self.begin()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            self.end(t0, ok=False)
            self.errors.append(f"{getattr(fn, '__qualname__', fn)}: {exc!r}")
            return None
        self.end(t0)
        return result


# -- shipboard_scan ---------------------------------------------------------

class ShipboardScan:
    """The Figure-1 system under the streaming daemon.

    Six chillers, one DC each, over one simulated hour per round with
    a 300 s vibration period.  Four chillers carry a seeded step fault,
    one of each kind in ``FAULTS``; the seed draws which chillers, the
    onsets and the severities.  Two chillers stay healthy.  The mix of
    kinds is fixed so that every seed asks the suites for the same
    kinds of analysis.  The operation is one vibration scan
    (``DataConcentrator.run_vibration_tests``); the work unit is one
    monitored machine-hour.
    """

    name = "shipboard_scan"
    tail_pct = 95.0
    chillers = 6
    hours = 1.0
    vibration_period = 300.0
    FAULTS = (
        FaultKind.MOTOR_IMBALANCE, FaultKind.BEARING_WEAR,
        FaultKind.REFRIGERANT_LEAK, FaultKind.CONDENSER_FOULING,
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        rng = random.Random(seed)
        faulted = rng.sample(range(self.chillers), len(self.FAULTS))
        #: chiller index -> (fault kind, onset s, severity)
        self.plan = {
            i: (kind, rng.uniform(300.0, 1500.0), rng.uniform(0.6, 0.8))
            for i, kind in zip(faulted, self.FAULTS)
        }

    def build(self):
        system = build_mpros_system(
            n_chillers=self.chillers, seed=self.seed,
            vibration_period=self.vibration_period,
            metrics=MetricsRegistry(), plant="chiller",
        )
        units = [u.primary for u in system.units]
        for i, (kind, onset, severity) in self.plan.items():
            system.inject_fault(units[i], seeded(kind, onset, severity))
        daemon = StreamDaemon(system, metrics=system.metrics)
        return {"system": system, "daemon": daemon, "report": None}

    def run_round(self, inst, ops: OpTimer) -> float:
        system = inst["system"]
        for dc in system.dcs:
            scan = dc.run_vibration_tests

            def timed_scan(now, n_samples=32768, scan=scan, dc=dc):
                errors = len(dc.source_errors)
                t0 = ops.begin()
                ok = False
                try:
                    result = scan(now, n_samples)
                    ok = len(dc.source_errors) == errors
                    return result
                finally:
                    ops.end(t0, ok)

            # The DC schedule calls ``self.run_vibration_tests`` at run
            # time, so an instance attribute intercepts every scan.
            dc.run_vibration_tests = timed_scan
        inst["report"] = inst["daemon"].run_for(self.hours * 3600.0)
        return self.chillers * self.hours

    def check(self, inst, final: bool) -> list[str]:
        system = inst["system"]
        units = [u.primary for u in system.units]
        seeded_map = {units[i]: k.condition_id for i, (k, _, _) in self.plan.items()}
        reported = {
            (r.sensed_object_id, r.machine_condition_id)
            for r in system.model.all_reports()
        }
        failures = checks.check_shipboard(
            sent=sum(dc.reports_sent for dc in system.dcs),
            in_oosm=system.reports_received(),
            backlog=system.uplink_backlog(),
            reported=reported,
            seeded=seeded_map,
            healthy=set(units) - set(seeded_map),
            health=dict(inst["report"].final_health),
        )
        for dc in system.dcs:
            failures += [f"{dc.dc_id} task {n} raised {e!r}" for n, e in dc.scheduler.errors]
        return failures

    def counts(self, inst) -> dict[str, float]:
        system = inst["system"]
        queued = sum(u.stats.queued for u in system.uplinks)
        retries = sum(u.stats.retries for u in system.uplinks)
        return {
            "dc.reports": sum(dc.reports_sent for dc in system.dcs),
            "dc.uplink.retries": retries,
            "dc.uplink.first_try_ratio": queued / (queued + retries) if queued else 1.0,
            "netsim.events": inst["report"].events_executed,
            "netsim.frames": system.network.stats()["sent"],
            "supervisor.heartbeats": sum(h.seq for h in system.heartbeats),
            "fusion.rejected": system.pdme.engine.stats.rejected,
        }

    def close(self, inst) -> None:
        for dc in inst["system"].dcs:
            dc.database.close()


# -- shared partition set-up --------------------------------------------------

def _fresh_pdme(workdir: Path) -> ShardedPdme:
    """Two file-backed partitions in an emptied directory.

    The logs keep SQLite's WAL append and commit path, but their
    connections skip the fsync at commit (``synchronous=OFF``), which
    is what a RAM-backed file system would make of it.  The benchmark
    may write only inside its checkout, which can sit on a shared
    virtual disk whose fsync latency swings from minute to minute.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pdme = ShardedPdme(
        2,
        registry_factory=lambda: registry_for_plant("chiller"),
        store_paths=[workdir / "shard-0.sqlite", workdir / "shard-1.sqlite"],
    )
    for worker in pdme.workers:
        worker.store._conn.execute("PRAGMA synchronous=OFF")
    return pdme


def _intake_totals(pdme: ShardedPdme) -> dict[str, float]:
    return {
        "oosm.log.rows": pdme.report_count,
        "pdme.duplicates": pdme.duplicates_dropped,
        "fusion.rejected": sum(w.engine.stats.rejected for w in pdme.workers),
    }


def _pdme_counts(pdme: ShardedPdme, submitted: int,
                 before: dict[str, float] | None = None) -> dict[str, float]:
    """Intake counts since the ``before`` totals, for ``submitted``
    reports."""
    out = _intake_totals(pdme)
    if before is not None:
        out = {k: v - before[k] for k, v in out.items()}
    rows = out["oosm.log.rows"]
    out["pdme.intake.useful_ratio"] = rows / submitted if submitted else 1.0
    return out


# -- fleet_ingest -------------------------------------------------------------

class FleetIngest:
    """Fleet report intake through the sharded PDME router.

    Each round lands the same seeded stream (10,000 deliveries over 400
    machines, ~3 % of them retries) into two fresh file-backed
    partitions through ``ShardedPdme.submit_batch`` in 157 batches of
    64, the batch size of the program's own uplink and catch-up paths.
    The operation is one batch; the work unit is one submitted report.
    """

    name = "fleet_ingest"
    tail_pct = 90.0
    machines = 400
    deliveries = 10_000
    batch = 64

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir / self.name
        objects = [f"obj:m{i:04d}" for i in range(self.machines)]
        self.stream = fleet_stream(seed, objects, self.deliveries)
        self.unique = self.stream.first_deliveries()

    def build(self):
        return {"pdme": _fresh_pdme(self.workdir)}

    def run_round(self, inst, ops: OpTimer) -> float:
        pdme = inst["pdme"]
        reports, ids, b = self.stream.reports, self.stream.ids, self.batch
        for i in range(0, len(reports), b):
            ops.call(pdme.submit_batch, reports[i:i + b], ids[i:i + b])
        return len(reports)

    def check(self, inst, final: bool) -> list[str]:
        pdme = inst["pdme"]
        failures = checks.check_intake(
            pdme.report_count, pdme.duplicates_dropped, self.stream
        )
        if final:
            # Re-basing every retained curve costs about a round's time.
            snapshot = pdme.fused_snapshot()
            failures += checks.check_diagnostic(
                snapshot, self.unique, registry_for_plant("chiller")
            )
            failures += checks.check_prognostic(snapshot, self.unique)
        return failures

    def counts(self, inst) -> dict[str, float]:
        return _pdme_counts(inst["pdme"], len(self.stream.reports))

    def close(self, inst) -> None:
        inst["pdme"].close()


# -- fleet_query --------------------------------------------------------------

class FleetQuery:
    """Operator dashboards on the gateway over a live sharded PDME.

    Sixteen chillers (96 monitored machines).  Each round preloads a
    seeded history of 1,600 reports, then runs 10 cycles of one bulk
    write of 8 reports through ``FleetGateway.post_reports`` followed
    by 10 dashboard refreshes.  A refresh is fleet health + alarms +
    health for four objects (chillers and machines in rotation) + the
    next 64-row keyset page of the report log.  The operation is one
    refresh; the work unit is one refresh.  Every round builds its own
    ship model: a gateway stays subscribed to its model's event bus.
    """

    name = "fleet_query"
    tail_pct = 95.0
    chillers = 16
    preload = 1600
    cycles = 10
    write = 8
    refreshes = 10
    health_per_refresh = 4
    page = 64
    threshold = 0.5

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir / self.name
        model, _, units = build_chilled_water_ship(n_chillers=self.chillers)
        machines = [m for u in units for m in u.machines()]
        self.stream = fleet_stream(
            seed, machines, self.preload + self.cycles * self.write
        )
        self.targets = [u.chiller for u in units] + machines[::7]
        self.edges = [
            (rel.source_id, rel.target_id)
            for rel in model.relationships()
            if rel.kind == "part-of"
        ]

    def build(self):
        pdme = _fresh_pdme(self.workdir)
        model, _, _ = build_chilled_water_ship(n_chillers=self.chillers)
        gw = gateway_for_sharded(model, pdme, metrics=MetricsRegistry())
        # A retry whose original was preloaded lands in a later write
        # and is dropped there, as an at-least-once redelivery would be.
        gw.post_reports(
            self.stream.reports[:self.preload], self.stream.ids[:self.preload]
        )
        return {"pdme": pdme, "gw": gw, "cursor": None, "refresh": 0}

    def refresh(self, inst) -> None:
        gw = inst["gw"]
        gw.fleet_health_json()
        gw.alarms_json(self.threshold)
        n = inst["refresh"]
        for k in range(self.health_per_refresh):
            gw.health_json(self.targets[(n * self.health_per_refresh + k) % len(self.targets)])
        page = gw.reports(inst["cursor"], self.page)
        inst["cursor"] = page.next_cursor
        inst["refresh"] = n + 1

    def run_round(self, inst, ops: OpTimer) -> float:
        gw = inst["gw"]
        reports, ids = self.stream.reports, self.stream.ids
        inst["hits0"], inst["misses0"] = gw.cache.hits, gw.cache.misses
        inst["intake0"] = _intake_totals(inst["pdme"])
        for pos in range(self.preload, len(reports), self.write):
            gw.post_reports(reports[pos:pos + self.write], ids[pos:pos + self.write])
            for _ in range(self.refreshes):
                ops.call(self.refresh, inst)
        inst["hits1"], inst["misses1"] = gw.cache.hits, gw.cache.misses
        return self.cycles * self.refreshes

    def check(self, inst, final: bool) -> list[str]:
        gw = inst["gw"]
        failures = []
        oracle = gw.fleet_health_json(use_cache=False)
        if gw.fleet_health_json() != oracle:
            failures.append("cached fleet health differs from the uncached oracle")
        snapshot = json.loads(oracle)
        failures += checks.check_alarms(gw.alarms_json(self.threshold), snapshot, self.threshold)
        for obj in self.targets:
            scope = checks.part_closure(self.edges, obj)
            failures += checks.check_health(gw.health_json(obj), snapshot, scope, obj)
        served = []
        cursor = None
        while True:
            page = gw.reports(cursor, 500)
            served += [item.report_id for item in page.items]
            cursor = page.next_cursor
            if cursor is None:
                break
        failures += checks.check_drain(served, self.stream.ids)
        return failures

    def counts(self, inst) -> dict[str, float]:
        gw = inst["gw"]
        hits = inst["hits1"] - inst["hits0"]
        misses = inst["misses1"] - inst["misses0"]
        # The preload in build() is not part of the round.
        out = _pdme_counts(inst["pdme"], self.cycles * self.write, inst["intake0"])
        out.update({
            "gateway.cache.hits": hits,
            "gateway.cache.misses": misses,
            "gateway.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        })
        return out

    def close(self, inst) -> None:
        inst["gw"].replica.close()
        inst["pdme"].close()


WORKLOADS = {w.name: w for w in (ShipboardScan, FleetIngest, FleetQuery)}
