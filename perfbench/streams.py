"""Seeded synthetic report streams for the fleet workloads.

The stream stands for what DCs deliver to the PDME: every chiller
machine condition, four knowledge sources, most reports carrying a
3-point prognostic vector, a few percent of at-least-once retries
(the same report id delivered again a little later) and bounded
timestamp disorder (§5.1: "incomplete, time-disordered, fragmentary").
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.fusion.groups import default_chiller_groups
from repro.protocol.prognostic import PrognosticVector
from repro.protocol.report import FailurePredictionReport

SOURCES = ("ks:dli", "ks:fuzzy", "ks:sbfr", "ks:wnn")

#: Share of reports that carry a 3-point prognostic vector.
PROGNOSTIC_SHARE = 0.75

#: Share of reports delivered a second time under the same id.
DUPLICATE_SHARE = 0.03

#: A retry lands at most this many reports after its original.
RETRY_WINDOW = 40

#: Report timestamps trail their arrival slot by up to this many seconds.
DISORDER_S = 120.0

#: Simulated seconds between successive arrival slots.
SLOT_S = 2.0


@dataclass
class Stream:
    """A delivery stream: reports with ids, in arrival order."""

    reports: list[FailurePredictionReport]
    ids: list[str]
    distinct: int
    duplicates: int

    def first_deliveries(self) -> list[FailurePredictionReport]:
        """Each distinct report once, in the order it first arrived."""
        seen: set[str] = set()
        out = []
        for report, rid in zip(self.reports, self.ids):
            if rid not in seen:
                seen.add(rid)
                out.append(report)
        return out


def chiller_conditions() -> list[str]:
    """Every machine condition of the chiller logical groups."""
    return sorted(c for g in default_chiller_groups().groups() for c in g.conditions)


def _report(rng: random.Random, obj: str, cond: str, ks: str, t: float):
    prognostic = PrognosticVector.empty()
    if rng.random() < PROGNOSTIC_SHARE:
        h1 = rng.uniform(1.0, 24.0) * 3600.0
        h2 = h1 + rng.uniform(6.0, 72.0) * 3600.0
        h3 = h2 + rng.uniform(24.0, 240.0) * 3600.0
        p1 = rng.uniform(0.01, 0.3)
        p2 = p1 + rng.uniform(0.0, 0.4)
        p3 = min(1.0, p2 + rng.uniform(0.0, 0.5))
        prognostic = PrognosticVector.from_pairs([(h1, p1), (h2, p2), (h3, p3)])
    return FailurePredictionReport(
        knowledge_source_id=ks,
        sensed_object_id=obj,
        machine_condition_id=cond,
        severity=rng.uniform(0.05, 0.95),
        belief=rng.uniform(0.05, 0.6),
        timestamp=t,
        dc_id=f"dc:{obj}",
        prognostic=prognostic,
    )


def fleet_stream(
    seed: int, objects: list[str], deliveries: int, t0: float = 10_000.0
) -> Stream:
    """``deliveries`` report deliveries over ``objects``: fresh reports
    plus retries of earlier ones, each retry within ``RETRY_WINDOW``
    deliveries of its original.  Retries still pending when the stream
    is full are never delivered."""
    rng = random.Random(seed)
    conditions = chiller_conditions()
    reports: list[FailurePredictionReport] = []
    ids: list[str] = []
    # (due position, report, id) retries waiting to be re-delivered.
    pending: list[tuple[int, FailurePredictionReport, str]] = []
    distinct = 0
    while len(reports) < deliveries:
        due = [p for p in pending if p[0] <= len(reports)]
        if due:
            pending.remove(due[0])
            reports.append(due[0][1])
            ids.append(due[0][2])
            continue
        t = t0 + distinct * SLOT_S - rng.uniform(0.0, DISORDER_S)
        report = _report(
            rng, rng.choice(objects), rng.choice(conditions),
            SOURCES[rng.randrange(len(SOURCES))], t,
        )
        rid = f"r{distinct:08d}"
        distinct += 1
        reports.append(report)
        ids.append(rid)
        if rng.random() < DUPLICATE_SHARE:
            pending.append((len(reports) + rng.randint(1, RETRY_WINDOW), report, rid))
    return Stream(reports, ids, distinct, deliveries - distinct)
