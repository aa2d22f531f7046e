"""Tests of the benchmark's own code: oracles, checks, percentiles, spans.

Each output check is shown to pass on a correct output and to fire on
a corrupted one (a dropped report, a perturbed belief, a reordered
page, ...).
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from perfbench import checks, stats
from perfbench.streams import fleet_stream
from perfbench.trace import SpanRecorder
from repro.pdme.shard import ShardedPdme, registry_for_plant

# -- Dempster-Shafer oracle -------------------------------------------------

UNKNOWN = "__unknown__"


def direct_dempster(frame: frozenset, supports):
    """Dempster's rule applied pairwise over explicit focal sets."""
    acc = {frame: 1.0}
    for cond, s in supports:
        evidence = {frozenset([cond]): s, frame: 1.0 - s}
        out: dict[frozenset, float] = {}
        conflict = 0.0
        for (a, ma), (b, mb) in itertools.product(acc.items(), evidence.items()):
            c = a & b
            if c:
                out[c] = out.get(c, 0.0) + ma * mb
            else:
                conflict += ma * mb
        acc = {k: v / (1.0 - conflict) for k, v in out.items()}
    return acc


def belief(m, target):
    return sum(v for k, v in m.items() if k <= target)


def plausibility(m, target):
    return sum(v for k, v in m.items() if k & target)


HAND_CASES = [
    [("a", 0.3)],
    [("a", 0.3), ("a", 0.5)],
    [("a", 0.3), ("b", 0.6)],
    [("a", 0.2), ("b", 0.7), ("c", 0.4), ("a", 0.9)],
    [("b", 0.05), ("b", 0.05), ("c", 0.99)],
]


@pytest.mark.parametrize("supports", HAND_CASES)
def test_closed_form_matches_direct_combination(supports):
    conditions = ["a", "b", "c"]
    frame = frozenset(conditions + [UNKNOWN])
    direct = direct_dempster(frame, supports)
    closed = checks.ds_closed_form(conditions, supports)
    for c in conditions:
        assert closed["beliefs"][c] == pytest.approx(
            belief(direct, frozenset([c])), abs=1e-12
        )
        assert closed["plausibilities"][c] == pytest.approx(
            plausibility(direct, frozenset([c])), abs=1e-12
        )
    assert closed["unknown"] == pytest.approx(
        plausibility(direct, frozenset([UNKNOWN])), abs=1e-12
    )


def test_closed_form_agrees_with_program_fusion_and_fires_on_perturbation():
    objects = [f"obj:{i}" for i in range(5)]
    stream = fleet_stream(7, objects, 300)
    pdme = ShardedPdme(2, registry_factory=lambda: registry_for_plant("chiller"))
    pdme.submit_batch(stream.reports, stream.ids)
    unique = stream.first_deliveries()
    snapshot = pdme.fused_snapshot()
    registry = registry_for_plant("chiller")
    assert checks.check_diagnostic(snapshot, unique, registry) == []
    assert checks.check_prognostic(snapshot, unique) == []
    assert checks.check_intake(pdme.report_count, pdme.duplicates_dropped, stream) == []

    # A perturbed belief fires.
    key = sorted(snapshot["diagnostic"])[0]
    bad = json.loads(json.dumps(snapshot))
    cond = sorted(bad["diagnostic"][key]["beliefs"])[0]
    bad["diagnostic"][key]["beliefs"][cond] += 1e-6
    assert checks.check_diagnostic(bad, unique, registry)

    # A dropped report fires (its key no longer matches the closed form).
    assert checks.check_diagnostic(snapshot, unique[1:], registry)
    assert checks.check_intake(pdme.report_count - 1, pdme.duplicates_dropped, stream)
    assert checks.check_intake(pdme.report_count, pdme.duplicates_dropped + 1, stream)

    # A lowered prognostic curve fires.
    bad = json.loads(json.dumps(snapshot))
    for state in bad["prognostic"].values():
        state["curve"] = [[t, p * 0.5] for t, p in state["curve"]]
    assert checks.check_prognostic(bad, unique)


def test_curve_helpers():
    assert checks.rebase([(10.0, 0.1), (20.0, 0.5)], 15.0) == [(0.0, 0.1), (5.0, 0.5)]
    assert checks.rebase([(10.0, 0.4), (20.0, 0.5)], -3.0) == [(10.0, 0.4), (20.0, 0.5)]
    curve = [(10.0, 0.2), (20.0, 0.6)]
    assert checks.curve_at(curve, 5.0) == pytest.approx(0.1)
    assert checks.curve_at(curve, 15.0) == pytest.approx(0.4)
    assert checks.curve_at(curve, 25.0) == pytest.approx(0.8)
    assert checks.curve_at(curve, 100.0) == 1.0
    assert checks.curve_at([(10.0, 0.3)], 50.0) == pytest.approx(0.3)


# -- stream ------------------------------------------------------------------


def test_stream_is_seeded_and_counts_its_retries():
    a = fleet_stream(3, ["x", "y"], 500)
    b = fleet_stream(3, ["x", "y"], 500)
    assert a.ids == b.ids and a.reports == b.reports
    assert len(a.ids) == 500 == a.distinct + a.duplicates
    assert len(set(a.ids)) == a.distinct
    assert a.duplicates > 0
    assert fleet_stream(4, ["x", "y"], 500).ids != a.ids


# -- shipboard, gateway ---------------------------------------------------


def ship_args(**overrides):
    args = dict(
        sent=10, in_oosm=8, backlog=2,
        reported={("m1", "mc:a"), ("m2", "mc:b")},
        seeded={"m1": "mc:a", "m2": "mc:b"},
        healthy={"m3"},
        health={"dc:0": "alive"},
    )
    args.update(overrides)
    return args


def test_shipboard_check_passes_and_fires():
    assert checks.check_shipboard(**ship_args()) == []
    assert checks.check_shipboard(**ship_args(in_oosm=7))  # a report lost
    assert checks.check_shipboard(**ship_args(reported={("m1", "mc:a")}))
    assert checks.check_shipboard(
        **ship_args(reported={("m1", "mc:a"), ("m2", "mc:b"), ("m3", "mc:a")})
    )
    assert checks.check_shipboard(
        **ship_args(reported={("m1", "mc:a"), ("m2", "mc:b"), ("m1", "mc:b")})
    )
    assert checks.check_shipboard(**ship_args(health={"dc:0": "down"}))


def snapshot_doc():
    return {
        "as_of": 5.0,
        "diagnostic": {
            "m1|g": {"beliefs": {"a": 0.7, "b": 0.1}, "severity": 0.8},
            "m2|g": {"beliefs": {"a": 0.2, "b": 0.2}, "severity": 0.6},
            "p1|g": {"beliefs": {"a": 0.1, "b": 0.3}, "severity": 0.1},
        },
        "prognostic": {"p1|a": {"curve": [[1.0, 0.5]], "report_count": 1}},
    }


def test_alarm_check_passes_and_fires():
    snap = snapshot_doc()
    alarms = {"alarms": [
        {"object": "m1", "group": "g", "condition": "a", "severity": 0.8,
         "belief": 0.7, "status": "ACTIVE"},
        {"object": "m2", "group": "g", "condition": "a", "severity": 0.6,
         "belief": 0.2, "status": "ACTIVE"},
    ]}
    assert checks.check_alarms(json.dumps(alarms), snap, 0.5) == []
    dropped = {"alarms": alarms["alarms"][:1]}
    assert checks.check_alarms(json.dumps(dropped), snap, 0.5)
    swapped = {"alarms": alarms["alarms"][::-1]}
    assert checks.check_alarms(json.dumps(swapped), snap, 0.5)


def test_health_slice_check_passes_and_fires():
    snap = snapshot_doc()
    edges = [("m1", "unit"), ("p1", "m1"), ("m2", "other")]
    scope = checks.part_closure(edges, "unit")
    assert scope == {"unit", "m1", "p1"}
    doc = {
        "object": "unit", "as_of": 5.0,
        "diagnostic": {k: snap["diagnostic"][k] for k in ("m1|g", "p1|g")},
        "prognostic": dict(snap["prognostic"]),
    }
    assert checks.check_health(json.dumps(doc), snap, scope, "unit") == []
    doc["diagnostic"].pop("p1|g")
    assert checks.check_health(json.dumps(doc), snap, scope, "unit")


def test_drain_check_passes_and_fires():
    intake = ["r1", "r2", "r1", "r3"]
    assert checks.check_drain(["r1", "r2", "r3"], intake) == []
    assert checks.check_drain(["r2", "r1", "r3"], intake)  # reordered page
    assert checks.check_drain(["r1", "r3"], intake)  # dropped report
    assert checks.check_drain(["r1", "r2", "r2", "r3"], intake)


# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, p, expected",
    [(200, 95.0, 10), (199, 95.0, 10), (100, 95.0, 5), (1000, 99.0, 10),
     (157, 95.0, 8), (40, 75.0, 10), (1, 95.0, 0)],
)
def test_beyond_counts_samples_above_the_percentile(n, p, expected):
    assert stats.beyond(n, p) == expected
    xs = [float(i) for i in range(n)]
    assert len([x for x in xs if x > stats.percentile(xs, p)]) == expected


def test_summary_uses_the_fixed_percentile_whatever_the_count():
    for n in (39, 200, 5000):
        s = stats.summarize([float(i) for i in range(n)], 95.0)
        assert s["tail_pct"] == 95.0
        assert s["p50"] == (n - 1) / 2
        assert s["tail"] == pytest.approx((n - 1) * 0.95)
    assert stats.summarize([float(i) for i in range(200)], 95.0)["beyond"] == 10


def test_percentile_matches_statistics_quantiles():
    rng = random.Random(1)
    xs = [rng.random() for _ in range(101)]
    import statistics

    q = statistics.quantiles(xs, n=4, method="inclusive")
    assert stats.percentile(xs, 25.0) == pytest.approx(q[0])
    assert stats.percentile(xs, 75.0) == pytest.approx(q[2])


# -- operation timer ---------------------------------------------------------


def test_op_timer_counts_a_raise_as_failed_and_goes_on():
    from perfbench.workloads import OpTimer

    def boom():
        raise RuntimeError("shard down")

    ops = OpTimer()
    assert ops.call(lambda: 3) == 3
    assert ops.call(boom) is None
    assert ops.call(lambda: 4) == 4
    assert (ops.attempted, ops.failed, len(ops.samples)) == (3, 1, 3)
    assert len(ops.errors) == 1 and "shard down" in ops.errors[0]


# -- span recorder -----------------------------------------------------------


class Outer:
    def run(self, inner):
        for _ in range(3):
            inner.work()
        return "done"


class Inner:
    def work(self):
        return sum(range(2000))


def test_self_times_add_up_to_covered_time():
    original = Inner.__dict__["work"]
    rec = SpanRecorder()
    rec.wrap_methods(Outer, "outer", ("run",))
    rec.wrap_methods(Inner, "inner", ("work",))
    try:
        bound = Inner().work  # captured before activation: still traced
        rec.active = True
        rec.op_id = 7
        assert Outer().run(Inner()) == "done"
        bound()
        rec.active = False
    finally:
        rec.uninstall()
    assert Inner.__dict__["work"] is original
    assert sorted(rec.names) == ["inner"] * 4 + ["outer"]
    busy = rec.self_times()
    covered = sum(
        end - start
        for start, end, parent in zip(rec.starts, rec.ends, rec.parents)
        if parent < 0
    )
    assert sum(busy.values()) == pytest.approx(covered, rel=1e-9)
    assert all(v >= 0.0 for v in busy.values())
    assert set(rec.ops) == {7}
    assert rec.parents[:4] == [-1, 0, 0, 0]
