"""Output checks, each computed apart from the program.

Every check returns a list of failure messages (empty when the output
is correct).  The closed-form Dempster-Shafer combination, the
prognostic re-basing and interpolation, the alarm filter, the part-of
closure and the keyset drain order are all recomputed here from the
benchmark's own inputs; the program supplies only the output under
test and its configuration (the logical failure groups).
"""

from __future__ import annotations

import json
from collections import defaultdict

#: Absolute tolerance for fused beliefs against the closed form.
BELIEF_TOL = 1e-9

#: Slack for float round-off in curve comparisons.
CURVE_TOL = 1e-12


# -- Dempster-Shafer -------------------------------------------------------

def ds_closed_form(
    conditions: list[str], supports: list[tuple[str, float]]
) -> dict:
    """Dempster's rule over simple-support singleton masses, closed form.

    Each support ``(c, s)`` is the mass function m({c}) = s, m(Θ) = 1 − s
    on the frame Θ = conditions ∪ {unknown}.  With P_c the product of
    (1 − s) over the supports of c, the unnormalised combination puts
    (1 − P_c)·Π_{d≠c} P_d on {c} and Π_d P_d on Θ; everything else is
    conflict.  Normalising by their sum K gives
    Bel(c) = (1 − P_c)·Π_{d≠c} P_d / K, Pl(c) = Π_{d≠c} P_d / K and
    Pl(unknown) = Π_d P_d / K.
    """
    keep = {c: 1.0 for c in conditions}
    for c, s in supports:
        keep[c] *= 1.0 - s
    total = 1.0
    for p in keep.values():
        total *= p
    others = {}
    for c in keep:
        prod = 1.0
        for d, p in keep.items():
            if d != c:
                prod *= p
        others[c] = prod
    k = total + sum((1.0 - keep[c]) * others[c] for c in keep)
    return {
        "beliefs": {c: (1.0 - keep[c]) * others[c] / k for c in conditions},
        "plausibilities": {c: others[c] / k for c in conditions},
        "unknown": total / k,
    }


def check_diagnostic(snapshot: dict, reports, registry) -> list[str]:
    """Fused beliefs per (object, group) against the closed form."""
    supports: dict[str, list[tuple[str, float]]] = defaultdict(list)
    groups = {}
    for r in reports:
        if r.belief <= 0.0:
            continue
        group = registry.group_of(r.machine_condition_id)
        key = f"{r.sensed_object_id}|{group.name}"
        groups[key] = sorted(group.conditions)
        supports[key].append((r.machine_condition_id, r.belief))
    fused = snapshot["diagnostic"]
    failures = []
    if set(fused) != set(supports):
        failures.append(
            f"diagnostic keys differ: {len(fused)} fused vs "
            f"{len(supports)} expected"
        )
    for key in sorted(set(fused) & set(supports)):
        state = fused[key]
        want = ds_closed_form(groups[key], supports[key])
        if state["report_count"] != len(supports[key]):
            failures.append(
                f"{key}: report_count {state['report_count']} != "
                f"{len(supports[key])}"
            )
        for field in ("beliefs", "plausibilities"):
            for c, v in want[field].items():
                got = state[field].get(c)
                if got is None or abs(got - v) > BELIEF_TOL:
                    failures.append(f"{key}: {field}[{c}] {got} != {v}")
        if abs(state["unknown"] - want["unknown"]) > BELIEF_TOL:
            failures.append(
                f"{key}: unknown {state['unknown']} != {want['unknown']}"
            )
    return failures


# -- prognostic curves -----------------------------------------------------

def rebase(pairs: list[tuple[float, float]], age: float) -> list[tuple[float, float]]:
    """A curve issued ``age`` seconds ago, re-based to now: horizons
    shrink by the age (elapsed ones clamp to zero, keeping the larger
    probability) and probabilities stay non-decreasing."""
    age = max(0.0, age)
    merged: dict[float, float] = {}
    for t, p in pairs:
        t = max(0.0, t - age)
        merged[t] = max(merged.get(t, 0.0), p)
    out = []
    running = 0.0
    for t in sorted(merged):
        running = max(running, merged[t])
        out.append((t, running))
    return out


def curve_at(pairs: list[tuple[float, float]], t: float) -> float:
    """Piecewise-linear value of a fused curve at horizon ``t``:
    anchored at (0, 0), extended past the last knot along the final
    segment's slope (held flat for a single knot), clipped to [0, 1]."""
    pts = list(pairs)
    if pts[0][0] > 0.0:
        pts.insert(0, (0.0, 0.0))
    if t <= pts[0][0]:
        v = pts[0][1]
    elif t >= pts[-1][0]:
        v = pts[-1][1]
        if len(pairs) >= 2:
            (t0, p0), (t1, p1) = pts[-2], pts[-1]
            v = p1 + (p1 - p0) / (t1 - t0) * (t - t1)
    else:
        v = pts[-1][1]
        for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                v = p0 + (p1 - p0) * (t - t0) / (t1 - t0) if t1 > t0 else p1
                break
    return min(1.0, max(0.0, v))


def check_prognostic(snapshot: dict, reports) -> list[str]:
    """Each fused curve is non-decreasing, within [0, 1], counts its
    reports, and lies on or above every contributing multi-point
    report's re-based curve at that curve's knots."""
    as_of = snapshot["as_of"]
    by_key: dict[str, list] = defaultdict(list)
    for r in reports:
        if len(r.prognostic):
            by_key[f"{r.sensed_object_id}|{r.machine_condition_id}"].append(r)
    fused = snapshot["prognostic"]
    failures = []
    if set(fused) != set(by_key):
        failures.append(
            f"prognostic keys differ: {len(fused)} fused vs {len(by_key)} expected"
        )
    for key in sorted(set(fused) & set(by_key)):
        state = fused[key]
        curve = [(float(t), float(p)) for t, p in state["curve"]]
        if state["report_count"] != len(by_key[key]):
            failures.append(
                f"{key}: report_count {state['report_count']} != {len(by_key[key])}"
            )
        if not curve:
            failures.append(f"{key}: empty fused curve")
            continue
        probs = [p for _, p in curve]
        if any(p < 0.0 or p > 1.0 for p in probs):
            failures.append(f"{key}: curve leaves [0, 1]")
        if any(b < a - CURVE_TOL for a, b in zip(probs, probs[1:])):
            failures.append(f"{key}: curve decreases")
        for r in by_key[key]:
            if len(r.prognostic) < 2:
                continue
            for t, p in rebase(r.prognostic.to_pairs(), as_of - r.timestamp):
                if curve_at(curve, t) < p - CURVE_TOL:
                    failures.append(
                        f"{key}: fused {curve_at(curve, t)} below report "
                        f"curve {p} at t={t}"
                    )
                    break
    return failures


# -- intake accounting ----------------------------------------------------

def check_intake(rows: int, dropped: int, stream) -> list[str]:
    """Log rows equal distinct ids; drops equal injected duplicates."""
    failures = []
    if rows != stream.distinct:
        failures.append(f"log rows {rows} != distinct ids {stream.distinct}")
    if dropped != stream.duplicates:
        failures.append(
            f"duplicates dropped {dropped} != injected {stream.duplicates}"
        )
    return failures


# -- shipboard ------------------------------------------------------------

def check_shipboard(
    sent: int, in_oosm: int, backlog: int, reported: set[tuple[str, str]],
    seeded: dict[str, str], healthy: set[str], health: dict[str, str],
) -> list[str]:
    """Conservation, detection, no false reports, every DC alive.

    ``reported`` holds the (machine, condition) pairs in the OOSM;
    ``seeded`` maps each faulted machine to its seeded condition.
    """
    failures = []
    if sent != in_oosm + backlog:
        failures.append(
            f"conservation: sent {sent} != oosm {in_oosm} + backlog {backlog}"
        )
    for machine, cond in sorted(seeded.items()):
        if (machine, cond) not in reported:
            failures.append(f"seeded fault {cond} on {machine} not reported")
    for machine, cond in sorted(reported):
        if machine in healthy:
            failures.append(f"report names healthy machine {machine} ({cond})")
        elif seeded.get(machine) != cond:
            failures.append(f"report names unseeded condition {cond} on {machine}")
    down = {dc: s for dc, s in health.items() if s != "alive"}
    if down:
        failures.append(f"DCs not alive at end: {down}")
    return failures


# -- gateway ----------------------------------------------------------------

def expected_alarms(snapshot: dict, threshold: float) -> list[dict]:
    """Diagnostic states at or above ``threshold`` severity, ordered by
    (object, group); each names its strongest condition (ties go to
    the alphabetically first)."""
    out = []
    for key in sorted(snapshot["diagnostic"]):
        state = snapshot["diagnostic"][key]
        if state["severity"] < threshold:
            continue
        obj, group = key.split("|", 1)
        beliefs = state["beliefs"]
        top = sorted(beliefs, key=lambda c: (-beliefs[c], c))[0]
        out.append({
            "object": obj, "group": group, "condition": top,
            "severity": state["severity"], "belief": beliefs[top],
            "status": "ACTIVE",
        })
    return out


def check_alarms(alarms_doc: str, snapshot: dict, threshold: float) -> list[str]:
    got = json.loads(alarms_doc)["alarms"]
    want = expected_alarms(snapshot, threshold)
    if len(got) != len(want):
        return [f"alarms: {len(got)} served vs {len(want)} expected"]
    failures = []
    for g, w in zip(got, want):
        for field, value in w.items():
            if isinstance(value, float):
                if abs(float(g.get(field, -1.0)) - value) > 1e-9:
                    failures.append(f"alarm {w['object']}|{w['group']}: {field}")
            elif g.get(field) != value:
                failures.append(f"alarm {w['object']}|{w['group']}: {field}")
    return failures


def part_closure(edges: list[tuple[str, str]], root: str) -> set[str]:
    """``root`` and everything part-of it, transitively, from
    (part, whole) edges."""
    parts = defaultdict(list)
    for part, whole in edges:
        parts[whole].append(part)
    out = {root}
    frontier = [root]
    while frontier:
        for p in parts[frontier.pop()]:
            if p not in out:
                out.add(p)
                frontier.append(p)
    return out


def check_health(health_doc: str, snapshot: dict, scope: set[str], obj: str) -> list[str]:
    got = json.loads(health_doc)
    want = {
        section: {
            k: v for k, v in snapshot[section].items()
            if k.split("|", 1)[0] in scope
        }
        for section in ("diagnostic", "prognostic")
    }
    failures = []
    for section in ("diagnostic", "prognostic"):
        if got[section] != want[section]:
            failures.append(f"health {obj}: {section} slice differs from snapshot")
    if got["object"] != obj or got["as_of"] != snapshot["as_of"]:
        failures.append(f"health {obj}: header differs")
    return failures


def check_drain(served_ids: list[str], intake_ids: list[str]) -> list[str]:
    """A full keyset drain returns each distinct id once, intake order."""
    seen: set[str] = set()
    want = []
    for rid in intake_ids:
        if rid not in seen:
            seen.add(rid)
            want.append(rid)
    if served_ids == want:
        return []
    if len(served_ids) != len(set(served_ids)):
        return ["drain: an id was served twice"]
    if set(served_ids) != seen:
        return [f"drain: {len(seen - set(served_ids))} ids missing"]
    return ["drain: ids out of intake order"]
