"""Post-mortem trace diagnosis — the ``repro obs analyze`` backend.

:func:`analyze_trace` replays any JSONL trace (sim or serve) through a
set of detectors and produces a :class:`Diagnosis`: a machine-checkable
health verdict plus a list of :class:`Finding` entries. The analysis is
a **pure, deterministic function of the event stream** — no clocks, no
randomness, findings and stats sorted — so two runs over the same trace
emit byte-identical reports (asserted by ``tests/test_obs_analyze.py``),
and a CI job can gate on the verdict.

Detectors:

====================  =====================================================
kind                  fires when
====================  =====================================================
``fault_window``      paired ``fault_injected``/``fault_cleared`` edges
                      (info — context for correlating the rest)
``convergence_stall`` >= 3 consecutive non-converged ``solve_done`` with
                      < 5% relative gap improvement (gap plateau);
                      solves whose ``stop_reason`` is ``patience`` are
                      exempt — the online ub-patience early exit is by
                      design
``solver_storm``      a cluster of ``budget_exhausted`` /
                      ``stopped_by_budget`` solves / fallback-bailout log
                      lines (the P1 fallback storm signature)
``shed_burst``        a run of consecutive slots with ``request_shed``
                      events; flagged ``fault_correlated`` when the run
                      overlaps a fault window
``swap_starvation``   ``plan_swap`` events whose plan lag
                      (``slot - plan_slot``) stays positive for >= 3
                      consecutive swaps (solver persistently behind)
``slo_burn``          contiguous ``slo_alert`` windows per objective
====================  =====================================================
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.events import TraceEvent

__all__ = [
    "Finding",
    "Diagnosis",
    "analyze_trace",
    "render_diagnosis",
]

#: Gap plateau: relative improvement below this over >= STALL_RUN solves.
STALL_REL_IMPROVEMENT = 0.05
STALL_RUN = 3
#: Solver storm thresholds (events in one trace).
STORM_WARN = 3
STORM_CRITICAL = 10
#: Swap starvation: consecutive swaps served from a stale plan.
STARVATION_RUN = 3

_FALLBACK_RE = re.compile(r"fallback|bail[\s-]?out|bailout", re.IGNORECASE)

_SEVERITY_RANK = {"info": 0, "warning": 1, "critical": 2}


@dataclass(frozen=True)
class Finding:
    """One diagnosed condition over a slot range."""

    kind: str
    severity: str  # "info" | "warning" | "critical"
    slots: tuple[int, int]  # inclusive [first, last]; (-1, -1) if slot-free
    message: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "slots": list(self.slots),
            "message": self.message,
            "data": {k: self.data[k] for k in sorted(self.data)},
        }


@dataclass(frozen=True)
class Diagnosis:
    """Verdict + findings + trace stats for one analyzed trace.

    ``verdict`` is ``clean`` (nothing above info), ``warn`` (at least one
    warning), or ``degraded`` (at least one critical finding).
    """

    verdict: str
    findings: tuple[Finding, ...]
    stats: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "findings": [f.to_dict() for f in self.findings],
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _fault_windows(events: Sequence[TraceEvent], last_slot: int) -> list[tuple[int, int]]:
    windows: list[tuple[int, int]] = []
    open_at: int | None = None
    for event in events:
        if event.kind == "fault_injected":
            if open_at is None:
                open_at = event.slot if event.slot is not None else 0
        elif event.kind == "fault_cleared" and open_at is not None:
            end = event.slot if event.slot is not None else open_at
            windows.append((open_at, max(open_at, end - 1)))
            open_at = None
    if open_at is not None:
        windows.append((open_at, max(open_at, last_slot)))
    return windows


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def _detect_convergence_stall(events: Sequence[TraceEvent]) -> list[Finding]:
    findings: list[Finding] = []
    run: list[tuple[int, float]] = []  # (slot, gap) of the current plateau

    def close_run() -> None:
        if len(run) >= STALL_RUN:
            slots = (run[0][0], run[-1][0])
            findings.append(
                Finding(
                    kind="convergence_stall",
                    severity="warning",
                    slots=slots,
                    message=(
                        f"gap plateau over {len(run)} consecutive "
                        f"non-converged solves (slots {slots[0]}..{slots[1]}): "
                        f"gap {run[0][1]:.4g} -> {run[-1][1]:.4g}"
                    ),
                    data={
                        "solves": len(run),
                        "gap_first": run[0][1],
                        "gap_last": run[-1][1],
                    },
                )
            )
        run.clear()

    for event in events:
        if event.kind != "solve_done":
            continue
        data = event.data
        converged = bool(data.get("converged", False))
        # Online window solves stop early once the feasible incumbent
        # stagnates (ub_patience): an intentional exit, not a stall. Traces
        # written before solves recorded a stop_reason carry the boolean.
        reason = data.get("stop_reason")
        if reason is None and data.get("stopped_by_patience", False):
            reason = "patience"
        gap_raw = data.get("gap")
        gap = float(gap_raw) if isinstance(gap_raw, (int, float)) else None
        slot = event.slot if event.slot is not None else -1
        if converged or reason in ("gap", "patience") or gap is None:
            close_run()
            continue
        if run:
            prev_gap = run[-1][1]
            improved = (
                (prev_gap - gap) / abs(prev_gap)
                if prev_gap
                else (1.0 if gap < prev_gap else 0.0)
            )
            if improved >= STALL_REL_IMPROVEMENT:
                close_run()
        run.append((slot, gap))
    close_run()
    return findings


def _detect_solver_storm(events: Sequence[TraceEvent]) -> list[Finding]:
    hits: list[tuple[int, str]] = []
    for event in events:
        slot = event.slot if event.slot is not None else -1
        if event.kind == "budget_exhausted":
            hits.append((slot, "budget_exhausted"))
        elif event.kind == "solve_done" and bool(
            event.data.get("stopped_by_budget", False)
        ):
            hits.append((slot, "stopped_by_budget"))
        elif event.kind == "log" and _FALLBACK_RE.search(
            str(event.data.get("message", ""))
        ):
            hits.append((slot, "fallback_log"))
    if len(hits) < STORM_WARN:
        return []
    slots = [s for s, _ in hits if s >= 0]
    span = (min(slots), max(slots)) if slots else (-1, -1)
    by_kind: dict[str, int] = {}
    for _, kind in hits:
        by_kind[kind] = by_kind.get(kind, 0) + 1
    severity = "critical" if len(hits) >= STORM_CRITICAL else "warning"
    return [
        Finding(
            kind="solver_storm",
            severity=severity,
            slots=span,
            message=(
                f"{len(hits)} solver fallback/bailout signals "
                f"({', '.join(f'{k}={by_kind[k]}' for k in sorted(by_kind))})"
            ),
            data={"signals": len(hits), **{k: by_kind[k] for k in sorted(by_kind)}},
        )
    ]


def _detect_shed_bursts(
    events: Sequence[TraceEvent], fault_windows: Sequence[tuple[int, int]]
) -> list[Finding]:
    per_slot: dict[int, int] = {}
    for event in events:
        if event.kind == "request_shed" and event.slot is not None:
            per_slot[event.slot] = per_slot.get(event.slot, 0) + 1
    if not per_slot:
        return []
    findings: list[Finding] = []
    slots = sorted(per_slot)
    start = prev = slots[0]
    count = per_slot[start]

    def close(start: int, end: int, count: int) -> None:
        window = (start, end)
        correlated = any(_overlaps(window, fw) for fw in fault_windows)
        suffix = " (overlaps a fault window)" if correlated else ""
        findings.append(
            Finding(
                kind="shed_burst",
                severity="warning",
                slots=window,
                message=(
                    f"{count} requests shed over slots {start}..{end}{suffix}"
                ),
                data={"shed": count, "fault_correlated": correlated},
            )
        )

    for slot in slots[1:]:
        if slot == prev + 1:
            count += per_slot[slot]
        else:
            close(start, prev, count)
            start, count = slot, per_slot[slot]
        prev = slot
    close(start, prev, count)
    return findings


def _detect_swap_starvation(events: Sequence[TraceEvent]) -> list[Finding]:
    lags: list[tuple[int, int]] = []  # (slot, lag) per plan_swap
    for event in events:
        if event.kind != "plan_swap" or event.slot is None:
            continue
        plan_slot = event.data.get("plan_slot")
        if isinstance(plan_slot, (int, float)):
            lags.append((event.slot, max(0, event.slot - int(plan_slot))))
    findings: list[Finding] = []
    run: list[tuple[int, int]] = []

    def close_run() -> None:
        if len(run) >= STARVATION_RUN:
            slots = (run[0][0], run[-1][0])
            max_lag = max(lag for _, lag in run)
            findings.append(
                Finding(
                    kind="swap_starvation",
                    severity="warning",
                    slots=slots,
                    message=(
                        f"plan swaps served from stale plans for "
                        f"{len(run)} consecutive boundaries "
                        f"(slots {slots[0]}..{slots[1]}, max lag {max_lag})"
                    ),
                    data={"swaps": len(run), "max_lag": max_lag},
                )
            )
        run.clear()

    for slot, lag in lags:
        if lag > 0:
            run.append((slot, lag))
        else:
            close_run()
    close_run()
    return findings


def _detect_slo_burns(events: Sequence[TraceEvent]) -> list[Finding]:
    per_slo: dict[str, list[int]] = {}
    for event in events:
        if event.kind != "slo_alert":
            continue
        name = str(event.data.get("slo", "?"))
        per_slo.setdefault(name, []).append(
            event.slot if event.slot is not None else -1
        )
    findings: list[Finding] = []
    for name in sorted(per_slo):
        slots = sorted(per_slo[name])
        start = prev = slots[0]
        runs: list[tuple[int, int]] = []
        for slot in slots[1:]:
            if slot > prev + 1:
                runs.append((start, prev))
                start = slot
            prev = slot
        runs.append((start, prev))
        for run_start, run_end in runs:
            findings.append(
                Finding(
                    kind="slo_burn",
                    severity="warning",
                    slots=(run_start, run_end),
                    message=(
                        f"SLO {name} burning over slots "
                        f"{run_start}..{run_end} "
                        f"({run_end - run_start + 1} consecutive alerts)"
                    ),
                    data={"slo": name, "alerts": run_end - run_start + 1},
                )
            )
    return findings


def analyze_trace(
    events: Iterable[TraceEvent | Mapping[str, Any]]
) -> Diagnosis:
    """Run every detector over a trace and assemble the verdict.

    Accepts :class:`TraceEvent` objects or their dict form (parsed JSONL
    lines). Deterministic: same trace, same report bytes.
    """
    trace = [
        e if isinstance(e, TraceEvent) else TraceEvent.from_dict(e)
        for e in events
    ]
    kinds: dict[str, int] = {}
    last_slot = -1
    for event in trace:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if event.slot is not None and event.slot > last_slot:
            last_slot = event.slot

    fault_windows = _fault_windows(trace, last_slot)
    findings: list[Finding] = [
        Finding(
            kind="fault_window",
            severity="info",
            slots=window,
            message=f"fault active over slots {window[0]}..{window[1]}",
            data={"slots_active": window[1] - window[0] + 1},
        )
        for window in fault_windows
    ]
    findings.extend(_detect_convergence_stall(trace))
    findings.extend(_detect_solver_storm(trace))
    findings.extend(_detect_shed_bursts(trace, fault_windows))
    findings.extend(_detect_swap_starvation(trace))
    findings.extend(_detect_slo_burns(trace))

    findings.sort(
        key=lambda f: (
            -_SEVERITY_RANK[f.severity],
            f.slots,
            f.kind,
            f.message,
        )
    )
    worst = max(
        (_SEVERITY_RANK[f.severity] for f in findings), default=0
    )
    verdict = {0: "clean", 1: "warn", 2: "degraded"}[worst]
    return Diagnosis(
        verdict=verdict,
        findings=tuple(findings),
        stats={
            "events": len(trace),
            "kinds": {k: kinds[k] for k in sorted(kinds)},
            "last_slot": last_slot,
            "fault_windows": len(fault_windows),
        },
    )


def render_diagnosis(diagnosis: Diagnosis) -> str:
    """Human-readable report (stable ordering, no wall-clock data)."""
    stats = diagnosis.stats
    lines = [
        f"verdict: {diagnosis.verdict.upper()}",
        f"trace: {stats.get('events', 0)} events over slots "
        f"0..{stats.get('last_slot', -1)}, "
        f"{stats.get('fault_windows', 0)} fault window(s)",
    ]
    if not diagnosis.findings:
        lines.append("findings: none")
        return "\n".join(lines)
    lines.append(f"findings ({len(diagnosis.findings)}):")
    for finding in diagnosis.findings:
        lo, hi = finding.slots
        where = "-" if lo < 0 else (f"slot {lo}" if lo == hi else f"slots {lo}..{hi}")
        lines.append(
            f"  [{finding.severity:<8}] {finding.kind:<18} {where:<14} "
            f"{finding.message}"
        )
    return "\n".join(lines)
