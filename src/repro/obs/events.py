"""Typed, seed-stable trace events — the vocabulary of `repro.obs`.

A :class:`TraceEvent` is one structured fact about a run: a slot began, a
window solve finished, a cache insertion happened, a fault window opened.
Events are **pure model outputs** by design: they carry no wall-clock
timestamps, thread ids, or memory addresses, so the trace of a seeded run
is bit-for-bit identical across the serial / thread / process executors
(asserted by ``tests/test_obs_traces.py`` and ``benchmarks/bench_obs.py``).
Wall-clock measurements stay where they always were — in
:class:`repro.perf.timers.StageTimers` and the ``BENCH_*.json`` records.

The event taxonomy (:data:`EVENT_KINDS`):

===================  ========================================================
kind                 emitted when
===================  ========================================================
``slot_start``       the engine begins scoring a slot (demand volume)
``slot_end``         the engine finishes a slot (itemized realized cost)
``solve_done``       Algorithm 1 terminates (iterations, gap, bounds, stop reason)
``cache_insert``     a slot installs new contents (count)
``cache_evict``      a slot drops contents (count)
``reroute``          a down SBS's traffic falls back to the BS
``fault_injected``   the fault-active mask rises, or a schedule is bound
``fault_cleared``    the fault-active mask falls
``budget_exhausted`` an anytime :class:`~repro.optim.budget.SolveBudget` fired
``plan_swap``        the serve loop installed a new committed ``(x, y)`` plan
``request_shed``     serve admission control dropped a request (queue full)
``slo_alert``        an SLO burn-rate alert fired (short+long windows hot)
``log``              a ``repro.*`` logging record routed into the recorder
===================  ========================================================

The canonical JSON form (:meth:`TraceEvent.to_json`) sorts keys and strips
whitespace, so equal events serialize to equal bytes — the property the
JSONL exporter and the determinism benchmarks build on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.exceptions import ConfigurationError

#: Schema version stamped into traces and manifests; bump on breaking changes.
SCHEMA_VERSION = 1

#: The closed set of event kinds (see module docstring).
EVENT_KINDS = frozenset(
    {
        "slot_start",
        "slot_end",
        "solve_done",
        "cache_insert",
        "cache_evict",
        "reroute",
        "fault_injected",
        "fault_cleared",
        "budget_exhausted",
        "plan_swap",
        "request_shed",
        "slo_alert",
        "log",
    }
)

#: JSON scalar types allowed as event field values.
Scalar = str | int | float | bool | None


def _coerce_scalar(key: str, value: Any) -> Scalar:
    """Normalize a field value to a plain JSON scalar (numpy included).

    Non-finite floats become the strings ``"inf"`` / ``"-inf"`` / ``"nan"``:
    strict JSON has no literal for them, and the trace must stay parseable
    by any conforming reader (``json.dumps(allow_nan=True)`` would emit the
    non-standard ``Infinity``).
    """
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, float):
        # normalizes numpy float subclasses to plain float as well
        return str(value) if not math.isfinite(value) else float(value)
    if isinstance(value, int):
        return int(value)
    # numpy scalars expose .item(); coerce without importing numpy here.
    item = getattr(value, "item", None)
    if callable(item):
        coerced = item()
        if isinstance(coerced, float) and not math.isfinite(coerced):
            return str(coerced)
        if isinstance(coerced, (str, bool, int, float)):
            return coerced
    raise ConfigurationError(
        f"event field {key!r} has non-scalar value {value!r} "
        f"({type(value).__name__}); traces carry JSON scalars only"
    )


@dataclass(frozen=True)
class TraceEvent:
    """One structured run event.

    Attributes
    ----------
    seq:
        0-based position in the trace. Assigned by the
        :class:`~repro.obs.recorder.Recorder` and renumbered on merge, so
        a merged trace is always consecutively numbered.
    kind:
        One of :data:`EVENT_KINDS`.
    slot:
        The timeslot the event refers to, or ``None`` for slot-free events
        (an offline solve, a log line).
    fields:
        Sorted ``(key, value)`` pairs of JSON scalars — sorted so equal
        events compare and serialize identically regardless of the keyword
        order at the emit site.
    """

    seq: int
    kind: str
    slot: int | None
    fields: tuple[tuple[str, Scalar], ...]

    @classmethod
    def make(
        cls, seq: int, kind: str, slot: int | None = None, **fields: Any
    ) -> "TraceEvent":
        """Build a validated event from loose keyword fields."""
        if kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown event kind {kind!r}; pick from {sorted(EVENT_KINDS)}"
            )
        pairs = tuple(
            sorted((k, _coerce_scalar(k, v)) for k, v in fields.items())
        )
        return cls(
            seq=int(seq),
            kind=kind,
            slot=None if slot is None else int(slot),
            fields=pairs,
        )

    @property
    def data(self) -> dict[str, Scalar]:
        return dict(self.fields)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form: ``{"seq", "kind", "slot", "data"}``."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "slot": self.slot,
            "data": self.data,
        }

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceEvent":
        validate_event_dict(payload)
        return cls.make(
            payload["seq"], payload["kind"], payload["slot"], **payload["data"]
        )


def validate_event_dict(payload: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigurationError` unless ``payload`` fits the schema."""
    required = {"seq", "kind", "slot", "data"}
    missing = required - set(payload)
    if missing:
        raise ConfigurationError(f"event missing keys {sorted(missing)}")
    if not isinstance(payload["seq"], int) or payload["seq"] < 0:
        raise ConfigurationError(f"event seq must be a >= 0 int, got {payload['seq']!r}")
    if payload["kind"] not in EVENT_KINDS:
        raise ConfigurationError(f"unknown event kind {payload['kind']!r}")
    slot = payload["slot"]
    if slot is not None and (not isinstance(slot, int) or slot < 0):
        raise ConfigurationError(f"event slot must be None or a >= 0 int, got {slot!r}")
    data = payload["data"]
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"event data must be a mapping, got {type(data)}")
    for key, value in data.items():
        if not isinstance(key, str):
            raise ConfigurationError(f"event data key {key!r} is not a string")
        if value is not None and not isinstance(value, (str, bool, int, float)):
            raise ConfigurationError(
                f"event data value {key}={value!r} is not a JSON scalar"
            )


def validate_trace(events: Iterable[TraceEvent | Mapping[str, Any]]) -> int:
    """Validate a whole trace: per-event schema plus consecutive numbering.

    Accepts events or their dict form (e.g. parsed JSONL lines); returns
    the number of events checked.
    """
    count = 0
    for expected, event in enumerate(events):
        payload = event.to_dict() if isinstance(event, TraceEvent) else event
        validate_event_dict(payload)
        if payload["seq"] != expected:
            raise ConfigurationError(
                f"trace seq gap: event {expected} carries seq {payload['seq']}"
            )
        count += 1
    return count
