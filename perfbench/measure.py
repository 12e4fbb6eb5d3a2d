"""Untraced and traced measurement of one workload, and the result line.

In an untraced run, call ``k`` gets the instance built from seed
``--seed + k`` (outside the timed region), so a run's medians span several
instances and do not hang on how much work one seed happens to need.

Untraced: set up :data:`SETUP_REPEATS` times, once here and the rest in
fresh interpreters (``setup_s`` is the median of import + warm-up + first
instance build), then repeat the timed call while the next one fits in
``--seconds``; ``run_s`` and ``cpu_s`` are the medians over calls.

Traced: run the instance of ``--seed`` untraced and traced in turns (at
least once each) in the same budget. Per-layer metrics come from the
traced calls only: span totals per timed entry, program counters read
through ``Recorder``, the workload's own output figures, and
``obs.trace_overhead`` (median traced over median untraced ``run_s``,
minus one) and ``obs.coverage`` (share of a traced call's wall time
inside root spans). The counters' accounting
identities and the workload's path-split predictions
(``workloads.json``) are checked on every traced call.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time
from argparse import Namespace
from typing import Any, Callable, Iterator

import workloads as wl
from repro.obs import Recorder, record_into
from spans import TIMED, Tracer, covered_seconds, layer_totals

SETUP_REPEATS = 3
OUT_DIR = wl.HERE / "out"
BENCHMARK_JSON = wl.HERE.parent / "BENCHMARK.json"

#: Program counters read through ``Recorder``, named by the layer they count.
COUNTERS = {
    "core.caching_lp.p1_batched_solves": "p1_batched_solves",
    "core.caching_lp.p1_batched_capped": "p1_batched_capped",
    "core.caching_lp.p1_batched_fallbacks": "p1_batched_fallbacks",
    "perf.solvecache.p1_memo_hits": "p1_memo_hits",
    "perf.solvecache.p1_memo_misses": "p1_memo_misses",
    "optim.waterfill.p2_bw_bound_rows": "p2_bw_bound_rows",
    "optim.waterfill.p2_bw_closed_form": "p2_bw_closed_form",
    "optim.waterfill.p2_bisection_fallbacks": "p2_bisection_fallbacks",
}

#: Workload figures reported as per-layer metrics; a workload that has
#: no such output reports 0.
FIGURES = (
    "offline_cost",
    "rhc_cost",
    "chc_cost",
    "afhc_cost",
    "dual_gap",
    "plan_solve_p50_ms",
    "plan_solve_p80_ms",
    "decision_p50_us",
    "decision_p99_us",
    "shed_ratio",
    "swap_drop_ratio",
    "serve.loop.decision_service_p50_us",
    "serve.loop.decision_service_p99_us",
    "serve.loop.swap_wait_p99_ms",
    "serve.loop.plan_swaps_late",
)


def _calls(
    seconds: float,
    prepare: Callable[[int], Any],
    call: Callable[[int, Any], Any],
    *,
    minimum: int = 1,
) -> Iterator[tuple[float, float, Any, Any]]:
    """Repeat ``call(i, prepare(i))`` while the next call, as long as the
    last one, still fits in ``seconds`` (at least ``minimum`` calls).
    Only ``call`` is timed; yields ``(wall_s, cpu_s, prepared, result)``."""
    spent = 0.0
    i = 0
    while True:
        prepared = prepare(i)
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = call(i, prepared)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        yield wall, cpu, prepared, result
        spent += wall
        i += 1
        if i >= minimum and spent + wall > seconds:
            return


class Tally:
    """Scores every call: attempted/failed operations and check failures."""

    def __init__(self, workload: wl.Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def score(self, state: Any, raw: Any) -> wl.Outcome:
        outcome = self.workload.score(state, raw)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures.extend(outcome.failures)
        return outcome

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            self.failed += 1


def _median_figures(outcomes: list[wl.Outcome]) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for name in outcomes[0].figures:
        values = [o.figures[name][0] for o in outcomes]
        out[name] = (statistics.median(values), outcomes[0].figures[name][1])
    latencies = [v for o in outcomes for v in o.decision_us]
    if latencies:
        out["decision_p50_us"] = (wl.percentile(latencies, 0.50), "us")
        out["decision_p99_us"] = (wl.percentile(latencies, 0.99), "us")
    return out


def _setup_seconds(workload: wl.Workload, seed: int) -> float:
    """Warm-up plus the first instance build, in this process."""
    t0 = time.perf_counter()
    workload.warm_up(seed)
    workload.instance(seed)
    return time.perf_counter() - t0


def _fresh_setup_seconds(name: str, seed: int) -> float:
    """Import plus :func:`_setup_seconds` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(wl.HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_only(args: Namespace, *, import_s: float) -> int:
    """Print one set-up time (the ``--setup-only`` child's answer)."""
    seed = _seed(args)
    print(import_s + _setup_seconds(wl.WORKLOADS[args.workload], seed))
    return 0


def _untraced(args: Namespace, workload: wl.Workload, seed: int, import_s: float):
    # Imports happen once per process, so the other set-up samples come
    # from fresh interpreters.
    setup_times = [import_s + _setup_seconds(workload, seed)] + [
        _fresh_setup_seconds(workload.name, seed)
        for _ in range(SETUP_REPEATS - 1)
    ]
    print(
        f"  import {import_s:.4f} s; set-up (import, warm-up, first build) "
        + ", ".join(f"{t:.4f}" for t in setup_times)
        + " s"
    )
    tally = Tally(workload)
    walls, cpus, outcomes = [], [], []
    for wall, cpu, state, raw in _calls(
        args.seconds,
        lambda i: workload.instance(seed + i),
        lambda i, state: workload.run(state),
    ):
        walls.append(wall)
        cpus.append(cpu)
        outcome = tally.score(state, raw)
        outcomes.append(outcome)
        shown = ", ".join(
            f"{name} {value:.6g}" for name, (value, _) in outcome.figures.items()
        )
        print(
            f"  call {len(walls)} (seed {state.seed}): {wall:.4f} s wall, "
            f"{cpu:.4f} s cpu; {shown}",
            flush=True,
        )
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
    }
    return tally, metrics, _median_figures(outcomes)


def _traced(args: Namespace, workload: wl.Workload, seed: int):
    workload.warm_up(seed)
    instance = workload.instance(seed)
    tally = Tally(workload)
    tracer = Tracer()
    iterations: dict[str, int] = {}
    offline_gaps: dict[str, float] = {}

    def count_iterations(result: Any) -> None:
        iterations[tracer.run_id] = iterations.get(tracer.run_id, 0) + result.iterations

    def offline_gap(result: Any) -> None:
        offline_gaps[tracer.run_id] = float(result.gap)

    tracer.on_result["core.primal_dual.solve_primal_dual"] = count_iterations
    tracer.on_result["core.offline.OfflineOptimal.solve"] = offline_gap

    def call(i: int, state: Any) -> tuple[Any, Recorder | None, str]:
        if i % 2 == 0:
            return workload.run(state), None, ""
        tracer.run_id = f"{workload.name}-{seed}-{i}"
        recorder = Recorder()
        tracer.install()
        try:
            with record_into(recorder):
                return workload.run(state), recorder, tracer.run_id
        finally:
            tracer.uninstall()

    plain_walls: list[float] = []
    rows: list[dict[str, float]] = []
    outcomes: list[wl.Outcome] = []
    path_split = wl.SPEC[workload.name].get("path_split", {})
    # One instance throughout, so the traced calls' counts repeat exactly.
    for wall, _, state, (raw, recorder, run_id) in _calls(
        args.seconds, lambda i: instance, call, minimum=2
    ):
        outcome = tally.score(state, raw)
        if recorder is None:
            plain_walls.append(wall)
            print(f"  untraced call: {wall:.4f} s", flush=True)
            continue
        print(f"  traced call: {wall:.4f} s", flush=True)
        outcomes.append(outcome)
        spans = [s for s in tracer.spans if s.run == run_id]
        row: dict[str, float] = {"run_s": wall}
        totals = layer_totals(spans)
        for name, *_ in TIMED:
            for key in ("calls", "s", "self_s"):
                row[f"{name}.{key}"] = totals.get(name, {}).get(key, 0.0)
        row["core.primal_dual.iterations"] = float(iterations.get(run_id, 0))
        for metric, counter in COUNTERS.items():
            row[metric] = recorder.metrics.counter(counter)
        lookups = row["perf.solvecache.p1_memo_hits"] + row["perf.solvecache.p1_memo_misses"]
        row["perf.solvecache.p1_memo_hit_rate"] = (
            row["perf.solvecache.p1_memo_hits"] / lookups if lookups else 0.0
        )
        bound = row["optim.waterfill.p2_bw_bound_rows"]
        row["optim.waterfill.p2_closed_form_share"] = (
            row["optim.waterfill.p2_bw_closed_form"] / bound if bound else 0.0
        )
        windows = [s.end - s.start for s in spans if s.name == "core.online.solve_window"]
        row["plan_solve_p50_ms"] = wl.percentile(windows, 0.50) * 1e3 if windows else 0.0
        row["plan_solve_p80_ms"] = wl.percentile(windows, 0.80) * 1e3 if windows else 0.0
        if run_id in offline_gaps:
            row["dual_gap"] = offline_gaps[run_id]
        row["obs.coverage"] = covered_seconds(spans) / wall
        _check_identities(tally, row, path_split, run_id)
        rows.append(row)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    figures = _median_figures(outcomes)
    metrics = {
        name: statistics.median(r[name] for r in rows)
        for name in rows[0]
        if name != "run_s"
    }
    for name in FIGURES:
        metrics.setdefault(name, figures.get(name, (0.0, ""))[0])
    traced_run_s = statistics.median(r["run_s"] for r in rows)
    metrics["obs.trace_overhead"] = traced_run_s / statistics.median(plain_walls) - 1.0
    print(f"{workload.name} layer shares of traced run_s ({traced_run_s:.3f} s), self time:")
    for name, *_ in TIMED:
        if metrics[f"{name}.calls"]:
            print(f"  {name:<44} {metrics[f'{name}.self_s'] / traced_run_s:>8.1%}")
    return tally, metrics, figures


def _check_identities(
    tally: Tally, row: dict[str, float], path_split: dict[str, str], run_id: str
) -> None:
    p1 = (
        row["core.caching_lp.p1_batched_solves"]
        + row["core.caching_lp.p1_batched_fallbacks"]
    )
    tally.check(
        p1 == row["perf.solvecache.p1_memo_misses"],
        f"{run_id}: p1_batched_solves + p1_batched_fallbacks = {p1:g} "
        f"!= p1_memo_misses = {row['perf.solvecache.p1_memo_misses']:g}",
    )
    p2 = (
        row["optim.waterfill.p2_bw_closed_form"]
        + row["optim.waterfill.p2_bisection_fallbacks"]
    )
    tally.check(
        p2 == row["optim.waterfill.p2_bw_bound_rows"],
        f"{run_id}: p2_bw_closed_form + p2_bisection_fallbacks = {p2:g} "
        f"!= p2_bw_bound_rows = {row['optim.waterfill.p2_bw_bound_rows']:g}",
    )
    for metric, want in path_split.items():
        value = row[metric]
        ok = value > 0 if want == "nonzero" else value == 0
        tally.check(ok, f"{run_id}: path split: {metric} = {value:g}, predicted {want}")


def _declared(key: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def _seed(args: Namespace) -> int:
    return wl.SPEC[args.workload]["default_seed"] if args.seed is None else args.seed


def measure(args: Namespace, *, import_s: float) -> int:
    seed = _seed(args)
    workload = wl.WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        tally, metrics, figures = _traced(args, workload, seed)
        declared = _declared("per_layer")
    else:
        tally, metrics, figures = _untraced(args, workload, seed, import_s)
        declared = _declared("end_to_end")
    if set(metrics) != set(declared):
        raise SystemExit(
            "perfbench: metrics do not match BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(metrics))}"
        )
    print(f"{args.workload} outputs (median over calls):")
    for name, (value, unit) in figures.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"{args.workload} metrics:")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {declared[name]}")
    for failure in tally.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not tally.failures
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1
