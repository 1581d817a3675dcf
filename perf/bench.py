"""Set-up, the end-to-end rounds, the traced run, and what they add up to.

The measurement recipe (each part is there because numbers did not repeat
without it):

* every workload is deployed and warmed, then ``gc.collect(); gc.freeze()``;
* timed work is cut into rounds, interleaved round-robin across the workloads
  of the run, so a noisy-neighbour episode is shared instead of landing on one;
* a fixed piece of work, the *reference*, is timed every few round trips, and
  every time measured is divided by how much slower the reference ran right
  beside it than it does on a quiet box (see :func:`reference`);
* every round yields its own value of each metric and the run reports the
  median of them (the unscaled median and the pooled percentile are kept as
  diagnostics);
* the seed reaches only the generated inputs.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError

from perf import layers, loadgen, stats, workloads

ROUNDS = 9
REFERENCE_ROUNDS = 3  # the traced run's short end-to-end reference
MIN_SETUPS = 5
MAX_SETUPS = 40
SETUP_BUDGET_S = 2.0
MIN_PASSES = 200
QUICK_PASSES = 30
OBS_LEG_ROUND_TRIPS = 5
BATCH_S = 0.04  # a closed loop's round trips between two runs of the reference
REFERENCE_ITEMS = 3000
REFERENCE_S = 0.0018  # the reference on this kind of box when quiet: the unit, not a measurement


@dataclass
class Plan:
    """How long each part of a run lasts."""

    rounds: int
    round_s: float
    repeat_setup: bool
    traced_s: float | None  # None = no traced run
    obs_s: float
    min_passes: int = MIN_PASSES

    @classmethod
    def make(cls, seconds: float, trace: int | None, quick: bool) -> "Plan":
        """``trace``: 0 = end-to-end only (all of ``seconds``), 1 = the traced
        run with a short end-to-end reference, None = both in full."""
        if quick:
            return cls(2, 1.0, False, 0.0, 0.5, QUICK_PASSES)
        if trace == 1:
            return cls(REFERENCE_ROUNDS, seconds / 12, False, seconds * 0.5, seconds * 0.1)
        traced_s = None if trace == 0 else seconds * 0.5
        return cls(ROUNDS, seconds / ROUNDS, True, traced_s, seconds * 0.1)


@dataclass
class Batch:
    """The messages sent between two runs of the reference."""

    sent: list[loadgen.Sent]
    wall_s: float
    cpu_s: float
    slowdown: float  # the reference beside this batch against REFERENCE_S


@dataclass
class RoundLog:
    """One timed round of one workload."""

    batches: list[Batch]
    shapes: list[str]  # the mix sequence; a closed loop cycles through it
    wire_bytes: int = 0

    @property
    def sent(self) -> list[loadgen.Sent]:
        return [s for batch in self.batches for s in batch.sent]

    def shape_of(self, index: int) -> str:
        """The shape of message ``index``."""
        return self.shapes[index % len(self.shapes)]


@dataclass
class WorkloadRun:
    """Everything measured for one workload."""

    deployment: workloads.Deployment
    setup_s: float  # scaled, like every time the run reports
    setup_cold_s: float
    setup_raw_s: float
    rounds: list[RoundLog] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    per_layer: dict[str, float | None] = field(default_factory=dict)
    missing: dict[str, str] = field(default_factory=dict)
    spans: list[list] = field(default_factory=list)
    passes: int = 0
    replay_matches_wire: bool | None = None
    gc_collections: int = 0


def reference() -> float:
    """Seconds one run of a fixed piece of pure-Python work took: how fast the
    box is right now.

    This box's speed wanders by up to a factor of two, within a second and for
    minutes at a time (the reference alone on a pinned CPU shows it), and
    everything timed wanders with it.  So the reference runs before and after
    every set-up and every :data:`BATCH_S` of a closed loop's round trips, and
    each time measured in between is divided by its ``slowdown`` = the mean of
    the two runs beside it over :data:`REFERENCE_S`; rates of a closed loop
    are multiplied by it.  The work is what the program mostly does — format,
    join, encode, split and hash many short strings — because a loop of plain
    arithmetic slowed down by a quarter less than the workloads did.

    What did not work: scaling a whole two-second round by references run at
    its ends (the box changes speed inside the round), and scaling against the
    fastest reference of the run (in a slow quarter of an hour there is none).
    """
    begin = time.perf_counter()
    parts = [f'<e{i} a="{i}">{i * 7}</e{i}>' for i in range(REFERENCE_ITEMS)]
    text = "".join(parts).encode().decode()
    index = {part: len(part) for part in text.split("<")}
    assert len(index) == 2 * REFERENCE_ITEMS + 1
    return time.perf_counter() - begin


def _slowdown(before: float, after: float) -> float:
    return (before + after) / 2 / REFERENCE_S


def deploy(workload, messages, repeat: bool, execute_us: int):
    """Set the workload up; returns the deployment, the set-up time, the time
    of the first set-up (both scaled) and the unscaled set-up time.

    With ``repeat`` it is set up again and again — at least five times, then
    until two seconds are spent — keeping the last deployment and the median time:
    one set-up of a small workload is 25 ms and would not repeat.  The first
    set-up of the process is the cold one: it alone pays for whatever the
    program builds on first use.
    """
    times: list[float] = []
    scaled: list[float] = []
    deployment = None
    before = reference()
    while True:
        if deployment is not None:
            deployment.close()
        begin = time.perf_counter()
        deployment = workloads.Deployment(workload, messages, execute_us=execute_us)
        times.append(time.perf_counter() - begin)
        after = reference()
        scaled.append(times[-1] / _slowdown(before, after))
        before = after
        enough = len(times) >= MIN_SETUPS and (
            sum(times) >= SETUP_BUDGET_S or len(times) >= MAX_SETUPS
        )
        if not repeat or enough:
            return deployment, statistics.median(scaled), scaled[0], statistics.median(times)


def run_round(run: WorkloadRun, round_s: float, rng: random.Random) -> None:
    """One timed round: closed loop for ``round_s`` in batches with the
    reference between them, or the open-loop schedule of ``round_s`` worth of
    arrivals as one batch."""
    deployment = run.deployment
    workload, messages, lanes = deployment.workload, deployment.messages, deployment.lanes

    block = sum(count for _, count in workload.mix)
    if workload.open_rate is None:
        shapes = workloads.mix_sequence(workload, block)  # cycled through
    else:
        count = block * max(1, round(workload.open_rate * round_s / block))
        shapes = workloads.mix_sequence(workload, count, rng)
        offsets = loadgen.poisson_offsets(rng, count, round_s)
    log = RoundLog([], shapes)

    def send(index: int, sender: int) -> bool:
        message = messages[log.shape_of(index)]
        try:
            return message.check(lanes[sender].send(message))
        except ReproError as exc:
            if len(run.errors) < 5:
                run.errors.append(repr(exc))
            return False

    transport = deployment.transport
    bytes_before = transport.bytes_out + transport.bytes_in
    closed = workload.open_rate is None
    deadline = time.perf_counter() + round_s
    first = 0
    before = reference()
    while True:
        cpu_before = time.process_time()
        if closed:
            sent = loadgen.run_closed_loop(send, BATCH_S, first=first)
        else:
            sent = loadgen.run_open_loop(offsets, send, workload.senders)
        cpu_s = time.process_time() - cpu_before
        after = reference()
        wall_s = max(s.end for s in sent) - min(s.due for s in sent)
        log.batches.append(Batch(sent, wall_s, cpu_s, _slowdown(before, after)))
        first += len(sent)
        before = after
        if not closed or time.perf_counter() >= deadline:
            break
    log.wire_bytes = transport.bytes_out + transport.bytes_in - bytes_before
    run.rounds.append(log)


def _calls(run: WorkloadRun, log: RoundLog) -> int:
    messages = run.deployment.messages
    return sum(len(messages[log.shape_of(s.index)].calls) for s in log.sent if s.ok)


def _latencies_ms(log: RoundLog, shape: str | None = None, scaled: bool = False) -> list[float]:
    """The round's good samples, of one shape or of all; ``scaled``: each
    divided by its batch's slowdown."""
    return [
        s.latency * 1e3 / (batch.slowdown if scaled else 1.0)
        for batch in log.batches
        for s in batch.sent
        if s.ok and (shape is None or log.shape_of(s.index) == shape)
    ]


def reference_rt_ms(run: WorkloadRun) -> float | None:
    """The round trip the layer sum is held against: each shape's unscaled
    median (over rounds, of the round's median), weighted by the shape's share
    of the traffic.  Unscaled because the layer times are; with one shape it
    *is* ``rt_p50_raw_ms``."""
    total = 0.0
    for shape, weight in run.deployment.workload.weights.items():
        per_round = [_latencies_ms(log, shape) for log in run.rounds]
        if not all(per_round):
            return None
        total += weight * statistics.median(stats.percentile(r, 50) for r in per_round)
    return total


def end_to_end(run: WorkloadRun) -> dict[str, Any]:
    """The end-to-end metrics and their diagnostics from the timed rounds.

    Each round gives its own p50, p90, rate and cost from times divided by
    their batch's ``slowdown``; the metric is the median over rounds, so an
    episode that slows a minority of rounds does not move it and anything that
    slows most of them does.  An open loop's rate is set by its schedule, not
    by the box's speed, and is not scaled.
    """
    per_round = [_latencies_ms(log) for log in run.rounds]
    latencies = stats.pooled(per_round)
    lates = stats.pooled([s.late * 1e3 for s in log.sent] for log in run.rounds)
    attempted = sum(len(log.sent) for log in run.rounds)
    failed = sum(not s.ok for log in run.rounds for s in log.sent)
    calls = [_calls(run, log) for log in run.rounds]
    backlogs = [max(loadgen.backlog_at_starts(log.sent), default=0) for log in run.rounds]
    growing = sum(loadgen.backlog_grows(log.sent) for log in run.rounds)
    result: dict[str, Any] = {
        "setup_s": run.setup_s,
        "setup_cold_s": run.setup_cold_s,
        "setup_raw_s": run.setup_raw_s,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "samples": len(latencies),
        "samples_per_round": min(map(len, per_round)),
        "highest_supported_percentile": stats.highest_supported_percentile(len(latencies)),
        "connections": len(run.deployment.transport.channels),
        "sender_threads": run.deployment.workload.senders,
        "loadgen.late_p99_ms": stats.percentile(lates, 99),
        "loadgen.backlog_max": max(backlogs),
        "rounds_with_growing_backlog": growing,
        "valid": growing * 2 <= len(run.rounds),
        "errors": run.errors,
    }
    if all(per_round) and all(calls):
        closed = run.deployment.workload.open_rate is None
        scaled = [_latencies_ms(log, scaled=True) for log in run.rounds]
        p50s = [stats.percentile(r, 50) for r in per_round]
        p90s = [stats.percentile(r, 90) for r in per_round]
        scaled_p50s = [stats.percentile(r, 50) for r in scaled]
        scaled_p90s = [stats.percentile(r, 90) for r in scaled]
        result.update(
            {
                "rt_p50_ms": statistics.median(scaled_p50s),
                "rt_p90_ms": statistics.median(scaled_p90s),
                "calls_per_s": statistics.median(
                    n / sum(b.wall_s / (b.slowdown if closed else 1.0) for b in log.batches)
                    for n, log in zip(calls, run.rounds)
                ),
                "cpu_ms_per_call": statistics.median(
                    sum(b.cpu_s / b.slowdown for b in log.batches) * 1e3 / n
                    for n, log in zip(calls, run.rounds)
                ),
                "wire_bytes_per_call": sum(log.wire_bytes for log in run.rounds)
                / sum(calls),
                "slowdown": statistics.median(
                    b.slowdown for log in run.rounds for b in log.batches
                ),
                "reference_rt_ms": reference_rt_ms(run),
                "rt_p50_rounds_ms": scaled_p50s,
                "rt_p90_rounds_ms": scaled_p90s,
                "rt_p50_raw_ms": statistics.median(p50s),
                "rt_p90_raw_ms": statistics.median(p90s),
                "rt_p50_pooled_ms": stats.percentile(latencies, 50),
                "rt_p90_pooled_ms": stats.percentile(latencies, 90),
                "loadgen.rt_p99_ms": stats.percentile(latencies, 99),
            }
        )
    return result


def obs_overhead(run: WorkloadRun, budget_s: float, execute_us: int) -> float | None:
    """Round-trip time with ``Observability()`` on over off, minus one.

    A second deployment with observability on; legs of a few closed-loop round
    trips alternate off-on-on-off so drift cancels.
    """
    base = run.deployment
    try:
        observability = layers.Api().Observability()
    except layers.MissingSymbol as exc:
        run.missing["obs.on_overhead_share"] = f"missing {exc}"
        return None
    observed = workloads.Deployment(
        base.workload, base.messages, execute_us=execute_us, observability=observability
    )
    try:
        block = sum(count for _, count in base.workload.mix)
        sequence = workloads.mix_sequence(base.workload, max(block, OBS_LEG_ROUND_TRIPS))
        samples: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        deadline = time.perf_counter() + budget_s
        legs = 0
        while legs < 4 or time.perf_counter() < deadline:
            for on in (False, True, True, False):
                lane = (observed if on else base).lanes[0]
                for shape in sequence:
                    message = base.messages[shape]
                    begin = time.perf_counter()
                    lane.send(message)
                    samples[on].setdefault(shape, []).append(time.perf_counter() - begin)
                legs += 1
    finally:
        observed.close()
    weights = base.workload.weights
    on_ms, off_ms = (
        sum(w * statistics.median(samples[on][shape]) for shape, w in weights.items())
        for on in (True, False)
    )
    return on_ms / off_ms - 1.0


def traced_run(run: WorkloadRun, plan: Plan, execute_us: int) -> None:
    """Fill in the per-layer metrics of one workload."""
    traced = layers.TracedRun(run.deployment)
    try:
        run.passes = traced.run(plan.traced_s, plan.min_passes)
        run.per_layer, run.missing = traced.metrics()
        run.spans = traced.all_spans()
        run.replay_matches_wire = traced.replay_matches_wire
    finally:
        traced.close()
    run.per_layer["obs.on_overhead_share"] = obs_overhead(run, plan.obs_s, execute_us)
    reference, layer_sum = reference_rt_ms(run), run.per_layer["bench.layer_sum_ms"]
    run.per_layer["bench.unattributed_share"] = (
        None if not reference or layer_sum is None else 1.0 - layer_sum / reference
    )
    run.per_layer["bench.setup_cold_s"] = run.setup_cold_s
    run.per_layer["bench.missing_probes"] = len(run.missing)
    run.per_layer["proc.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    run.per_layer["proc.gc_collections"] = run.gc_collections


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def run(
    names: list[str], seed: int, plan: Plan, execute_us: int = 0
) -> dict[str, WorkloadRun]:
    """Deploy the named workloads, time them, trace them, tear them down."""
    runs: dict[str, WorkloadRun] = {}
    reference()  # its first run pays for the interpreter's own warm-up
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            messages = workloads.make_messages(workload, seed)
            runs[name] = WorkloadRun(
                *deploy(workload, messages, plan.repeat_setup, execute_us)
            )
        gc.collect()
        gc.freeze()
        for number in range(plan.rounds):
            for name, workload_run in runs.items():
                rng = random.Random(f"{name}:{seed}:round{number}")
                before = _gc_collections()
                run_round(workload_run, plan.round_s, rng)
                workload_run.gc_collections += _gc_collections() - before
        if plan.traced_s is not None:
            for workload_run in runs.values():
                traced_run(workload_run, plan, execute_us)
    finally:
        gc.unfreeze()
        for workload_run in runs.values():
            workload_run.deployment.close()
    return runs
