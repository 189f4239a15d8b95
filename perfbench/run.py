#!/usr/bin/env python3
"""SPARCLE serving benchmark: one command, two socket workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload templated-mesh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --repeat 10 --seconds 20          # steadiness table
    python3 perfbench/run.py --inprocess --workload templated-mesh --seed 1

One run launches the server in its own process (``server_main.py``,
built through ``repro.api`` with shards and a durable ``log_dir``),
times that launch several times (``setup_s``), then drives the last one
from this process over two connections, closed loop, one request in
flight per connection, for whole rounds until ``--seconds`` of traffic
and at least 200 decisions are in.  Every decision is checked by
``checks.py``; the last stdout line is the JSON result.  ``--trace 1``
adds a second, traced server and reports the per-layer figures instead
of the end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import gc
import importlib.util
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks
import program
import selftest
import tracer
import workloads as wl
from wire import Connection, ProtocolViolation, WireError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: Server launches per run whose launch-to-first-connection time is taken;
#: ``setup_s`` is their median.  The last one serves the measured phase.
SETUP_LAUNCHES = 5
#: The measured phase runs whole rounds until at least this many decisions
#: (and ``--seconds`` of traffic); ``admitted_rate_total`` is summed over
#: exactly the rounds that first reach it.
MIN_DECISIONS = 400
LAUNCH_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

#: restart-replay: the churn log the program writes before the relaunch.
CHURN_APPS = 2000
CHURN_HOLD = 80
#: Recovered ids resubmitted before traffic; each must be refused.
DUPLICATE_PROBES = 2
#: The torn-log fixture is made from this fixed seed, never from --seed.
TORN_SEED = 0
TORN_APPS = 24
TORN_HOLD = 8


# ----------------------------------------------------------------------
# Machine fingerprint and calibration
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Time of a fixed pure-Python loop: shows slow moments of the host.

    Recorded beside every result; never used to rescale a metric.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def fingerprint() -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": sha or "unknown",
        "calibration_s": round(calibration_s(), 4),
    }


# ----------------------------------------------------------------------
# Operation ledger
# ----------------------------------------------------------------------
#: Operation types counted in the result's ``attempted``/``failed``: every
#: round performs a fixed number of each, whatever the seed.  Withdraws
#: and duplicate probes follow from decisions (their count depends on the
#: seed); they are reported per type and any failure of theirs makes the
#: run incorrect.
COUNTED = ("submit", "recover_torn")


@dataclass
class Ops:
    attempted: collections.Counter = field(default_factory=collections.Counter)
    failed: collections.Counter = field(default_factory=collections.Counter)
    faults: dict[str, str] = field(default_factory=dict)

    def add(self, kind: str, ok: bool, fault: str = "") -> None:
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1
            self.faults.setdefault(kind, fault)


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    recovered: int
    setup_s: float
    log_dir: Path
    trace_out: Path | None

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def cpu_s(self) -> float:
        """CPU seconds the server's main thread has run so far (ns clock)."""
        with open(f"/proc/{self.proc.pid}/schedstat", encoding="ascii") as handle:
            return int(handle.read().split()[0]) / 1e9


async def _first_contact(port: int) -> None:
    conn = await Connection.open(port)
    try:
        await conn.status()
    finally:
        await conn.close()


def launch(run_dir: Path, layout: wl.Layout, tag: str, *, recover_from: Path | None, trace: bool) -> Server:
    log_dir = run_dir / f"logs-{tag}"
    if recover_from is not None:
        shutil.copytree(recover_from, log_dir)
    trace_out = run_dir / f"spans-{tag}.jsonl" if trace else None
    spec = {
        "network": layout.network,
        "n_shards": layout.n_shards,
        "zones": layout.zones,
        "log_dir": str(log_dir),
        "recover": recover_from is not None,
        "trace_out": str(trace_out) if trace_out else None,
    }
    spec_path = run_dir / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "server_main.py"), str(spec_path)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    assert proc.stdout is not None
    ready, _, _ = select.select([proc.stdout], [], [], LAUNCH_TIMEOUT_S)
    line = proc.stdout.readline() if ready else b""
    if not line:
        stop(proc)
        raise RuntimeError(f"server {tag} did not start (exit {proc.returncode})")
    info = json.loads(line)
    asyncio.run(_first_contact(info["port"]))
    setup_s = time.perf_counter() - start
    return Server(proc, info["port"], info["recovered"], setup_s, log_dir, trace_out)


def stop(proc: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    """Stop a server process and wait until it has ended."""
    if proc.returncode is None:
        proc.send_signal(sig)
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def log_bytes(log_dir: Path) -> int:
    return sum(p.stat().st_size for p in log_dir.glob("*.jsonl"))


# ----------------------------------------------------------------------
# restart-replay inputs, written by the program in this process
# ----------------------------------------------------------------------
def write_churn_log(layout: wl.Layout, submits: list[dict[str, Any]], log_dir: Path, hold: int,
                    errors: list[str], model: checks.Model) -> list[tuple[dict, dict]]:
    """Run a churn stream through the program; returns the live acked apps.

    The last submit's decision is the final log record (no withdraw
    follows it).  The coordinator is then dropped at that quiescent
    point, as a killed server would leave its logs.
    """
    coord = program.coordinator(layout, log_dir)
    live: collections.deque[tuple[dict, dict]] = collections.deque()
    try:
        for fields in submits:
            decision = program.decide(coord, fields)
            errors.extend(checks.check_decision(model, fields, decision))
            if decision["accepted"]:
                live.append((fields, decision))
                if len(live) > hold and fields is not submits[-1]:
                    coord.withdraw(live.popleft()[0]["app_id"])
    finally:
        coord.close()
    return list(live)


def write_torn_fixture(run_dir: Path, errors: list[str]) -> tuple[Path, wl.Layout, int]:
    """A small fixed log whose last record is cut in half.

    Returns the fixture directory, its layout and how many live apps a
    correct recovery finds: those acknowledged before the torn record.
    """
    layout = wl.regions_layout(TORN_SEED, tag="torn")
    fixture = run_dir / "torn"
    submits = wl.churn_submits(layout, TORN_SEED, TORN_APPS)
    live = write_churn_log(layout, submits, fixture, TORN_HOLD, errors, checks.Model(layout.network))
    last = submits[-1]["app_id"]
    expected = len(live) - (1 if live and live[-1][0]["app_id"] == last else 0)
    for path in sorted(fixture.glob("shard-*.jsonl")):
        data = path.read_bytes()
        tail = data.splitlines(keepends=True)[-1]
        if last.encode() in tail:
            with open(path, "r+b") as handle:
                handle.truncate(len(data) - len(tail) // 2)
            return fixture, layout, expected
    raise RuntimeError("torn fixture: no shard log ends with the last app's record")


def recover_torn(fixture: Path, layout: wl.Layout, expected: int, scratch: Path, ops: Ops,
                 errors: list[str]) -> None:
    """Recover a copy of the torn log in process, as ``--recover`` would."""
    copy = scratch / "torn-copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(fixture, copy)
    try:
        coord = program.coordinator(layout, copy)
        try:
            recovered = coord.recover()
        finally:
            coord.close()
    except (json.JSONDecodeError, program.api().ShardError) as error:
        # What the torn tail raises today, or a fix that rejects the log.
        ops.add("recover_torn", False, f"torn-tail: {type(error).__name__}: {error}")
        return
    except Exception as error:  # any other break is not the known fault
        errors.append(f"recover_torn: unexpected {type(error).__name__}: {error}")
        return
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    ops.add("recover_torn", True)
    if recovered != expected:
        errors.append(f"recover_torn: recovered {recovered} apps, expected {expected}")


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Deployer:
    """One connection: one request in flight, a bounded set of live apps."""

    cid: int
    conn: Connection
    live: collections.deque = field(default_factory=collections.deque)
    recovered: list[tuple[dict, dict]] = field(default_factory=list)


@dataclass
class Phase:
    decisions: list[tuple[int, dict, dict, float]] = field(default_factory=list)
    withdraw_s: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    traffic_s: float = 0.0
    rounds: int = 0
    peak_rss_mb: float = 0.0
    log_bytes: int = 0
    server_cpu_s: float = 0.0


async def _withdraw(d: Deployer, app_id: str, ops: Ops, sink: list[float] | None) -> None:
    try:
        seconds = await d.conn.withdraw(app_id)
    except WireError as error:
        ops.add("withdraw", False, f"{app_id}: {error}")
        return
    ops.add("withdraw", True)
    if sink is not None:
        sink.append(seconds)


async def submit_phase(d: Deployer, workload: str, layout: wl.Layout, seed: int, rnd: int,
                       ops: Ops, out: list) -> None:
    for fields in wl.round_submits(workload, layout, seed, d.cid, rnd):
        try:
            decision, seconds = await d.conn.submit(fields)
        except WireError as error:
            ops.add("submit", False, f"{fields['app_id']}: {error}")
            continue
        ops.add("submit", True)
        out.append((rnd, fields, decision, seconds))
        if decision["accepted"]:
            d.live.append((fields, decision))


async def withdraw_phase(d: Deployer, ops: Ops, sink: list[float] | None) -> None:
    while d.recovered:
        fields, _decision = d.recovered.pop(0)
        await _withdraw(d, fields["app_id"], ops, sink)
    while len(d.live) > wl.HOLDING:
        old, _ = d.live.popleft()
        await _withdraw(d, old["app_id"], ops, sink)


async def drive(server: Server, workload: str, layout: wl.Layout, seed: int, seconds: float,
                model: checks.Model, recovered: list[tuple[dict, dict]], torn: tuple | None,
                run_dir: Path, ops: Ops, errors: list[str]) -> Phase:
    """Warm-up round, then measured rounds, then withdraw everything.

    A round is a submit phase on both connections at once, then a
    withdraw phase on both.  Withdraws wait for the submits so that their
    latency is withdraw work, not a wait behind a decision.  The checks
    run at the quiescent points between phases, off the clock.
    Recovered apps are withdrawn in the warm-up round, so every measured
    round serves the same kind of traffic whatever the run's length.
    """
    deployers = [Deployer(c, await Connection.open(server.port)) for c in range(wl.CONNECTIONS)]
    for i, app in enumerate(recovered):
        deployers[i % len(deployers)].recovered.append(app)
    for fields, _ in recovered[:DUPLICATE_PROBES]:
        refused = await deployers[0].conn.refused_as_duplicate(fields)
        ops.add("resubmit_duplicate", refused, f"{fields['app_id']} was not refused as a duplicate")
    phase = Phase()
    rnd = 0
    while True:
        measured = rnd > 0
        round_ops = ops if measured else Ops()
        out: list = []
        before_bytes = log_bytes(server.log_dir)
        before_cpu = server.cpu_s()
        # This process's own collector pauses would land in the latencies
        # it times; it collects at the quiescent points instead.
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        await asyncio.gather(*(submit_phase(d, workload, layout, seed, rnd, round_ops, out) for d in deployers))
        middle = time.perf_counter()
        cpu_middle = server.cpu_s()
        gc.enable()
        live_gr = [app for d in deployers for app in list(d.live) + d.recovered if app[0]["kind"] == "GR"]
        errors.extend(checks.check_reservations_fit(model, live_gr))
        gc.collect()
        gc.disable()
        resume = time.perf_counter()
        cpu_resume = server.cpu_s()
        sink = phase.withdraw_s if measured else None
        await asyncio.gather(*(withdraw_phase(d, round_ops, sink) for d in deployers))
        end = time.perf_counter()
        gc.enable()
        if measured:
            phase.server_cpu_s += server.cpu_s() - cpu_resume + cpu_middle - before_cpu
            phase.log_bytes += log_bytes(server.log_dir) - before_bytes
            phase.windows += [(start, middle), (resume, end)]
            busy = (middle - start) + (end - resume)
            phase.traffic_s += busy
            phase.rounds += 1
            phase.decisions.extend(out)
            if phase.rounds == min_rounds(workload):
                phase.peak_rss_mb = server.peak_rss_mb()
        else:
            for kind, count in round_ops.failed.items():
                errors.append(f"warm-up: {count} {kind} operations failed: {round_ops.faults[kind]}")
        for _rnd, fields, decision, _s in out:
            errors.extend(checks.check_decision(model, fields, decision))
        if torn is not None and measured:
            recover_torn(*torn, run_dir, ops, errors)
        rnd += 1
        if measured and phase.traffic_s >= seconds and phase.rounds >= min_rounds(workload):
            break
    for d in deployers:
        for fields, _ in d.recovered + list(d.live):
            await _withdraw(d, fields["app_id"], ops, None)
        d.recovered.clear()
        d.live.clear()
    for d in deployers:
        if not await d.conn.idle(0.05):
            errors.append(f"connection {d.cid}: unsolicited line after the last reply")
        await d.conn.close()
    return phase


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def min_rounds(workload: str) -> int:
    return math.ceil(MIN_DECISIONS / (wl.SUBMITS_PER_ROUND * wl.CONNECTIONS))


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def end_to_end(phase: Phase, workload: str, setup: list[float]) -> dict[str, float]:
    lat = [s * 1000.0 for _, _, _, s in phase.decisions]
    wd = [s * 1000.0 for s in phase.withdraw_s]
    # The admitted total is taken over the same first rounds in every run,
    # so it compares decisions, not how many rounds a run got through.
    admitted = sum(
        sum(decision["path_rates"])
        for rnd, _, decision, _ in phase.decisions
        if rnd <= min_rounds(workload) and decision["accepted"]
    )
    return {
        "setup_s": statistics.median(setup),
        "decisions_per_s": len(phase.decisions) / phase.traffic_s,
        "decision_p50_ms": statistics.median(lat),
        "decision_p95_ms": p95(lat),
        "withdraw_p50_ms": statistics.median(wd) if wd else 0.0,
        "withdraw_p95_ms": p95(wd) if wd else 0.0,
        "admitted_rate_total": admitted,
        "peak_rss_mb": phase.peak_rss_mb,
        "log_bytes_per_decision": phase.log_bytes / len(phase.decisions),
    }


#: Printed with the end-to-end metrics but left out of the result: on a
#: shared 2-CPU host the 1-4 ms withdraws are set by host jitter, and
#: their spread between runs reached or exceeded the largest usable bound
#: (see README).
REPORTED_ONLY = ("withdraw_p50_ms", "withdraw_p95_ms")

UNITS = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p95_ms": "ms",
    "withdraw_p50_ms": "ms",
    "withdraw_p95_ms": "ms",
    "admitted_rate_total": "units/s",
    "peak_rss_mb": "MB",
    "log_bytes_per_decision": "B",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("ms_per_decision"):
        return "ms/decision"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_per_record"):
        return "B/record"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    info = fingerprint()
    print("fingerprint:", json.dumps(info))
    layout = wl.layout_for(workload)
    model = checks.Model(layout.network)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops, errors = Ops(), []
    servers: list[Server] = []
    result_metrics: dict[str, Any] = {}
    try:
        pristine = torn = None
        recovered: list[tuple[dict, dict]] = []
        if workload == "restart-replay":
            pristine = run_dir / "churn"
            recovered = write_churn_log(
                layout, wl.churn_submits(layout, seed, CHURN_APPS), pristine, CHURN_HOLD, errors, model
            )
            torn = write_torn_fixture(run_dir, errors)
        launches = 1 if trace else SETUP_LAUNCHES
        setup = []
        for k in range(launches):
            servers.append(launch(run_dir, layout, f"setup{k}", recover_from=pristine, trace=False))
            setup.append(servers[-1].setup_s)
            if pristine is not None and servers[-1].recovered != len(recovered):
                errors.append(f"launch {k} recovered {servers[-1].recovered} apps, acknowledged {len(recovered)}")
            if k < launches - 1:
                stop(servers[-1].proc)
                shutil.rmtree(servers[-1].log_dir, ignore_errors=True)
        server = servers[-1]
        phase = asyncio.run(drive(server, workload, layout, seed, seconds, model, recovered, torn, run_dir, ops, errors))
        stop(server.proc)
        errors.extend(checks.check_final_residual(model, server.log_dir))
        metrics = end_to_end(phase, workload, setup)
        for name, value in metrics.items():
            note = f"  (n={len(phase.decisions)})" if name.startswith("decision_p") else ""
            note = f"  (n={len(phase.withdraw_s)})" if name.startswith("withdraw_p") else note
            note = f"  (median of {len(setup)} launches)" if name == "setup_s" else note
            note += "  (reported only)" if name in REPORTED_ONLY else ""
            print(f"e2e {name:<24} {value:12.4f} {UNITS[name]}{note}")
        accepted = sum(1 for _, _, decision, _ in phase.decisions if decision["accepted"])
        print(f"measured: {phase.rounds} rounds, {phase.traffic_s:.2f} s of traffic, "
              f"{accepted} of {len(phase.decisions)} submits accepted")
        result_metrics = {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
            if name not in REPORTED_ONLY
        }
        if trace:
            result_metrics = traced_phase(
                run_dir, workload, layout, seed, seconds, model, pristine, recovered, torn,
                ops, errors, servers, metrics["decisions_per_s"],
            )
    except ProtocolViolation as error:
        errors.append(f"protocol violation: {error}")
    finally:
        for server in servers:
            stop(server.proc, signal.SIGKILL)
        shutil.rmtree(run_dir, ignore_errors=True)
    for kind in sorted(ops.attempted):
        print(f"ops {kind:<20} attempted {ops.attempted[kind]:6d}  failed {ops.failed[kind]:6d}")
    for kind, fault in ops.faults.items():
        print(f"FAULT {kind}: {fault}")
    for kind in set(ops.failed) - set(COUNTED):
        errors.append(f"{ops.failed[kind]} {kind} operations failed: {ops.faults[kind]}")
    for error in errors[:20]:
        print("CHECK FAILED:", error)
    correct = not errors
    result = {
        "correct": correct,
        "attempted": sum(ops.attempted[k] for k in COUNTED),
        "failed": sum(ops.failed[k] for k in COUNTED),
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def traced_phase(run_dir: Path, workload: str, layout: wl.Layout, seed: int, seconds: float,
                 model: checks.Model, pristine: Path | None, recovered: list, torn: tuple | None,
                 ops: Ops, errors: list[str], servers: list[Server], untraced_dps: float) -> dict[str, Any]:
    """Run the same phase on a traced server; returns the per-layer metrics."""
    server = launch(run_dir, layout, "traced", recover_from=pristine, trace=True)
    servers.append(server)
    phase = asyncio.run(drive(server, workload, layout, seed, seconds, model, list(recovered), torn, run_dir, ops, errors))
    stop(server.proc)
    errors.extend(checks.check_final_residual(model, server.log_dir))
    assert server.trace_out is not None
    absent, spans = tracer.load(server.trace_out)
    metrics, ledger = tracer.layer_metrics(spans, phase.windows, len(phase.decisions), phase.server_cpu_s)
    traced_dps = len(phase.decisions) / phase.traffic_s
    metrics["traced.decisions_per_s"] = traced_dps
    metrics["traced.overhead_decisions_per_s"] = untraced_dps - traced_dps
    for target in absent:
        print("absent:", target)
    gone = tracer.absent_metrics(absent)
    for name, value in metrics.items():
        print(f"layer {name:<40} {value:12.4f} {layer_unit(name)}{'  ABSENT' if name in gone else ''}")
    print(f"ledger (self ms per decision, {len(phase.decisions)} decisions, {len(spans)} spans):")
    for layer, value in sorted(ledger.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<20} {value:10.4f}")
    kept = WORK / f"spans-{workload}-{seed}.jsonl"
    shutil.copyfile(server.trace_out, kept)
    print(f"spans written to {kept.relative_to(ROOT)}")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}


# ----------------------------------------------------------------------
# In-process serial baseline (no sockets)
# ----------------------------------------------------------------------
def inprocess(workload: str, seed: int, seconds: float) -> int:
    """The same rounds decided serially in this process: the single-thread floor."""
    layout = wl.layout_for(workload)
    run_dir = WORK / f"inproc-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    coord = program.coordinator(layout, run_dir)
    live = [collections.deque() for _ in range(wl.CONNECTIONS)]
    decided, spent, rnd = 0, 0.0, 0
    try:
        while spent < seconds or rnd <= min_rounds(workload):
            start = time.perf_counter()
            streams = [wl.round_submits(workload, layout, seed, c, rnd) for c in range(wl.CONNECTIONS)]
            for i in range(wl.SUBMITS_PER_ROUND):
                for c, stream in enumerate(streams):
                    decision = program.decide(coord, stream[i])
                    if rnd > 0:
                        decided += 1
                    if decision["accepted"]:
                        live[c].append(stream[i]["app_id"])
            for held in live:
                while len(held) > wl.HOLDING:
                    coord.withdraw(held.popleft())
            if rnd > 0:
                spent += time.perf_counter() - start
            rnd += 1
    finally:
        coord.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"inprocess {workload} seed {seed}: {decided} decisions in {spent:.2f} s = {decided / spent:.2f} decisions/s")
    return 0


# ----------------------------------------------------------------------
# Repeat mode: steadiness of every end-to-end metric
# ----------------------------------------------------------------------
def repeat(count: int, seconds: float, seed_base: int) -> int:
    names = list(wl.WORKLOADS)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    calibrations = []
    for i in range(count):
        order = names if i % 2 == 0 else list(reversed(names))
        for name in order:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed_base + i),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            for line in lines:
                if line.startswith("fingerprint:"):
                    calibrations.append(json.loads(line.split(":", 1)[1])["calibration_s"])
            if result is None:
                print(f"{name} seed {seed_base + i}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                return 1
            results[name].append(result)
            share = result["failed"] / result["attempted"]
            print(f"{name} seed {seed_base + i}: correct={result['correct']} failed/attempted="
                  f"{result['failed']}/{result['attempted']} ({share:.6f}) "
                  f"calibration_s={calibrations[-1]}", flush=True)
    print(f"calibration_s: min {min(calibrations):.4f} median {statistics.median(calibrations):.4f} "
          f"max {max(calibrations):.4f}")
    for name in names:
        print(f"\n{name}  ({count} runs)")
        print(f"  {'metric':<24} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results[name]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {metric:<24} {q1:12.4f} {med:12.4f} {q3:12.4f} {spread:8.4f} {bound:7.3f}{flag}")
        shares = {r["failed"] / r["attempted"] for r in results[name]}
        print(f"  failed share: {sorted(shares)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run every workload this many times")
    parser.add_argument("--inprocess", action="store_true", help="serial in-process baseline, no sockets")
    args = parser.parse_args(argv)
    if not program.available():
        print(f"perfbench: no program source under {program.SRC}", file=sys.stderr)
        return 2
    found = selftest.violations()
    if found:
        print("perfbench selftest failed:", *found, sep="\n  ", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args.repeat, args.seconds, args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.inprocess:
        return inprocess(args.workload, args.seed, args.seconds)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
