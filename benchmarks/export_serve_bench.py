#!/usr/bin/env python
"""Export serving-front-end numbers to ``BENCH_serve.json``.

The benchmark drives one pinned admission burst through the asyncio
serving front-end (:class:`~repro.service.server.SparcleServer`) over
real sockets and compares it against the in-process gateway on the same
8-NCP mesh:

* ``in-process`` — serial ``submit``/``run_epoch``/``decision_for`` on
  an :class:`~repro.service.gateway.AdmissionGateway` (no sockets, no
  JSON: the floor the wire path is measured against);
* ``serve-serial`` — the same stream one request at a time over the
  wire, awaiting each decision before the next submit.  Must be
  decision-equivalent to ``in-process`` (the property suite proves the
  bit-for-bit claim);
* ``serve-closed-loop`` — a :meth:`SparcleClient.process` burst with a
  bounded inflight window, recording submit→decision latency
  percentiles;
* ``serve-4-clients`` — the burst striped over four concurrent
  connections multiplexed onto the same single-threaded backend.

The CI gate (``--check``) asserts the ``/metrics`` page exports the
``sparcle_server_*`` family, serve-serial admits exactly the in-process
accept set, and one quick kill-mid-burst/recover chaos scenario
(:func:`repro.chaos.run_serve_soak`) passes with zero violations.

Usage::

    PYTHONPATH=src python benchmarks/export_serve_bench.py
    PYTHONPATH=src python benchmarks/export_serve_bench.py --quick --check
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_REPO = _HERE.parent
for entry in (str(_REPO / "src"), str(_HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.chaos import run_serve_soak  # noqa: E402
from repro.core.network import fully_connected_network  # noqa: E402
from repro.core.scheduler import (  # noqa: E402
    BERequest,
    GRRequest,
    SparcleScheduler,
)
from repro.core.taskgraph import linear_task_graph  # noqa: E402
from repro.perf.metrics import LabeledRegistry  # noqa: E402
from repro.service.client import (  # noqa: E402
    SparcleClient,
    scrape_metrics,
)
from repro.service.gateway import AdmissionGateway  # noqa: E402
from repro.service.server import SparcleServer  # noqa: E402

REQUESTS = 64
N_NCPS = 8
WINDOW = 8
N_CLIENTS = 4
SOAK_SEED = 7


def make_burst(count: int):
    """The 8-NCP mesh and one deterministic mixed GR/BE burst."""
    network = fully_connected_network(
        N_NCPS, cpu=200000.0, link_bandwidth=500.0
    )
    ncps = sorted((ncp.name for ncp in network.ncps),
                  key=lambda n: int(n[3:]))
    requests = []
    for index in range(count):
        src = ncps[index % N_NCPS]
        dst = ncps[(index + 3) % N_NCPS]
        graph = linear_task_graph(
            3, cpu_per_ct=[200.0, 300.0, 100.0],
            megabits_per_tt=[1.0, 0.8, 0.5, 0.5],
        ).with_pins({"source": src, "sink": dst}, name=f"bench{index}")
        if index % 3 == 2:
            requests.append(BERequest(
                f"bench{index}", graph,
                priority=float(1 + index % 3), max_paths=2,
            ))
        else:
            requests.append(GRRequest(
                f"bench{index}", graph, min_rate=0.02, max_paths=2,
            ))
    return network, requests


def run_in_process(network, requests) -> dict:
    """Serial submit -> epoch -> decision on the in-process gateway."""
    scheduler = SparcleScheduler(network)
    accepted = set()
    with AdmissionGateway(
        scheduler, workers=0, max_queue_depth=len(requests)
    ) as gateway:
        start = time.perf_counter()
        for request in requests:
            ticket = gateway.submit(request)
            gateway.run_epoch()
            decision = gateway.decision_for(ticket)
            if decision is not None and decision.accepted:
                accepted.add(request.app_id)
        wall = time.perf_counter() - start
    return {
        "mode": "in-process",
        "clients": 0,
        "window": 1,
        "wall_s": wall,
        "requests_per_s": len(requests) / wall,
        "accepted": len(accepted),
        "accepted_ids": sorted(accepted),
    }


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


def run_serve_serial(network, requests) -> dict:
    """One request at a time over the wire; the equivalence row."""

    async def _run():
        accepted = set()
        latencies: list[float] = []
        async with SparcleServer(
            network,
            n_shards=1,
            max_queue_depth=len(requests),
            epoch_interval=0.002,
            registry=LabeledRegistry(),
        ) as server:
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                loop = asyncio.get_running_loop()
                start = time.perf_counter()
                for request in requests:
                    sent = loop.time()
                    await client.submit(request)
                    reply = await client.decision(request.app_id)
                    latencies.append(loop.time() - sent)
                    if reply.accepted:
                        accepted.add(request.app_id)
                wall = time.perf_counter() - start
        return accepted, latencies, wall

    accepted, latencies, wall = asyncio.run(_run())
    return {
        "mode": "serve-serial",
        "clients": 1,
        "window": 1,
        "wall_s": wall,
        "requests_per_s": len(requests) / wall,
        "accepted": len(accepted),
        "accepted_ids": sorted(accepted),
        "latency_p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "latency_p95_ms": _percentile(latencies, 0.95) * 1000.0,
    }


def run_serve_burst(network, requests, *, n_clients: int,
                    window: int) -> dict:
    """The burst striped over concurrent closed-loop clients."""

    async def _run():
        async with SparcleServer(
            network,
            n_shards=1,
            max_queue_depth=len(requests),
            max_inflight=window,
            epoch_interval=0.002,
            registry=LabeledRegistry(),
        ) as server:
            stripes = [requests[i::n_clients] for i in range(n_clients)]

            async def _drive(stripe):
                async with await SparcleClient.open(
                    server.host, server.port
                ) as client:
                    return await client.process(stripe, window=window)

            start = time.perf_counter()
            results = await asyncio.gather(
                *(_drive(stripe) for stripe in stripes)
            )
            wall = time.perf_counter() - start
            body = await scrape_metrics(server.host, server.port)
        decisions = [d for stripe in results for d in stripe]
        return decisions, wall, body

    decisions, wall, metrics_body = asyncio.run(_run())
    mode = (
        "serve-closed-loop" if n_clients == 1 else f"serve-{n_clients}-clients"
    )
    return {
        "mode": mode,
        "clients": n_clients,
        "window": window,
        "wall_s": wall,
        "requests_per_s": len(requests) / wall,
        "accepted": sum(
            1 for d in decisions if d is not None and d.accepted
        ),
        "metrics_exported": "sparcle_server_accepted" in metrics_body,
    }


def run_kill_recover(seed: int) -> dict:
    """One quick chaos scenario: kill mid-burst, recover, verify."""
    report = run_serve_soak(seed, 12, quick=True)
    return {
        "seed": seed,
        "ok": report.ok,
        "violations": [v.to_dict() for v in report.violations],
        "recovered": report.stats.get("recovered", 0),
        "duplicates_post_recovery": report.stats.get(
            "duplicates_post_recovery", 0
        ),
    }


def run(count: int, *, window: int, n_clients: int) -> dict:
    network, requests = make_burst(count)
    rows = [run_in_process(network, requests)]
    for maker in (
        lambda: run_serve_serial(*make_burst(count)),
        lambda: run_serve_burst(*make_burst(count), n_clients=1,
                                window=window),
        lambda: run_serve_burst(*make_burst(count), n_clients=n_clients,
                                window=window),
    ):
        rows.append(maker())
    baseline_rps = rows[0]["requests_per_s"]
    for row in rows:
        row["relative_throughput"] = row["requests_per_s"] / baseline_rps
    return {
        "benchmark": "serve",
        "requests": count,
        "window": window,
        "n_clients": n_clients,
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "kill_recover": run_kill_recover(SOAK_SEED),
    }


def check(report: dict) -> list[str]:
    """CI gate: metrics, decision equivalence, and crash recovery."""
    failures = []
    rows = {row["mode"]: row for row in report["rows"]}
    serial = rows["serve-serial"]
    in_process = rows["in-process"]
    if serial["accepted_ids"] != in_process["accepted_ids"]:
        failures.append(
            "serve-serial accept set differs from in-process "
            f"({len(serial['accepted_ids'])} vs "
            f"{len(in_process['accepted_ids'])} accepted)"
        )
    for mode, row in rows.items():
        if "metrics_exported" in row and not row["metrics_exported"]:
            failures.append(f"{mode}: /metrics lacked sparcle_server_*")
    kill = report["kill_recover"]
    if not kill["ok"]:
        failures.append(
            f"kill/recover chaos scenario failed: {kill['violations']}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=REQUESTS)
    parser.add_argument("--window", type=int, default=WINDOW)
    parser.add_argument("--clients", type=int, default=N_CLIENTS)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: 24 requests instead of the full burst",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless equivalence/metrics/recovery all hold",
    )
    parser.add_argument(
        "--out", default=str(_REPO / "BENCH_serve.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    count = 24 if args.quick else args.requests
    report = run(count, window=args.window, n_clients=args.clients)
    Path(args.out).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    for row in report["rows"]:
        latency = (
            f"  p95 {row['latency_p95_ms']:6.1f} ms"
            if "latency_p95_ms" in row else ""
        )
        print(
            f"  {row['mode']:18s} {row['requests_per_s']:8.1f} req/s  "
            f"accepted {row['accepted']:3d}  "
            f"x{row['relative_throughput']:.2f}{latency}"
        )
    kill = report["kill_recover"]
    print(
        f"  kill/recover       ok={kill['ok']} "
        f"recovered={kill['recovered']} "
        f"duplicates={kill['duplicates_post_recovery']}"
    )
    print(f"wrote {args.out}")
    if args.check:
        failures = check(report)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
