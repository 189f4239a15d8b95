"""Correctness checks computed apart from the program under test.

Every check here works from the benchmark's own network document (raw
capacities and failure probabilities), the submitted task graphs and the
decisions as they arrived on the wire.  None of it imports ``repro``:
bottleneck rates, element loads and Eq.-(7) availabilities are
recomputed from scratch, the last by brute-force enumeration of the up
and down states of every fallible element a GR app's paths use.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any

#: Relative slack for float comparisons against recomputed quantities.
TOL = 1e-9


class Model:
    """Raw capacities, failure probabilities and adjacency of one network."""

    def __init__(self, network: dict[str, Any]) -> None:
        self.capacity: dict[tuple[str, str], float] = {}
        self.failure: dict[str, float] = {}
        self.ends: dict[str, tuple[str, str]] = {}
        for ncp in network["ncps"]:
            self.failure[ncp["name"]] = float(ncp["failure_probability"])
            for resource, value in ncp["capacities"].items():
                self.capacity[(ncp["name"], resource)] = float(value)
        for link in network["links"]:
            self.failure[link["name"]] = float(link["failure_probability"])
            self.capacity[(link["name"], "bandwidth")] = float(link["bandwidth"])
            self.ends[link["name"]] = (link["a"], link["b"])

    def cap(self, element: str, resource: str) -> float:
        return self.capacity.get((element, resource), 0.0)


def path_loads(graph: dict[str, Any], placement: dict[str, Any]) -> dict[tuple[str, str], float]:
    """Per-unit-rate load of one path on every (element, resource)."""
    hosts = placement["ct_hosts"]
    routes = placement["tt_routes"]
    loads: dict[tuple[str, str], float] = {}
    for ct in graph["cts"]:
        for resource, amount in ct["requirements"].items():
            key = (hosts[ct["name"]], resource)
            loads[key] = loads.get(key, 0.0) + float(amount)
    for tt in graph["tts"]:
        for link in routes.get(tt["name"], ()):
            key = (link, "bandwidth")
            loads[key] = loads.get(key, 0.0) + float(tt["megabits_per_unit"])
    return loads


def bottleneck_rate(model: Model, loads: dict[tuple[str, str], float]) -> float:
    """min over loaded elements of raw capacity / requirement."""
    rate = float("inf")
    for (element, resource), load in loads.items():
        if load > 0.0:
            rate = min(rate, model.cap(element, resource) / load)
    return rate


def path_elements(placement: dict[str, Any]) -> set[str]:
    used = set(placement["ct_hosts"].values())
    for route in placement["tt_routes"].values():
        used.update(route)
    return used


def brute_force_availability(
    model: Model, paths: list[tuple[set[str], float]], min_rate: float
) -> float:
    """P(sum of rates of fully-up paths >= min_rate), by enumeration."""
    fallible = sorted(
        {e for elements, _ in paths for e in elements if model.failure[e] > 0.0}
    )
    total = 0.0
    for states in itertools.product((True, False), repeat=len(fallible)):
        down = {e for e, up in zip(fallible, states) if not up}
        probability = 1.0
        for element, up in zip(fallible, states):
            pf = model.failure[element]
            probability *= (1.0 - pf) if up else pf
        rate = sum(r for elements, r in paths if not (elements & down))
        if rate >= min_rate * (1.0 - TOL):
            total += probability
    return total


def _placement_errors(model: Model, graph: dict[str, Any], placement: dict[str, Any]) -> list[str]:
    """Pins honoured, every CT hosted, every TT route joins its hosts."""
    errors = []
    hosts = placement["ct_hosts"]
    for ct in graph["cts"]:
        host = hosts.get(ct["name"])
        if host is None:
            errors.append(f"CT {ct['name']} unplaced")
        elif ct["pinned_host"] is not None and host != ct["pinned_host"]:
            errors.append(f"CT {ct['name']} on {host}, pinned to {ct['pinned_host']}")
    if errors:
        return errors
    for tt in graph["tts"]:
        at, goal = hosts[tt["src"]], hosts[tt["dst"]]
        for link in placement["tt_routes"].get(tt["name"], ()):
            a, b = model.ends[link]
            if at not in (a, b):
                errors.append(f"TT {tt['name']} route breaks at {link}")
                break
            at = b if at == a else a
        if at != goal:
            errors.append(f"TT {tt['name']} route ends at {at}, not {goal}")
    return errors


def check_decision(model: Model, submit: dict[str, Any], decision: dict[str, Any]) -> list[str]:
    """Every check one decision can be given on its own."""
    app = submit["app_id"]
    if decision.get("app_id") != app or decision.get("kind") != submit["kind"]:
        return [f"{app}: decision names {decision.get('app_id')}/{decision.get('kind')}"]
    if not decision["accepted"]:
        return []
    errors = []
    placements = decision["placements"]
    rates = decision["path_rates"]
    if not placements or len(placements) != len(rates):
        return [f"{app}: {len(placements)} placements for {len(rates)} rates"]
    paths = []
    for placement, rate in zip(placements, rates):
        errors += [f"{app}: {e}" for e in _placement_errors(model, submit["graph"], placement)]
        limit = bottleneck_rate(model, path_loads(submit["graph"], placement))
        if not 0.0 <= rate <= limit * (1.0 + TOL):
            errors.append(f"{app}: path rate {rate} exceeds raw bottleneck {limit}")
        paths.append((path_elements(placement), float(rate)))
    if submit["kind"] == "GR":
        need = float(submit["min_rate"])
        if sum(rates) < need * (1.0 - TOL):
            errors.append(f"{app}: granted {sum(rates)} < min_rate {need}")
        target = float(submit.get("min_rate_availability", 0.0))
        avail = brute_force_availability(model, paths, need)
        if avail < target - TOL:
            errors.append(f"{app}: Eq.(7) availability {avail} < target {target}")
        reported = decision.get("availability")
        if reported is not None and abs(float(reported) - avail) > 1e-6:
            errors.append(f"{app}: reported availability {reported} != enumerated {avail}")
    return errors


def check_reservations_fit(
    model: Model, live_gr: list[tuple[dict[str, Any], dict[str, Any]]]
) -> list[str]:
    """At a quiescent point the live GR reservations fit raw capacities."""
    used: dict[tuple[str, str], float] = {}
    for submit, decision in live_gr:
        for placement, rate in zip(decision["placements"], decision["path_rates"]):
            for key, load in path_loads(submit["graph"], placement).items():
                used[key] = used.get(key, 0.0) + load * float(rate)
    return [
        f"live GR reservations use {value} of {key[1]} on {key[0]} "
        f"(capacity {model.cap(*key)})"
        for key, value in sorted(used.items())
        if value > model.cap(*key) * (1.0 + TOL) + TOL
    ]


def _last_record(path: Path, key: str) -> dict[str, Any] | None:
    """The last JSON record of a log that carries ``key``."""
    for line in reversed(path.read_bytes().splitlines()):
        record = json.loads(line)
        if key in record:
            return record
    return None


def check_final_residual(model: Model, log_dir: Path) -> list[str]:
    """With every app withdrawn, the logs' last residuals are raw.

    Covers each shard's last ``residual`` and the coordinator's last
    boundary-link ``ledger``.
    """
    errors = []
    logs = [(p, "residual") for p in sorted(log_dir.glob("shard-*.jsonl"))]
    if not logs:
        return [f"no shard logs under {log_dir}"]
    logs.append((log_dir / "coordinator.jsonl", "ledger"))
    for path, key in logs:
        record = _last_record(path, key) if path.exists() else None
        if record is None:
            errors.append(f"{path.name}: no record carries {key!r}")
            continue
        for element, resource, value in record[key]:
            raw = model.cap(element, resource)
            if abs(float(value) - raw) > TOL * max(1.0, raw):
                errors.append(
                    f"{path.name}: final residual {resource} on {element} is "
                    f"{value}, raw capacity {raw}"
                )
    return errors
