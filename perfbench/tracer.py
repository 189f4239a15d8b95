"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry points of each layer of the
serving stack where their callers look the names up (a module attribute
or a class attribute), so nothing inside ``src/`` changes.  Each call
records one span ``[name, start, end, parent, request_id, extra, cpu]``
(``cpu`` is the thread CPU time of a top-level span, else 0);
spans stay in memory and :meth:`Tracer.dump` writes them as JSON lines
when the server exits.  A wrapper whose target no longer exists is
listed as absent instead of failing the run.

:func:`layer_metrics` turns a dumped trace into the per-layer figures,
counting only spans that start inside the measured windows.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import statistics
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any


def _rid_arg(index: int) -> Callable[[tuple, dict], str | None]:
    """Request id taken from argument ``index`` (an id or an object with one)."""

    def rid(args: tuple, kwargs: dict) -> str | None:
        if len(args) <= index:
            return None
        value = args[index]
        if isinstance(value, str):
            return value
        found = getattr(value, "app_id", None)
        if found is None:
            found = getattr(getattr(value, "request", None), "app_id", None)
        return found if isinstance(found, str) else None

    return rid


def _epoch_counts(state: Any, args: tuple, result: Any) -> dict[str, int]:
    shard_reports = getattr(result, "shard_reports", ())
    return {
        "cross_accepted": int(getattr(result, "cross_accepted", 0)),
        "cross_conflicts": int(getattr(result, "cross_conflicts", 0)),
        "fallbacks": int(getattr(result, "cross_serial_fallbacks", 0))
        + sum(int(getattr(r, "serial_fallbacks", 0)) for _, r in shard_reports),
    }


def _log_size(args: tuple) -> int:
    path = getattr(args[0], "path", None)
    return os.path.getsize(path) if path is not None else 0


def _log_bytes(state: int, args: tuple, result: Any) -> dict[str, int]:
    return {"bytes": _log_size(args) - state}


#: (layer, module, attribute path, span name, request-id source, before, after)
TARGETS: tuple[tuple[Any, ...], ...] = (
    ("service.protocol", "repro.service.server", "parse_request", "protocol.decode", None, None, None),
    ("service.protocol", "repro.service.server", "encode_message", "protocol.encode", None, None, None),
    ("service.protocol", "repro.service.protocol", "DecisionReply.from_decision", "protocol.decision", _rid_arg(1), None, None),
    ("service.protocol", "repro.service.protocol", "SubmitRequest.to_request", "protocol.to_request", None, None, None),
    ("service.server", "repro.service.server", "SparcleServer._handle_line", "server.request", None, None, None),
    ("service.server", "repro.service.server", "SparcleServer._flush_decisions", "server.flush", None, None, None),
    ("service.gateway", "repro.service.gateway", "AdmissionGateway.submit", "gateway.submit", _rid_arg(1), None, None),
    ("service.gateway", "repro.service.gateway", "AdmissionGateway.run_epoch", "gateway.epoch", None, None, None),
    ("service.shard", "repro.service.shard", "ShardCoordinator.submit", "shard.submit", _rid_arg(1), None, None),
    ("service.shard", "repro.service.shard", "ShardCoordinator.run_epoch", "shard.epoch", None, None, _epoch_counts),
    ("service.shard", "repro.service.shard", "ShardCoordinator.withdraw", "shard.withdraw", _rid_arg(1), None, None),
    ("service.shard", "repro.service.shard", "ShardCoordinator.recover", "shard.recover", None, None, None),
    ("service.shard", "repro.service.shard", "ShardEventLog.__init__", "shard.log_open", None, None, None),
    ("service.shard", "repro.service.shard", "ShardEventLog.append", "shard.log_append", None, _log_size, _log_bytes),
    ("core.scheduler", "repro.service.gateway", "evaluate_against_snapshot", "scheduler.evaluate", _rid_arg(0), None, None),
    ("core.scheduler", "repro.service.shard", "evaluate_admission", "scheduler.evaluate", _rid_arg(0), None, None),
    ("core.scheduler", "repro.core.scheduler", "SparcleScheduler.evaluate", "scheduler.evaluate", _rid_arg(1), None, None),
    ("core.scheduler", "repro.core.scheduler", "SparcleScheduler.commit", "scheduler.commit", _rid_arg(1), None, None),
    ("core.scheduler", "repro.core.scheduler", "SparcleScheduler.reserve_external", "scheduler.commit", _rid_arg(1), None, None),
    ("core.scheduler", "repro.core.scheduler", "SparcleScheduler.withdraw", "scheduler.withdraw", _rid_arg(1), None, None),
    ("core.routing", "repro.core.assignment", "widest_path", "routing.point", None, None, None),
    ("core.routing", "repro.core.assignment", "widest_path_tree", "routing.tree", None, None, None),
    ("core.arrays", "repro.core.arrays", "link_weights", "arrays.link_weights", None, None, None),
    ("core.availability", "repro.core.scheduler", "min_rate_availability", "availability.min_rate", None, None, None),
    ("core.availability", "repro.core.scheduler", "any_path_availability", "availability.any_path", None, None, None),
)

LAYER_OF_SPAN = {target[3]: target[0] for target in TARGETS}
LAYER_OF_SPAN["assignment.assign"] = "core.assignment"


class Tracer:
    """In-memory span recorder for one single-threaded server process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        rid: Callable[[tuple, dict], str | None] | None = None,
        before: Callable[[tuple], Any] | None = None,
        after: Callable[[Any, tuple, Any], dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        spans, stack, clock, cpu = self.spans, self._stack, time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            request = rid(args, kwargs) if rid is not None else None
            if request is None and parent >= 0:
                request = spans[parent][4]
            state = before(args) if before is not None else None
            # Top-level spans also carry their CPU time, which the
            # unattributed remainder is taken against.
            cpu_start = cpu() if parent < 0 else 0.0
            record = [name, clock(), 0.0, parent, request, None, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                if parent < 0:
                    record[6] = cpu() - cpu_start
                stack.pop()
            if after is not None:
                record[5] = after(state, args, result)
            return result

        return traced

    def install(self, assigner: Callable[..., Any]) -> Callable[..., Any]:
        """Patch every target in :data:`TARGETS`; returns the traced assigner."""
        for layer, module_name, path, name, rid, before, after in TARGETS:
            *parents, attr = path.split(".")
            try:
                owner: Any = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{layer}: {module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, rid, before, after)))
            else:
                setattr(owner, attr, self.wrap(raw, name, rid, before, after))
        return self.wrap(assigner, "assignment.assign")

    def dump(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"absent": self.absent}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Analysis (runs in the benchmark client)
# ----------------------------------------------------------------------
#: Per-layer metric -> the span names it is computed from.
SOURCES = {
    "protocol.ms_per_decision": ("protocol.decode", "protocol.encode", "protocol.decision", "protocol.to_request"),
    "server.self_ms_per_decision": ("server.request", "server.flush"),
    "gateway.queue_wait_ms_p50": ("shard.submit", "shard.epoch", "protocol.decision"),
    "gateway.epoch_ms_p50": ("shard.epoch",),
    "gateway.decisions_per_epoch": ("shard.epoch",),
    "gateway.evaluations_per_commit": ("scheduler.evaluate",),
    "shard.cross_commits_per_decision": ("shard.epoch",),
    "shard.cross_conflicts": ("shard.epoch",),
    "shard.serial_fallbacks": ("shard.epoch",),
    "shard.log_appends_per_decision": ("shard.log_append",),
    "shard.log_append_ms_per_decision": ("shard.log_append",),
    "shard.log_bytes_per_record": ("shard.log_append",),
    "shard.log_open_s": ("shard.log_open",),
    "shard.replay_s": ("shard.recover",),
    "shard.withdraw_ms_p50": ("shard.withdraw",),
    "scheduler.evaluate_ms_per_decision": ("scheduler.evaluate",),
    "scheduler.commit_ms_per_decision": ("scheduler.commit",),
    "scheduler.withdraw_ms_p50": ("scheduler.withdraw",),
    "assignment.calls_per_decision": ("assignment.assign",),
    "assignment.self_ms_per_decision": ("assignment.assign",),
    "routing.point_queries_per_decision": ("routing.point",),
    "routing.trees_per_decision": ("routing.tree",),
    "routing.ms_per_decision": ("routing.point", "routing.tree"),
    "arrays.link_weight_passes_per_decision": ("arrays.link_weights",),
    "availability.calls_per_decision": ("availability.min_rate", "availability.any_path"),
    "availability.ms_per_decision": ("availability.min_rate", "availability.any_path"),
    "traced.unattributed_ms_per_decision": (),
}


def absent_metrics(absent: list[str]) -> list[str]:
    """Metrics none of whose source spans can be recorded any more."""
    live_spans = {t[3] for t in TARGETS if f"{t[0]}: {t[1]}.{t[2]}" not in absent}
    live_spans.add("assignment.assign")
    return [
        metric
        for metric, names in SOURCES.items()
        if names and not any(name in live_spans for name in names)
    ]


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def load(path: Path) -> tuple[list[str], list[list[Any]]]:
    with open(path, encoding="utf-8") as handle:
        absent = json.loads(handle.readline())["absent"]
        spans = [json.loads(line) for line in handle]
    return absent, spans


def layer_metrics(
    spans: list[list[Any]],
    windows: list[tuple[float, float]],
    decisions: int,
    server_cpu_s: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics plus a self-time ledger (ms per decision by layer).

    ``windows`` are the measured traffic intervals (``perf_counter``
    seconds, the same monotonic clock the server's spans use);
    ``server_cpu_s`` is the server's CPU time inside them; what its
    top-level spans do not account for is the unattributed remainder.
    """
    n = max(decisions, 1)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    bounds = sorted(windows)
    lows = [lo for lo, _ in bounds]

    def inside(t: float) -> bool:
        k = bisect.bisect_right(lows, t) - 1
        return k >= 0 and t <= bounds[k][1]

    measured = [i for i, s in enumerate(spans) if inside(s[1])]
    by_name: dict[str, list[int]] = {}
    for i in measured:
        by_name.setdefault(spans[i][0], []).append(i)

    def group(*names: str) -> list[int]:
        return [i for name in names for i in by_name.get(name, [])]

    def incl_ms(idx: list[int]) -> float:
        return 1000.0 * sum(spans[i][2] - spans[i][1] for i in idx)

    def self_ms(idx: list[int]) -> float:
        return 1000.0 * sum(spans[i][2] - spans[i][1] - child_time[i] for i in idx)

    def extra(idx: list[int], key: str) -> float:
        return float(sum((spans[i][5] or {}).get(key, 0) for i in idx))

    epochs = sorted(group("shard.epoch"), key=lambda i: spans[i][1])
    epoch_starts = [spans[i][1] for i in epochs]
    submitted = {spans[i][4]: spans[i][2] for i in group("shard.submit")}
    waits = []
    for i in group("protocol.decision"):
        k = bisect.bisect_right(epoch_starts, spans[i][1]) - 1
        sent = submitted.get(spans[i][4])
        if k >= 0 and sent is not None and sent <= epoch_starts[k]:
            waits.append(1000.0 * (epoch_starts[k] - sent))
    appends = group("shard.log_append")
    top_level = [i for i in measured if spans[i][3] < 0]
    evaluations = group("scheduler.evaluate")
    metrics = {
        "protocol.ms_per_decision": incl_ms(group(*SOURCES["protocol.ms_per_decision"])) / n,
        "server.self_ms_per_decision": self_ms(group("server.request", "server.flush")) / n,
        "gateway.queue_wait_ms_p50": _p50(waits),
        "gateway.epoch_ms_p50": _p50([1000.0 * (spans[i][2] - spans[i][1]) for i in epochs]),
        "gateway.decisions_per_epoch": decisions / max(len(epochs), 1),
        "gateway.evaluations_per_commit": len(evaluations) / n,
        "shard.cross_commits_per_decision": extra(epochs, "cross_accepted") / n,
        "shard.cross_conflicts": extra(epochs, "cross_conflicts"),
        "shard.serial_fallbacks": extra(epochs, "fallbacks"),
        "shard.log_appends_per_decision": len(appends) / n,
        "shard.log_append_ms_per_decision": incl_ms(appends) / n,
        "shard.log_bytes_per_record": extra(appends, "bytes") / max(len(appends), 1),
        "shard.log_open_s": sum(s[2] - s[1] for s in spans if s[0] == "shard.log_open"),
        "shard.replay_s": sum(s[2] - s[1] for s in spans if s[0] == "shard.recover"),
        "shard.withdraw_ms_p50": _p50([1000.0 * (spans[i][2] - spans[i][1]) for i in group("shard.withdraw")]),
        "scheduler.evaluate_ms_per_decision": incl_ms(evaluations) / n,
        "scheduler.commit_ms_per_decision": incl_ms(group("scheduler.commit")) / n,
        "scheduler.withdraw_ms_p50": _p50([1000.0 * (spans[i][2] - spans[i][1]) for i in group("scheduler.withdraw")]),
        "assignment.calls_per_decision": len(group("assignment.assign")) / n,
        "assignment.self_ms_per_decision": self_ms(group("assignment.assign")) / n,
        "routing.point_queries_per_decision": len(group("routing.point")) / n,
        "routing.trees_per_decision": len(group("routing.tree")) / n,
        "routing.ms_per_decision": incl_ms(group("routing.point", "routing.tree")) / n,
        "arrays.link_weight_passes_per_decision": len(group("arrays.link_weights")) / n,
        "availability.calls_per_decision": len(group("availability.min_rate", "availability.any_path")) / n,
        "availability.ms_per_decision": incl_ms(group("availability.min_rate", "availability.any_path")) / n,
        "traced.unattributed_ms_per_decision": 1000.0 * (server_cpu_s - sum(spans[i][6] for i in top_level)) / n,
    }
    ledger: dict[str, float] = {}
    for i in measured:
        layer = LAYER_OF_SPAN.get(spans[i][0], "other")
        ledger[layer] = ledger.get(layer, 0.0) + 1000.0 * (spans[i][2] - spans[i][1] - child_time[i]) / n
    ledger["unattributed"] = metrics["traced.unattributed_ms_per_decision"]
    return metrics, ledger
