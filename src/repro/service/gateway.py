"""Concurrent admission gateway for bursty multi-application arrivals.

The Fig.-3 control loop admits applications one at a time; under a burst of
arrivals that serializes on a single solver even though the expensive part
of admission — candidate task-assignment-path search (Algorithm 2 per
path) — is independent per request.  The gateway turns admission into a
queue/batch problem, the way R-Storm-style resource-aware schedulers and
HEFT-style list schedulers treat placement:

1. **Queue** — arrivals land in a bounded priority queue: Guaranteed-Rate
   requests ahead of Best-Effort, weighted FIFO within each class (a BE
   request with priority ``w`` advances ``w`` times faster than a
   priority-1 peer).  A full queue sheds load by raising
   :class:`~repro.exceptions.BackpressureError` — nothing is silently
   dropped.
2. **Evaluate in parallel** — each epoch pops a batch and evaluates every
   request against the same frozen
   :class:`~repro.core.scheduler.AdmissionSnapshot` using
   :func:`~repro.core.scheduler.evaluate_against_snapshot`, fanned out
   over worker threads or processes (processes sidestep the GIL: the
   per-request Algorithm-2 search is pure Python).
3. **Commit sequentially with optimistic revalidation** — proposals are
   committed in priority order against the *live* scheduler.  An accepted
   GR proposal re-checks residual feasibility and Eq. (7) at commit time
   (``SparcleScheduler.commit(..., revalidate=True)``); an accepted BE
   proposal conflicts when its footprint overlaps elements already
   committed this epoch (its Theorem-3 predicted shares are stale).
   Conflicting proposals are re-queued with a bounded retry budget
   (reusing :class:`~repro.core.repair.RetryPolicy`; the policy's backoff
   is measured in epochs here) and finally fall back to an exact serial
   evaluate+commit against live state, so every submitted request always
   gets a decision.

Rejections commit without revalidation: between snapshot and commit,
capacity only shrinks (commits consume; nothing releases mid-epoch), so a
request the richer snapshot rejects would be rejected serially too.

**Decision equivalence.**  For *conflict-free* batches — no proposal's
footprint overlaps another's — every proposal revalidates trivially and
the gateway's accept/reject set equals serial admission in the same
priority order (the property test in
``tests/properties/test_gateway_properties.py`` checks exactly this).
Overlapping-but-feasible GR proposals still commit (the reservations are
revalidated, so capacity is never oversubscribed) but the chosen paths may
differ from what a strictly serial scheduler would have picked; the
``overlap_commits`` stat counts how often that relaxation was exercised.

The gateway is a single-threaded control loop: ``submit``/``run_epoch``/
``drain`` must be called from one thread, and no other code may mutate the
scheduler between an epoch's snapshot and its commits.  Parallelism lives
entirely inside the evaluation fan-out.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.network import Network
from repro.core.repair import RetryPolicy
from repro.core.scheduler import (
    AdmissionProposal,
    AdmissionSnapshot,
    Assigner,
    BERequest,
    Decision,
    GRRequest,
    SparcleScheduler,
    evaluate_against_snapshot,
)
from repro.exceptions import (
    AdmissionError,
    BackpressureError,
    GatewayError,
    StaleProposalError,
)
from repro.perf import timer, tracing
from repro.perf.metrics import get_metrics

if TYPE_CHECKING:
    from repro.service.protocol import SubmitRequest

#: Epochs a drain() is allowed to run before concluding the queue is stuck.
MAX_DRAIN_EPOCHS = 10_000


# ----------------------------------------------------------------------
# Process-pool plumbing: workers hold the (immutable) network + assigner
# once, and receive only (request, snapshot) per task.
# ----------------------------------------------------------------------
_WORKER_CONTEXT: dict = {}


def _init_worker(network: Network, assigner: Assigner) -> None:
    """Process-pool initializer: stash the per-worker evaluation context."""
    _WORKER_CONTEXT["network"] = network
    _WORKER_CONTEXT["assigner"] = assigner


def _evaluate_in_worker(
    payload: tuple[BERequest | GRRequest, AdmissionSnapshot],
) -> AdmissionProposal:
    """Evaluate one request inside a pool worker (see :func:`_init_worker`)."""
    request, snapshot = payload
    return evaluate_against_snapshot(
        request,
        _WORKER_CONTEXT["network"],
        snapshot,
        assigner=_WORKER_CONTEXT["assigner"],
    )


@dataclass
class _Pending:
    """One queued request with its scheduling metadata."""

    seq: int
    request: BERequest | GRRequest
    kind: str  # "GR" or "BE"
    weight: float
    attempts: int = 0
    not_before_epoch: int = 0

    def sort_key(self) -> tuple[int, float, int]:
        """Priority-class, weighted-FIFO virtual time, then arrival order."""
        rank = 0 if self.kind == "GR" else 1
        return (rank, self.seq / self.weight, self.seq)


def _classify(
    request: "BERequest | GRRequest | SubmitRequest",
) -> tuple[BERequest | GRRequest, str, float]:
    """An arrival as ``(request, kind, weight)``; wire submits converted.

    GR requests weigh 1; a BE request weighs its priority.  Raises
    :class:`AdmissionError` for anything that is not a request.
    """
    from repro.service.protocol import SubmitRequest

    if isinstance(request, SubmitRequest):
        request = request.to_request()
    if isinstance(request, GRRequest):
        return request, "GR", 1.0
    if isinstance(request, BERequest):
        return request, "BE", request.priority
    raise AdmissionError(
        f"unsupported request type {type(request).__name__!r}"
    )


class _AdmissionQueue:
    """The bounded priority queue, retry backoff and retry budget.

    Entries pop in :meth:`_Pending.sort_key` order; an entry re-queued
    by :meth:`retry` sits out its backoff (``RetryPolicy`` delay, counted
    in the caller's epochs) before it pops again.  Decisions are settled
    per ticket here too, so callers keep only their commit step.
    """

    def __init__(
        self, name: str, max_depth: int, retry_policy: RetryPolicy
    ) -> None:
        self.name = name
        self.max_depth = max_depth
        self.retry_policy = retry_policy
        self._heap: list[tuple[tuple[int, float, int], _Pending]] = []
        self._ids: set[str] = set()
        #: Settled decisions by ticket (the entry's ``seq``).
        self.decided: dict[int, Decision] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, app_id: object) -> bool:
        return app_id in self._ids

    def push(
        self, request: BERequest | GRRequest, kind: str, weight: float
    ) -> _Pending:
        """Enqueue one arrival; :class:`BackpressureError` when full."""
        if len(self._heap) >= self.max_depth:
            raise BackpressureError(
                f"{self.name} queue full ({self.max_depth}); "
                f"request {request.app_id!r} shed"
            )
        entry = _Pending(self._seq, request, kind, weight)
        self._seq += 1
        heapq.heappush(self._heap, (entry.sort_key(), entry))
        self._ids.add(request.app_id)
        return entry

    def pop_batch(self, epoch: int, limit: int | None = None) -> list[_Pending]:
        """Pop up to ``limit`` entries not backing off, in priority order."""
        if limit is None:
            limit = len(self._heap)
        batch: list[_Pending] = []
        deferred: list[tuple[tuple[int, float, int], _Pending]] = []
        while self._heap and len(batch) < limit:
            key, entry = heapq.heappop(self._heap)
            if entry.not_before_epoch > epoch:
                deferred.append((key, entry))
                continue
            batch.append(entry)
        for item in deferred:
            heapq.heappush(self._heap, item)
        return batch

    def retry(self, entry: _Pending, epoch: int) -> bool:
        """Re-queue one conflicted entry; ``False`` once its budget is spent.

        A ``False`` entry is not re-queued: the caller decides it serially.
        """
        entry.attempts += 1
        if entry.attempts >= self.retry_policy.max_attempts:
            return False
        entry.not_before_epoch = epoch + 1 + int(
            self.retry_policy.delay(entry.attempts)
        )
        heapq.heappush(self._heap, (entry.sort_key(), entry))
        return True

    def settle(self, entry: _Pending, decision: Decision) -> None:
        """Record the decision for one popped entry."""
        self.decided[entry.seq] = decision
        self._ids.discard(entry.request.app_id)


@dataclass(frozen=True)
class EpochReport:
    """What one :meth:`AdmissionGateway.run_epoch` call did."""

    epoch: int
    batch: int
    committed: int
    accepted: int
    rejected: int
    conflicts: int
    serial_fallbacks: int
    queue_depth: int


@dataclass
class GatewayStats:
    """Running totals over the gateway's lifetime."""

    submitted: int = 0
    epochs: int = 0
    evaluated: int = 0
    committed: int = 0
    accepted: int = 0
    rejected: int = 0
    #: Requeues caused by commit-time staleness (GR infeasibility or BE
    #: footprint overlap).  Zero conflicts on a drain means the batch was
    #: conflict-free and the accept/reject set matches serial admission.
    conflicts: int = 0
    #: Accepted proposals whose footprint overlapped earlier commits in the
    #: same epoch but still revalidated — committed, with the caveat that a
    #: serial scheduler might have chosen different paths.
    overlap_commits: int = 0
    serial_fallbacks: int = 0
    backpressure_rejections: int = 0


class AdmissionGateway:
    """Batched, parallel admission control in front of one scheduler.

    ``workers`` sets the evaluation fan-out (0 evaluates in-line);
    ``executor`` picks ``"thread"`` or ``"process"`` pools — processes pay
    a spawn/IPC cost but actually parallelize the pure-Python Algorithm-2
    search, and require a picklable assigner.  ``batch_size`` caps how many
    requests one epoch evaluates (default: everything eligible);
    ``retry_policy`` bounds per-request conflict retries before the serial
    fallback, with the policy's backoff delay interpreted in epochs.

    Use as a context manager (or call :meth:`close`) to release pools.
    """

    def __init__(
        self,
        scheduler: SparcleScheduler,
        *,
        workers: int = 0,
        executor: str = "thread",
        max_queue_depth: int = 128,
        batch_size: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if workers < 0:
            raise GatewayError(f"workers must be non-negative, got {workers}")
        if executor not in ("thread", "process"):
            raise GatewayError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if max_queue_depth < 1:
            raise GatewayError(
                f"max_queue_depth must be positive, got {max_queue_depth}"
            )
        if batch_size is not None and batch_size < 1:
            raise GatewayError(f"batch_size must be positive, got {batch_size}")
        self.scheduler = scheduler
        self.workers = workers
        self.executor_kind = executor
        self.max_queue_depth = max_queue_depth
        self.batch_size = batch_size
        self.retry_policy = retry_policy or RetryPolicy()
        self.stats = GatewayStats()
        #: Decisions in commit order (the scheduler's log holds them too).
        self.decisions: list[Decision] = []
        self._queue = _AdmissionQueue(
            "gateway", max_queue_depth, self.retry_policy
        )
        self._epoch = 0
        self._pool: Executor | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "AdmissionGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down any worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            if self.executor_kind == "process":
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(self.scheduler.network, self.scheduler.assigner),
                )
            else:
                self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for an epoch."""
        return len(self._queue)

    @property
    def epoch(self) -> int:
        """Epochs run so far."""
        return self._epoch

    def decision_for(self, ticket: int) -> Decision | None:
        """The decision for one :meth:`submit` ticket, if committed yet."""
        return self._queue.decided.get(ticket)

    @staticmethod
    def priority_order(
        requests: Iterable[BERequest | GRRequest],
    ) -> list[BERequest | GRRequest]:
        """The gateway's commit order for a one-shot batch of requests.

        A serial baseline that submits in this order sees the same
        priority discipline the gateway applies (GR class first, weighted
        FIFO within class) — the order used by the decision-equivalence
        property and the benchmark.
        """
        entries = [
            _Pending(seq, *_classify(request))
            for seq, request in enumerate(requests)
        ]
        return [e.request for e in sorted(entries, key=_Pending.sort_key)]

    # ------------------------------------------------------------------
    # Arrival side
    # ------------------------------------------------------------------
    def submit(
        self, request: "BERequest | GRRequest | SubmitRequest"
    ) -> int:
        """Enqueue one arrival; returns a ticket for :meth:`decision_for`.

        Accepts the in-process request dataclasses and the wire-typed
        :class:`~repro.service.protocol.SubmitRequest` (converted via
        ``to_request()``), so network and in-process callers share one
        entry point.  Raises :class:`BackpressureError` when the bounded
        queue is full and :class:`AdmissionError` for duplicate app ids
        (already admitted or already queued).
        """
        request, kind, weight = _classify(request)
        if request.app_id in self._queue or self.scheduler.has_app(
            request.app_id
        ):
            raise AdmissionError(
                f"app id {request.app_id!r} already queued or admitted"
            )
        try:
            entry = self._queue.push(request, kind, weight)
        except BackpressureError:
            self.stats.backpressure_rejections += 1
            get_metrics().incr("gateway.backpressure")
            tr = tracing.get_tracer()
            if tr.enabled:
                tr.event(
                    "gateway.backpressure",
                    app_id=request.app_id,
                    queue_depth=len(self._queue),
                )
            raise
        self.stats.submitted += 1
        get_metrics().set_gauge("gateway.queue_depth", float(len(self._queue)))
        return entry.seq

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------
    def _evaluate_batch(
        self, batch: Sequence[_Pending], snapshot: AdmissionSnapshot
    ) -> list[AdmissionProposal]:
        network = self.scheduler.network
        assigner = self.scheduler.assigner
        if self.workers <= 1:
            return [
                evaluate_against_snapshot(
                    entry.request, network, snapshot, assigner=assigner
                )
                for entry in batch
            ]
        pool = self._ensure_pool()
        if self.executor_kind == "process":
            payloads = [(entry.request, snapshot) for entry in batch]
            chunksize = max(1, len(batch) // (self.workers * 2))
            return list(
                pool.map(_evaluate_in_worker, payloads, chunksize=chunksize)
            )
        return list(
            pool.map(
                lambda entry: evaluate_against_snapshot(
                    entry.request, network, snapshot, assigner=assigner
                ),
                batch,
            )
        )

    def _requeue_or_fallback(self, entry: _Pending, reason: str) -> Decision | None:
        """Handle one conflicted proposal; returns a decision on fallback."""
        self.stats.conflicts += 1
        metrics = get_metrics()
        metrics.incr("gateway.conflicts", kind=entry.kind)
        requeued = self._queue.retry(entry, self._epoch)
        tr = tracing.get_tracer()
        if tr.enabled:
            tr.event(
                "gateway.conflict",
                app_id=entry.request.app_id,
                kind=entry.kind,
                attempt=entry.attempts,
                reason=reason,
            )
        if requeued:
            return None
        # Retry budget spent: decide exactly as the serial path would,
        # against live state — guarantees every request terminates with a
        # decision.
        self.stats.serial_fallbacks += 1
        metrics.incr("gateway.serial_fallbacks")
        return self.scheduler.commit(self.scheduler.evaluate(entry.request))

    def run_epoch(self) -> EpochReport:
        """Evaluate one batch in parallel, then commit sequentially.

        Returns an :class:`EpochReport`; an empty report (batch 0) means
        the queue was empty or every entry is still backing off.
        """
        self._epoch += 1
        self.stats.epochs += 1
        metrics = get_metrics()
        metrics.incr("gateway.epochs")
        with timer("gateway.epoch"):
            batch = self._queue.pop_batch(self._epoch, self.batch_size)
            committed = accepted = rejected = conflicts = fallbacks = 0
            if batch:
                snapshot = self.scheduler.admission_snapshot()
                proposals = self._evaluate_batch(batch, snapshot)
                self.stats.evaluated += len(batch)
                dirty: set[str] = set()
                for entry, proposal in zip(batch, proposals):
                    decision: Decision | None
                    if not proposal.accepted:
                        # Capacity only shrinks between snapshot and
                        # commit, so a snapshot-time reject is final.
                        decision = self.scheduler.commit(proposal)
                    else:
                        footprint = proposal.used_elements()
                        overlap = bool(footprint & dirty)
                        if proposal.kind == "BE" and overlap:
                            # Stale Theorem-3 shares on contested elements.
                            conflicts += 1
                            decision = self._requeue_or_fallback(
                                entry, "predicted view stale"
                            )
                            if decision is None:
                                continue
                            fallbacks += 1
                        else:
                            try:
                                decision = self.scheduler.commit(
                                    proposal, revalidate=True
                                )
                                if overlap:
                                    self.stats.overlap_commits += 1
                            except StaleProposalError as error:
                                conflicts += 1
                                decision = self._requeue_or_fallback(
                                    entry, str(error)
                                )
                                if decision is None:
                                    continue
                                fallbacks += 1
                        if decision.accepted:
                            dirty |= footprint
                    committed += 1
                    self.stats.committed += 1
                    if decision.accepted:
                        accepted += 1
                        self.stats.accepted += 1
                    else:
                        rejected += 1
                        self.stats.rejected += 1
                    self._record(entry, decision)
        metrics.set_gauge("gateway.queue_depth", float(len(self._queue)))
        report = EpochReport(
            epoch=self._epoch,
            batch=len(batch),
            committed=committed,
            accepted=accepted,
            rejected=rejected,
            conflicts=conflicts,
            serial_fallbacks=fallbacks,
            queue_depth=len(self._queue),
        )
        tr = tracing.get_tracer()
        if tr.enabled:
            tr.event(
                "gateway.epoch",
                epoch=report.epoch,
                batch=report.batch,
                committed=report.committed,
                accepted=report.accepted,
                conflicts=report.conflicts,
                queue_depth=report.queue_depth,
            )
        return report

    def _record(self, entry: _Pending, decision: Decision) -> None:
        self.decisions.append(decision)
        self._queue.settle(entry, decision)

    # ------------------------------------------------------------------
    # Convenience drivers
    # ------------------------------------------------------------------
    def drain(self) -> list[EpochReport]:
        """Run epochs until the queue is empty; returns the epoch reports."""
        reports: list[EpochReport] = []
        for _ in range(MAX_DRAIN_EPOCHS):
            if not self._queue:
                return reports
            reports.append(self.run_epoch())
        raise GatewayError(
            f"drain did not converge within {MAX_DRAIN_EPOCHS} epochs "
            f"({len(self._queue)} requests still queued)"
        )

    def process(
        self, requests: Sequence[BERequest | GRRequest]
    ) -> list[Decision]:
        """Submit a burst and drain it; decisions in submission order."""
        tickets = [self.submit(request) for request in requests]
        self.drain()
        return [self._queue.decided[ticket] for ticket in tickets]
