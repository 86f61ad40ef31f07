"""Request coalescing under a latency/size budget, priority-aware.

The paper's throughput numbers come from *batched* HE workloads (Fig. 8's
``poly_num`` grid axis, Fig. 10's batch scaling); a serving deployment
only sees batches if something forms them.  :class:`RequestBatcher`
implements the classic serving trade-off on the simulated clock:

* a batch *opens* when the first request arrives;
* it *closes* (becomes dispatchable) when either ``max_batch`` requests
  have accumulated (closed by size — dispatch at the *fill instant*,
  the ``max_batch``-th eligible arrival), ``window_us`` has elapsed
  since it opened (closed by time — dispatch at ``open + window``), or
  the earliest absolute deadline among its members would be breached by
  waiting the window out (closed by deadline — dispatch at the deadline
  cut);
* requests arriving after a batch's close time open the next batch.

That is the only close rule: the online pump and in-process
``stream()``/``drain()`` both tick ``HEServer.pump_once`` at each cut,
so they stamp batches identically.

When more requests are eligible than ``max_batch`` admits, membership is
a priority queue *over the requests present at the fill instant*: the
highest-priority (then earliest-deadline, then oldest) requests
front-run into the closing batch and the rest wait for the next one.  A
request arriving after the fill instant can never displace one that was
already there — the batch physically closed before it existed.  With
uniform priorities and no deadlines this reduces exactly to FIFO
windowing.

Requests that are already expired when the batcher examines them
(``deadline_us`` at or before their own arrival, or at or before the
open of the batch they would join) are shed into a side list *before*
they can pull the deadline cut down and collapse the window for live
traffic; the server converts them to typed ``expired`` responses via
:meth:`RequestBatcher.take_expired`.

Multi-tenant deployments can install ``weights_fn`` (a callable
returning ``{client_id: weight}``): when a batch closes by size with
more eligible requests than slots, membership is allocated per tenant
proportionally to weight (largest-remainder rounding, priority order
within a tenant) instead of pure priority order, so one bursty client
cannot monopolise every batch.  The latency budget timer resets per
batch — a batch is never stamped later than its own ``open + window``,
no matter how far the server-lifetime clock has advanced
(empty-then-burst regression).  Batching stays deterministic
given arrivals, priorities, deadlines and weights, so tests can assert
exact window semantics.  :meth:`RequestBatcher.next_cut_us` predicts the
next close from the same cut computation, so an online pump can sleep
exactly until a tick has work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional

from .request import ServeRequest

__all__ = ["BatchPolicy", "Batch", "RequestBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """The latency/size budget one batch may consume.

    ``max_batch`` bounds added queueing work; ``window_us`` bounds the
    extra latency the *first* request of a batch can pay waiting for
    company.  ``window_us=0`` degenerates to per-request dispatch.
    """

    max_batch: int = 8
    window_us: float = 200.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.window_us < 0:
            raise ValueError("window_us must be >= 0")


@dataclass
class Batch:
    """A closed batch ready for dispatch."""

    requests: List[ServeRequest]
    open_us: float
    dispatch_us: float
    closed_by: str  # "size" | "window" | "deadline" | "requeue"

    @property
    def size(self) -> int:
        return len(self.requests)


def _selection_key(req: ServeRequest):
    """Front-running order: priority desc, deadline asc, arrival asc."""
    deadline = req.deadline_us
    return (
        -req.priority,
        deadline if deadline is not None else float("inf"),
        req.arrival_us,
        req.request_id,
    )


def _fair_select(eligible: List[ServeRequest], k: int,
                 weights: Mapping[str, float]) -> List[ServeRequest]:
    """Weighted fair-share membership: ``k`` slots split across tenants.

    Slots are allocated per ``client_id`` proportionally to its weight
    (default 1.0 for tenants the mapping doesn't name), rounded by
    largest remainder and capped at each tenant's queue depth; leftover
    capacity cascades to the tenant with the largest unmet share (ties
    broken by weight, then client id — fully deterministic).  Within a
    tenant the usual front-running order picks which requests fill its
    slots.
    """
    by_client: Dict[str, List[ServeRequest]] = {}
    for r in eligible:
        by_client.setdefault(r.client_id, []).append(r)
    for queue in by_client.values():
        queue.sort(key=_selection_key)
    total_w = sum(max(weights.get(c, 1.0), 0.0) for c in by_client) or 1.0
    share = {c: k * max(weights.get(c, 1.0), 0.0) / total_w
             for c in by_client}
    quota = {c: min(int(share[c]), len(by_client[c])) for c in by_client}
    while sum(quota.values()) < k:
        open_clients = [c for c in by_client if quota[c] < len(by_client[c])]
        if not open_clients:
            break
        nxt = max(open_clients,
                  key=lambda c: (share[c] - quota[c],
                                 weights.get(c, 1.0), c))
        quota[nxt] += 1
    take = [r for c in by_client for r in by_client[c][:quota[c]]]
    return sorted(take, key=_selection_key)[:k]


class _Window(NamedTuple):
    """The window the earliest pending arrival opens."""

    open_us: float
    #: Expired-on-arrival requests, shed before this window can close.
    stale: List[ServeRequest]
    #: ``open + window``, or the earlier deadline cut.
    cut: float
    closed_by: str  # "window" | "deadline": the close reason at ``cut``
    #: Arrivals at or before ``cut``: the requests that may join.
    eligible: List[ServeRequest]
    #: The ``max_batch``-th eligible arrival (size close); None if unfilled.
    fill_us: Optional[float]


class RequestBatcher:
    """Accumulates stamped requests; forms deterministic batches."""

    def __init__(self, policy: BatchPolicy | None = None):
        self.policy = policy or BatchPolicy()
        self.pending: List[ServeRequest] = []
        #: Requests shed as expired-on-arrival by :meth:`form_batches`;
        #: drained by the server via :meth:`take_expired` — each one is
        #: owed exactly one typed ``expired`` terminal response.
        self._expired: List[ServeRequest] = []
        #: Optional tenant-weight source (``() -> {client_id: weight}``)
        #: enabling weighted fair-share membership on size-closed
        #: batches.  None keeps single-tenant front-running semantics.
        self.weights_fn: Optional[Callable[[], Mapping[str, float]]] = None

    def add(self, req: ServeRequest) -> None:
        self.pending.append(req)

    @property
    def depth(self) -> int:
        return len(self.pending)

    def take_expired(self) -> List[ServeRequest]:
        """Drain the expired-on-arrival requests shed while batching."""
        out, self._expired = self._expired, []
        return out

    def evict_lowest(self, below_priority: int,
                     client_id: Optional[str] = None) -> Optional[ServeRequest]:
        """Remove and return the worst pending request under ``below_priority``.

        Victim order: lowest priority first, then latest arrival (the
        newest request has sunk the least queueing time), then request
        id.  ``client_id`` restricts candidates to one tenant's pending
        requests (fairness: a tenant over budget sheds its own traffic).
        Returns None when nothing strictly lower-priority is pending.
        """
        candidates = [
            r for r in self.pending
            if r.priority < below_priority
            and (client_id is None or r.client_id == client_id)
        ]
        if not candidates:
            return None
        victim = min(candidates,
                     key=lambda r: (r.priority, -r.arrival_us, r.request_id))
        self.pending.remove(victim)
        return victim

    def _by_arrival(self) -> List[ServeRequest]:
        return sorted(self.pending, key=lambda r: (r.arrival_us, r.request_id))

    def _first_window(self, remaining: List[ServeRequest]) -> _Window:
        """The window ``remaining[0]`` opens (``remaining`` sorted by arrival).

        The one place a cut is computed: :meth:`form_batches` closes
        windows with it and :meth:`next_cut_us` predicts the next close
        from it, so a pump woken at the prediction always finds work.
        """
        open_us = remaining[0].arrival_us
        # Expired-on-arrival shedding: a request whose deadline is
        # already at/before its own arrival (or the open of the batch it
        # would join) can never be served in time, and its stale
        # deadline would pull the cut down to ``open_us`` and degenerate
        # unrelated traffic into single-request batches.  It is shed
        # before it can influence the deadline cut.
        stale = [
            r for r in remaining if r.deadline_us is not None
            and (r.deadline_us <= r.arrival_us or r.deadline_us <= open_us)
        ]
        window_close = open_us + self.policy.window_us
        # Deadline-aware cut: the earliest absolute deadline among the
        # requests that would join this window pulls the close time
        # forward so no member is dispatched past its budget.
        joiner_deadlines = [
            r.deadline_us for r in remaining
            if r.arrival_us <= window_close and r.deadline_us is not None
        ]
        cut = max(open_us, min([window_close] + joiner_deadlines))
        eligible = [r for r in remaining if r.arrival_us <= cut]
        k = self.policy.max_batch
        return _Window(open_us, stale, cut,
                       "deadline" if cut < window_close else "window",
                       eligible,
                       eligible[k - 1].arrival_us if len(eligible) >= k else None)

    def next_cut_us(self) -> Optional[float]:
        """The earliest ``now_us`` at which :meth:`form_batches` closes
        something; None with nothing pending.

        That is the first window's cut, or its fill instant once
        ``max_batch`` requests are eligible.  An expired-on-arrival
        shed is due at once, so it returns the shed request's arrival.
        A filled batch or a shed therefore reads as already past on a
        live clock.  Later windows open only after the first one
        closes, so they never come first.
        """
        if not self.pending:
            return None
        w = self._first_window(self._by_arrival())
        if w.stale:
            return min(r.arrival_us for r in w.stale)
        return w.cut if w.fill_us is None else w.fill_us

    def form_batches(self, *, now_us: Optional[float] = None) -> List[Batch]:
        """Close every batch implied by the pending arrivals.

        A batch closes at its fill instant, or at its window/deadline
        cut once a later arrival or ``now_us`` reaches that cut; a
        partial batch younger than its cut stays pending.  ``now_us``
        decides only *which* batches close, never their stamps, so any
        sequence of calls closes the same batches at the same instants.
        """
        if not self.pending:
            return []
        pol = self.policy
        weights = self.weights_fn() if self.weights_fn is not None else None
        remaining = self._by_arrival()
        batches: List[Batch] = []
        shed: List[ServeRequest] = []
        while remaining:
            w = self._first_window(remaining)
            if w.stale:
                shed.extend(w.stale)
                dead = {id(r) for r in w.stale}
                remaining = [r for r in remaining if id(r) not in dead]
                continue
            eligible = w.eligible
            if w.fill_us is not None:
                closed_by = "size"
                if weights:
                    # Tenant fair share: the batch closes once enough
                    # eligible requests exist; membership is split
                    # across tenants by weight, and the close stamps at
                    # the last chosen arrival (>= every member).
                    take = _fair_select(eligible, pol.max_batch, weights)
                    dispatch = max(r.arrival_us for r in take)
                else:
                    # Size-close fires the instant the max_batch-th
                    # eligible request arrives; only requests present
                    # at that instant compete for membership — a later
                    # arrival cannot front-run into a batch that closed
                    # before it existed, and the close stamps at the
                    # fill instant, not the last *chosen* arrival.
                    candidates = [r for r in eligible
                                  if r.arrival_us <= w.fill_us]
                    take = sorted(candidates,
                                  key=_selection_key)[:pol.max_batch]
                    dispatch = w.fill_us
            else:
                take = eligible
                if (len(eligible) < len(remaining)
                        or (now_us is not None and now_us >= w.cut)):
                    # A later arrival fell outside the cut, or the
                    # timer reached it: closed at its deadline or window.
                    closed_by = w.closed_by
                    dispatch = w.cut
                else:
                    break  # keep the young partial batch pending
            batches.append(Batch(take, w.open_us, dispatch, closed_by))
            taken = {id(r) for r in take}
            remaining = [r for r in remaining if id(r) not in taken]
        self._expired.extend(shed)
        consumed = {id(r) for b in batches for r in b.requests}
        consumed |= {id(r) for r in shed}
        self.pending = [r for r in self.pending if id(r) not in consumed]
        return batches
