"""Batch execution: shard across devices, per-tile queues, cached artifacts.

This is the server's data plane.  One closed :class:`~.batcher.Batch` is

1. sharded across the *alive* configured devices proportionally to
   modelled throughput (:func:`repro.xesim.multigpu.plan_split` — the
   paper's stated multi-GPU future work, Sec. V);
2. executed per device through an
   :class:`~repro.runtime.pipeline.AsyncPipeline` running on a
   :class:`~repro.runtime.scheduler.MultiTileScheduler`: each request's
   kernel chain occupies one *lane* (tile queue) so chains stay in-order
   while different requests overlap across tiles (explicit multi-tile
   submission, Sec. III-C.2), with non-blocking host submission and an
   incremental completion drain (``run_stream``) instead of one final
   barrier (Fig. 2);
3. timed per request from the per-queue events, so completions are
   naturally out-of-order across lanes and devices and can be streamed
   to clients as tiles finish.

Hot artifacts — NTT twiddle tables, relinearization/Galois keys, encoded
plaintext weights — are held by an :class:`ArtifactCache` whose backing
buffers come from the :class:`~repro.runtime.memcache.MemoryCache`
(Sec. III-C.1), as are the per-request scratch buffers (freed after each
batch, so later batches hit the free pool).  Per-client session keys and
weights live in namespaced keyspaces (``client:<id>:...`` artifact
names) resolved with fallback to the server's shared keyspace.

QoS: requests whose deadline has already passed when their device gets
to them are *shed* with a typed ``expired`` response instead of burning
device time on a late result.  A device failure injected mid-stream
(:meth:`BatchDispatcher.fail_device`) invalidates completions after the
failure instant: affected requests are requeued onto surviving devices,
or typed-failed when none remain — never silently lost.

With ``gpu_config.kernel_fusion`` the dispatcher additionally runs each
request's kernel chain through the :mod:`repro.fusion` planner
(elementwise-chain fusion + NTT epilogue folds) and then merges
same-shape chains from different requests in the batch into one widened
launch grid (:func:`repro.fusion.batch_chains` — the Fig. 8 ``poly_num``
effect).  Fusion changes launches and timing only; every request's
ciphertext result is computed by the same functional evaluator either
way, so results are bit-identical with the flag on or off.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import faults as _faults
from ..core.ciphertext import Ciphertext
from ..core.context import CkksContext
from ..core.encoder import CkksEncoder
from ..core.evaluator import Evaluator
from ..core.keys import GaloisKeys, RelinKey
from ..core.params import CkksParameters
from ..core.plaintext import Plaintext
from ..core.serialize import (
    from_bytes,
    load_galois_keys,
    load_params,
    load_relin_key,
)
from ..fusion import LaunchGroup, batch_chains, plan_profiles
from ..gpu.profiles import GpuConfig, GpuOpProfiler
from ..obs import metrics as obs_metrics
from ..obs import register_process_metrics, tracing
from ..runtime.memcache import MemoryCache
from ..runtime.pipeline import AsyncPipeline
from ..runtime.scheduler import MultiTileScheduler
from ..xesim.device import DeviceSpec
from ..xesim.devices import DEVICE1, DEVICE2
from ..xesim.kernel import KernelProfile
from ..xesim.multigpu import plan_split
from .admission import AdmissionController, AdmissionPolicy, TenantFairness
from .batcher import Batch, BatchPolicy, RequestBatcher
from .metrics import RequestRecord, ServerMetrics
from .request import (
    ServeRequest,
    ServeResponse,
    decode_request,
    expired_response,
    overloaded_response,
)
from .sessions import SessionManager
from .workers import WorkerPool

__all__ = ["ArtifactCache", "ServerSession", "BatchDispatcher", "HEServer"]

#: Default device pool: the paper's two evaluation GPUs, full tiles each.
DEFAULT_DEVICES: Tuple[Tuple[DeviceSpec, int], ...] = (
    (DEVICE1, 2),
    (DEVICE2, 1),
)

_FP_EXECUTE = _faults.faultpoint(
    "dispatcher.execute",
    "raise a kernel exception or slow one request's evaluation",
)
_FP_DEVICE = _faults.faultpoint(
    "dispatcher.device",
    "fail one pool device shortly after a batch dispatches",
)


def _rotation_steps(dim: int) -> List[int]:
    """Rotation steps of the rotate-and-add inner-product tree.

    Delegates to the canonical implementation in :mod:`repro.apps`
    (imported lazily: apps builds on server, not the reverse).
    """
    from ..apps.inference import rotation_steps_needed

    return rotation_steps_needed(dim)


class ArtifactCache:
    """Named hot artifacts backed by device-memory-cache buffers.

    ``get(name, nbytes, builder)`` returns the cached value (hit) or
    builds it and reserves ``nbytes`` of device memory through the
    :class:`MemoryCache` (miss).  Artifact buffers stay resident — the
    paper's point is precisely that reuse avoids the driver round-trip.
    Simulated allocation costs accumulate in ``pending_cost_us`` so the
    dispatcher can charge them to the epoch's clock.

    Thread-safe: worker-pool evaluation can race lookups, so ``get``
    holds a lock across the build — one build per artifact, and
    hit/miss totals stay deterministic under any thread interleaving.
    """

    def __init__(self, memcache: MemoryCache):
        self.memcache = memcache
        self._store: Dict[str, tuple] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.pending_cost_us = 0.0

    def get(self, name: str, nbytes: int, builder: Callable[[], object]):
        with self._lock:
            if name in self._store:
                self.hits += 1
                return self._store[name][0]
            self.misses += 1
            value = builder()
            buf, cost_us = self.memcache.malloc(nbytes)
            self.pending_cost_us += cost_us
            self._store[name] = (value, buf)
            return value

    def invalidate(self, prefix: str) -> int:
        """Drop every artifact whose name starts with ``prefix``.

        Re-installing a key or weight vector must not serve results
        computed from the stale cached copy; freed buffers return to the
        memory-cache pool.  Returns the number of artifacts dropped.
        """
        with self._lock:
            victims = [k for k in self._store if k.startswith(prefix)]
            for k in victims:
                _value, buf = self._store.pop(k)
                self.pending_cost_us += self.memcache.free(buf)
            return len(victims)

    def drain_pending_cost_us(self) -> float:
        with self._lock:
            cost, self.pending_cost_us = self.pending_cost_us, 0.0
            return cost

    def __contains__(self, name: str) -> bool:
        return name in self._store


class _Keyspace:
    """One client's evaluation keys and installed weights."""

    __slots__ = ("relin", "galois", "weights")

    def __init__(self):
        self.relin = None
        self.galois = None
        self.weights: Dict[str, tuple] = {}  # name -> (padded, dim)


class ServerSession:
    """Server-side cryptographic state: context, eval keys, weights.

    Holds *no secret material* — only what the paper's server role sees
    (Fig. 1): parameters, evaluation keys, plaintext model weights.
    Keys and weights live in per-client *keyspaces* (``client_id=""`` is
    the shared one): lookups resolve the request's client keyspace first
    and fall back to the shared keyspace, so anonymous single-tenant use
    keeps working while session clients stay isolated from each other.
    """

    def __init__(self, params: CkksParameters, *, cache_enabled: bool = True):
        self.params = params
        self.context = CkksContext(params)
        self.encoder = CkksEncoder(self.context)
        self.evaluator = Evaluator(self.context)
        self.memcache = MemoryCache(enabled=cache_enabled)
        self.artifacts = ArtifactCache(self.memcache)
        self._keyspaces: Dict[str, _Keyspace] = {"": _Keyspace()}

    # -- keyspace plumbing ---------------------------------------------------------

    def _space(self, client_id: str = "") -> _Keyspace:
        if ":" in client_id:
            # ':' separates keyspace-name components in the shared
            # artifact cache; a client id containing it could collide
            # with (and evict or serve) another tenant's artifacts.
            raise ValueError("client_id must not contain ':'")
        return self._keyspaces.setdefault(client_id, _Keyspace())

    @staticmethod
    def _art(client_id: str, name: str) -> str:
        return name if not client_id else f"client:{client_id}:{name}"

    @property
    def relin(self):
        """The shared keyspace's relin key (anonymous-tenant view)."""
        return self._keyspaces[""].relin

    @property
    def galois(self):
        return self._keyspaces[""].galois

    # -- key / weight installation ------------------------------------------------

    def install_relin_key(self, wire: bytes, *, client_id: str = "") -> None:
        self.set_keys(client_id, relin=from_bytes(load_relin_key, wire))

    def install_galois_keys(self, wire: bytes, *, client_id: str = "") -> None:
        self.set_keys(client_id, galois=from_bytes(load_galois_keys, wire))

    def set_keys(self, client_id: str = "", *,
                 relin: Optional[RelinKey] = None,
                 galois: Optional[GaloisKeys] = None) -> None:
        """Install already-decoded evaluation keys into one keyspace.

        ``None`` leaves that key as it is; an installed key invalidates
        its cached artifact so requests never see a stale generation.
        """
        space = self._space(client_id)
        if relin is not None:
            space.relin = relin
            self.artifacts.invalidate(self._art(client_id, "key:relin"))
        if galois is not None:
            space.galois = galois
            self.artifacts.invalidate(self._art(client_id, "key:galois"))

    def install_weights(self, name: str, values, *,
                        client_id: str = "") -> None:
        """Register a plaintext weight vector (padded to full slots).

        Encoding is deferred to first use at a request's level, then
        cached as a hot artifact in the owner's keyspace.
        """
        import numpy as np

        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("weights must be a non-empty vector")
        slots = self.encoder.slots
        if len(vals) > slots:
            raise ValueError(f"at most {slots} weights fit, got {len(vals)}")
        dim = len(vals)
        padded = np.zeros(slots, dtype=np.float64)
        padded[:dim] = vals
        self._space(client_id).weights[name] = (padded, dim)
        # Re-installation must not serve stale encodings.
        self.artifacts.invalidate(self._art(client_id, f"weights:{name}:"))

    # -- cached artifact accessors -------------------------------------------------

    def _resolve_space(self, client_id: str, attr: str):
        """(owner_id, value) of the nearest keyspace holding ``attr``."""
        for owner in ((client_id, "") if client_id else ("",)):
            ks = self._keyspaces.get(owner)
            if ks is not None:
                value = getattr(ks, attr)
                if value is not None:
                    return owner, value
        return None, None

    def _relin_artifact(self, client_id: str = ""):
        owner, rlk = self._resolve_space(client_id, "relin")
        if rlk is None:
            raise ValueError("no relinearization key installed")
        nbytes = sum(arr.nbytes for arr in rlk.key.data)
        return self.artifacts.get(self._art(owner, "key:relin"), nbytes,
                                  lambda: rlk)

    def _galois_artifact(self, client_id: str = ""):
        owner, gk = self._resolve_space(client_id, "galois")
        if gk is None:
            raise ValueError("no Galois keys installed")
        nbytes = sum(
            arr.nbytes for k in gk.keys.values() for arr in k.data
        )
        return self.artifacts.get(self._art(owner, "key:galois"), nbytes,
                                  lambda: gk)

    def _weights_entry(self, name: str, client_id: str = "") -> Tuple[str, tuple]:
        for owner in ((client_id, "") if client_id else ("",)):
            ks = self._keyspaces.get(owner)
            if ks is not None and name in ks.weights:
                return owner, ks.weights[name]
        known = sorted({
            n for ks in self._keyspaces.values() for n in ks.weights
        })
        raise KeyError(
            f"no weights {name!r} installed; known: {known}"
        )

    def weight_plaintext(self, name: str, level: int, *,
                         client_id: str = "") -> Tuple[Plaintext, int]:
        owner, (padded, dim) = self._weights_entry(name, client_id)
        pt = self.artifacts.get(
            self._art(owner, f"weights:{name}:L{level}"),
            level * self.context.degree * 8,
            lambda: self.encoder.encode(padded, level=level),
        )
        return pt, dim

    def ntt_tables_artifact(self, device: DeviceSpec) -> None:
        """Twiddle tables are per (device, degree): resident after first use."""
        n = self.context.degree
        levels = len(self.params.coeff_modulus_bits)
        self.artifacts.get(
            f"ntt-tables:{device.name}:{n}",
            2 * levels * n * 8,  # forward + inverse twiddles per prime
            lambda: True,
        )

    # -- operation execution -------------------------------------------------------

    def op_profiles(self, op: str, level: int, meta: Dict,
                    profiler: GpuOpProfiler, *,
                    client_id: str = "") -> List[KernelProfile]:
        """The kernel chain one op submits — timing only, no ciphertext
        math and no artifact-counter side effects (usable for baselines)."""
        if op == "square":
            return (profiler.square(level) + profiler.relinearize(level)
                    + profiler.rescale(level))
        if op == "multiply":
            return (profiler.multiply(level) + profiler.relinearize(level)
                    + profiler.rescale(level))
        if op == "add":
            return profiler.add(level)
        if op == "rotate":
            return profiler.rotate(level)
        if op == "multiply_plain":
            return profiler.multiply_plain(level)
        if op == "dot_plain":
            _owner, (_padded, dim) = self._weights_entry(
                meta["weights"], client_id)
            profs = profiler.multiply_plain(level)
            for _step in _rotation_steps(dim):
                profs = profs + profiler.rotate(level) + profiler.add(level)
            return profs
        raise ValueError(f"unsupported op {op!r}")  # pragma: no cover

    def result_nbytes(self, op: str, level: int) -> int:
        """Size of the result ciphertext (download-cost modelling)."""
        out_level = level - 1 if op in ("square", "multiply") else level
        return 2 * out_level * self.context.degree * 8

    def execute_plan(
        self, req: ServeRequest, profiler: GpuOpProfiler,
    ) -> Tuple[List[KernelProfile], Callable[[], Ciphertext]]:
        """Split one request into (profiles, pure-math thunk).

        Everything with bookkeeping side effects — artifact-cache gets
        (hit/miss counters, simulated malloc costs) and request
        validation — happens *here*, on the calling thread; the returned
        thunk is pure evaluator math over the captured keys/plaintexts,
        safe to run on any worker thread.  This is what lets the
        dispatcher fan evaluation out while keeping every simulated-time
        counter bit-identical to the inline run.
        """
        ev = self.evaluator
        cid = req.client_id
        ct = req.cts[0]
        lvl = ct.level
        profs = self.op_profiles(req.op, lvl, req.meta, profiler,
                                 client_id=cid)
        if req.op == "square":
            rlk = self._relin_artifact(cid)
            thunk = lambda: ev.rescale(ev.relinearize(ev.square(ct), rlk))
        elif req.op == "multiply":
            rlk = self._relin_artifact(cid)
            other = req.cts[1]
            thunk = lambda: ev.rescale(
                ev.relinearize(ev.multiply(ct, other), rlk))
        elif req.op == "add":
            other = req.cts[1]
            thunk = lambda: ev.add(ct, other)
        elif req.op == "rotate":
            gk = self._galois_artifact(cid)
            steps = int(req.meta["steps"])
            thunk = lambda: ev.rotate(ct, steps, gk)
        elif req.op == "multiply_plain":
            pt, _dim = self.weight_plaintext(req.meta["weights"], lvl,
                                             client_id=cid)
            thunk = lambda: ev.multiply_plain(ct, pt)
        else:  # dot_plain (op_profiles already rejected anything else)
            gk = self._galois_artifact(cid)
            pt, dim = self.weight_plaintext(req.meta["weights"], lvl,
                                            client_id=cid)

            def thunk(ct=ct, pt=pt, gk=gk, dim=dim):
                acc = ev.multiply_plain(ct, pt)
                for step in _rotation_steps(dim):
                    acc = ev.add(acc, ev.rotate(acc, step, gk))
                return acc
        return profs, thunk


class BatchDispatcher:
    """Executes closed batches on the (possibly degrading) device pool."""

    def __init__(self, session: ServerSession,
                 devices: Sequence[Tuple[DeviceSpec, int]],
                 *, gpu_config: Optional[GpuConfig] = None,
                 workers: Optional[WorkerPool] = None):
        if not devices:
            raise ValueError("need at least one device")
        self.session = session
        self.devices = list(devices)
        #: Optional evaluation pool: when set, the real ciphertext math
        #: of a device chunk fans out across it (bookkeeping stays on
        #: the dispatching thread, so responses/timing are identical).
        self.workers = workers
        # Pool labels stay unique even for homogeneous pools (two
        # identical GPUs serve independently).
        name_counts: Dict[str, int] = {}
        for dev, _tiles in self.devices:
            name_counts[dev.name] = name_counts.get(dev.name, 0) + 1
        self.labels: List[str] = []
        seen: Dict[str, int] = {}
        for dev, _tiles in self.devices:
            if name_counts[dev.name] == 1:
                self.labels.append(dev.name)
            else:
                idx = seen.get(dev.name, 0)
                seen[dev.name] = idx + 1
                self.labels.append(f"{dev.name}#{idx}")
        base = gpu_config or GpuConfig(ntt_variant="local-radix-8", asm=True)
        self.fusion_enabled = base.kernel_fusion
        #: Cumulative launch accounting across dispatches: what the raw
        #: per-request chains would have submitted vs. what actually hit
        #: the queues after fusion + cross-request batching.
        self.raw_launches = 0
        self.submitted_launches = 0
        #: Injected device failures: pool label -> failure instant (us).
        #: A failed device takes no new batches dispatched at/after the
        #: instant, and completions past it are invalidated.
        self._failed: Dict[str, float] = {}
        self.requeued = 0
        self.expired = 0
        self._profilers = [
            GpuOpProfiler(session.context.degree, dev, replace(base, tiles=tiles))
            for dev, tiles in self.devices
        ]

    # -- failure injection ---------------------------------------------------------

    def fail_device(self, label: str, at_us: float) -> None:
        """Mark one pool device as failing at ``at_us`` (simulated)."""
        if label not in self.labels:
            raise ValueError(
                f"unknown device label {label!r}; pool: {self.labels}"
            )
        self._failed[label] = float(at_us)

    def _alive(self, dispatch_us: float) -> List[int]:
        """Pool indices of devices still alive at ``dispatch_us``."""
        return [
            i for i, lbl in enumerate(self.labels)
            if self._failed.get(lbl, float("inf")) > dispatch_us
        ]

    # -- dispatch ------------------------------------------------------------------

    def dispatch(self, batch: Batch,
                 free_at_us: Dict[str, float]) -> List[ServeResponse]:
        """Run one batch; returns responses with absolute simulated times.

        ``free_at_us`` tracks when each pool device drains (absolute us,
        keyed by pool label); a batch dispatched while a device is still
        busy queues behind the previous epoch.  Requests lost to an
        injected device failure are requeued (recursively) onto the
        surviving pool, or typed-failed when no device remains — every
        request in the batch gets exactly one terminal response.
        """
        reqs = batch.requests
        if not reqs:
            return []
        event = _faults.check(_FP_DEVICE)
        if event is not None and event.mode == "device_failure":
            label = event.match or self.labels[0]
            if label in self.labels and label not in self._failed:
                # Default failure instant: just after this dispatch, so
                # the device takes its chunk and loses the in-flight
                # results — the requeue path, not a pre-dispatch skip.
                at_us = event.param if event.param > 0 else batch.dispatch_us + 1.0
                self.fail_device(label, at_us)
        alive = self._alive(batch.dispatch_us)
        if not alive:
            fail_us = max(self._failed.values(), default=batch.dispatch_us)
            return [
                ServeResponse(
                    request_id=req.request_id, ok=False,
                    status="device_failed",
                    error="no device survives the injected failure(s)",
                    arrival_us=req.arrival_us, dispatch_us=batch.dispatch_us,
                    complete_us=max(batch.dispatch_us, fail_us),
                    batch_size=batch.size, priority=req.priority,
                )
                for req in reqs
            ]
        pool = [self.devices[i] for i in alive]
        plan = plan_split(len(reqs), pool)
        # plan_split drops zero-share devices but preserves pool order;
        # walk the pool and the assignments in lockstep to recover the
        # pool index (labels stay correct for duplicate device specs).
        responses: List[ServeResponse] = []
        requeue: List[Tuple[ServeRequest, float]] = []
        offset = 0
        ai = 0
        for pool_idx in alive:
            dev, tiles = self.devices[pool_idx]
            if ai >= len(plan.assignments):
                break
            a_dev, a_tiles, share = plan.assignments[ai]
            if a_dev is not dev or a_tiles != tiles:
                continue  # this pool entry got a zero share
            ai += 1
            chunk = reqs[offset:offset + share]
            offset += share
            got, lost = self._dispatch_on_device(
                pool_idx, chunk, batch, free_at_us)
            responses.extend(got)
            requeue.extend(lost)
        if requeue:
            self.requeued += len(requeue)
            retry_us = max(
                [batch.dispatch_us] + [fail_us for _, fail_us in requeue])
            sub = Batch(
                requests=[req for req, _ in requeue],
                open_us=batch.open_us,
                dispatch_us=retry_us,
                closed_by="requeue",
            )
            responses.extend(self.dispatch(sub, free_at_us))
        return responses

    def _evaluate(self, jobs: Sequence[Tuple[str, Callable]]) -> List[tuple]:
        """Run ``(request_id, thunk)`` jobs; ``(result, error)`` per job, in order.

        Fans out across the attached :class:`WorkerPool` when there is
        one (and more than one job); executor-level rejections
        (KeyError/ValueError from evaluator validation) come back as
        error strings, anything else propagates.  Order and outcomes are
        independent of the pool width.  Each job's math runs under an
        ``execute`` trace span tagged with its request id, so kernel
        spans recorded inside the thunk attach to the right request even
        on a pool thread.
        """

        def one(job):
            rid, thunk = job
            with tracing.span("execute", cat="server", request_id=rid):
                event = _faults.check(_FP_EXECUTE, request_id=rid)
                if event is not None and event.mode == "kernel_exception":
                    # Typed executor failure, same path a bad input takes
                    # — the request gets an "error" terminal response.
                    return None, f"injected kernel fault ({rid})"
                _faults.sleep_event(event)
                try:
                    return thunk(), None
                except _faults.InjectedFault as exc:
                    return None, str(exc)
                except (KeyError, ValueError) as exc:
                    return None, str(exc)

        pool = self.workers
        if pool is not None and not pool.closed and len(jobs) > 1:
            return pool.map_ordered(one, jobs)
        return [one(j) for j in jobs]

    def _dispatch_on_device(
        self, pool_idx: int, reqs: List[ServeRequest],
        batch: Batch, free_at_us: Dict[str, float],
    ) -> Tuple[List[ServeResponse], List[Tuple[ServeRequest, float]]]:
        dev, tiles = self.devices[pool_idx]
        label = self.labels[pool_idx]
        session = self.session
        epoch_start_us = max(batch.dispatch_us, free_at_us.get(label, 0.0))
        fail_at_us = self._failed.get(label)

        # Deadline shedding: a request whose deadline already passed when
        # this device gets to it would complete late no matter what —
        # shed it (typed "expired") instead of burning device time.
        live: List[ServeRequest] = []
        expired: List[ServeRequest] = []
        for req in reqs:
            deadline = req.deadline_us
            if deadline is not None and deadline < epoch_start_us:
                expired.append(req)
            else:
                live.append(req)
        self.expired += len(expired)

        sched = MultiTileScheduler(device=dev, use_tiles=tiles)
        pipe = AsyncPipeline(dev, scheduler=sched)
        profiler = self._profilers[pool_idx]
        session.ntt_tables_artifact(dev)

        # Phase 1 (sequential): all bookkeeping side effects — scratch
        # mallocs and artifact resolution — in request order, exactly as
        # the inline loop interleaved them (the math between a request's
        # artifact gets and the next request's malloc has no cache side
        # effects, so hoisting it preserves every counter and cost).
        scratch = []
        alloc_cost_us = 0.0
        results: Dict[str, Ciphertext] = {}
        failures: Dict[str, str] = {}
        lanes: Dict[str, int] = {}  # request id -> lane (fusion off)
        chains: List[Tuple[ServeRequest, List[KernelProfile]]] = []
        planned: List[Tuple[ServeRequest, List[KernelProfile], Callable]] = []
        with tracing.span("dispatch.plan", cat="server", device=label,
                          requests=len(live)):
            for req in live:
                buf, cost_us = session.memcache.malloc(max(req.wire_bytes, 1))
                alloc_cost_us += cost_us
                scratch.append(buf)
                try:
                    profs, thunk = session.execute_plan(req, profiler)
                except (KeyError, ValueError) as exc:
                    failures[req.request_id] = str(exc)
                    continue
                planned.append((req, profs, thunk))
        # Phase 2 (parallel when a pool is attached): the pure ciphertext
        # math.  map_ordered keeps submission order, so the lane/chain
        # assembly below is identical to the inline run.
        lane_of = {id(req): lane for lane, req in enumerate(live)}
        with tracing.span("dispatch.execute", cat="server", device=label,
                          requests=len(planned)):
            evaluated = self._evaluate(
                [(req.request_id, t) for req, _, t in planned])
        for (req, profs, _thunk), outcome in zip(planned, evaluated):
            result, err = outcome
            if err is not None:
                failures[req.request_id] = err
                continue
            results[req.request_id] = result
            lanes[req.request_id] = lane_of[id(req)]
            chains.append((req, profs))

        self.raw_launches += sum(p.launches for _, c in chains for p in c)
        by_id = {req.request_id: req for req, _ in chains}
        if self.fusion_enabled:
            # Widen same-shape chains from different requests into one
            # launch group (Fig. 8), then fuse each group's chain once —
            # the planner is linear in the batch width, so widen-then-plan
            # equals plan-then-widen but plans each distinct shape once.
            groups = [
                LaunchGroup(g.request_ids, plan_profiles(g.profiles).profiles)
                for g in batch_chains(
                    [(req.request_id, profs) for req, profs in chains]
                )
            ]
            laned = list(enumerate(groups))
        else:
            laned = [
                (lanes[req.request_id],
                 LaunchGroup((req.request_id,), tuple(profs)))
                for req, profs in chains
            ]
        self.submitted_launches += sum(g.launches for _, g in laned)

        for lane, group in laned:
            for rid in group.request_ids:
                pipe.add_upload(by_id[rid].wire_bytes, lane=lane,
                                name=f"req:{rid}:inputs")
            tag = (group.request_ids[0] if group.width == 1
                   else f"{group.request_ids[0]}x{group.width}")
            for p in group.profiles:
                pipe.add_op(replace(p, name=f"req:{tag}:{p.name}"), lane=lane)
            for rid in group.request_ids:
                pipe.add_download(results[rid].data.nbytes, lane=lane,
                                  name=f"req:{rid}:result")

        # Host-side allocation costs (scratch + artifact misses) delay the
        # epoch's submissions — with the cache warm they shrink to the
        # hit cost, which is the Sec. III-C.1 win.
        alloc_cost_us += session.artifacts.drain_pending_cost_us()
        sched.clock.advance(alloc_cost_us * 1e-6)

        # Incremental drain (streaming dispatch): per-request completion
        # is the d2h event that downloaded its result, observed as the
        # tile queues drain in completion order rather than at a barrier.
        complete: Dict[str, float] = {}
        for ev in pipe.run_stream():
            if ev.name.startswith("d2h:req:") and ev.name.endswith(":result"):
                rid = ev.name[len("d2h:req:"):-len(":result")]
                complete[rid] = epoch_start_us + ev.device_end * 1e6
        for buf in scratch:
            sched.clock.advance(session.memcache.free(buf) * 1e-6)
        free_at_us[label] = epoch_start_us + sched.clock.now * 1e6

        responses: List[ServeResponse] = []
        requeue: List[Tuple[ServeRequest, float]] = []
        for req in expired:
            responses.append(ServeResponse(
                request_id=req.request_id, ok=False, status="expired",
                error=(f"deadline {req.deadline_ms:.3f} ms expired before "
                       f"dispatch on {label}"),
                arrival_us=req.arrival_us, dispatch_us=batch.dispatch_us,
                complete_us=epoch_start_us, device=label,
                batch_size=batch.size, priority=req.priority,
            ))
        for req in live:
            rid = req.request_id
            if rid in failures:
                responses.append(ServeResponse(
                    request_id=rid, ok=False,
                    error=failures[rid],
                    arrival_us=req.arrival_us, dispatch_us=batch.dispatch_us,
                    complete_us=batch.dispatch_us, device=label,
                    batch_size=batch.size, priority=req.priority,
                ))
                continue
            if fail_at_us is not None and complete[rid] > fail_at_us:
                # The device died before this result downloaded: the
                # in-flight request is requeued, never silently lost.
                requeue.append((req, fail_at_us))
                continue
            responses.append(ServeResponse(
                request_id=rid, ok=True,
                result=results[rid],
                arrival_us=req.arrival_us, dispatch_us=batch.dispatch_us,
                complete_us=complete[rid], device=label,
                batch_size=batch.size, priority=req.priority,
            ))
        return responses, requeue


class HEServer:
    """The asynchronous batched HE-operation server (in-process).

    Composition (paper mapping):

    * request wire format — ``core.serialize`` raw ciphertext blobs, a
      CRC-checked header plus the limb block (Fig. 1 upload);
    * :class:`RequestBatcher` — latency/size batching budget, priority
      front-running, deadline-aware batch cuts;
    * :class:`~.sessions.SessionManager` — multi-client sessions with
      per-client evaluation keys and cached weights;
    * :class:`~.admission.AdmissionController` — token-bucket +
      modelled-backlog overload gate (typed ``overloaded`` responses);
    * :class:`~.admission.TenantFairness` (optional) — per-client token
      buckets over the global gate, weighted fair-share batch
      membership, and shed-lowest-priority-first eviction;
    * :class:`AsyncPipeline` — non-blocking submission with either one
      final wait (:meth:`drain`) or an incremental completion stream
      (:meth:`stream`) (Fig. 2);
    * :class:`MultiTileScheduler` per device — explicit multi-tile
      queues (Sec. III-C.2), sharded by :func:`plan_split` (Sec. V);
    * :class:`MemoryCache` — device memory reuse (Sec. III-C.1).

    One loop drives it: :meth:`pump_once` alone forms and dispatches
    batches, ticked at each :meth:`next_cut_us` by the online pump and
    by :meth:`stream`/:meth:`drain` in-process (identical stamps).

    All timing is simulated; all ciphertext math is real.  Every
    submitted request receives exactly one terminal response: served
    (``ok``), executor-rejected (``error``), shed by admission control
    (``overloaded``), deadline-shed (``expired``) or lost with the whole
    pool (``device_failed``).
    """

    def __init__(self, params_wire, *,
                 devices: Optional[Sequence[Tuple[DeviceSpec, int]]] = None,
                 policy: Optional[BatchPolicy] = None,
                 cache_enabled: bool = True,
                 gpu_config: Optional[GpuConfig] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 tenant_fairness: Optional[TenantFairness] = None,
                 workers: int = 0,
                 watchdog_s: Optional[float] = None,
                 registry: Optional[obs_metrics.MetricsRegistry] = None):
        params = (from_bytes(load_params, params_wire)
                  if isinstance(params_wire, (bytes, bytearray))
                  else params_wire)
        self.session = ServerSession(params, cache_enabled=cache_enabled)
        self.devices = list(devices) if devices is not None else list(DEFAULT_DEVICES)
        self.policy = policy or BatchPolicy()
        self.batcher = RequestBatcher(self.policy)
        # workers >= 2 attaches a real evaluation pool; 0/1 keep the
        # inline path (a one-wide pool would only add handoff latency).
        # watchdog_s arms the pool's hung-task watchdog (abandon +
        # respawn + requeue past the deadline).
        self.workers: Optional[WorkerPool] = (
            WorkerPool(workers, name="he-worker", watchdog_s=watchdog_s)
            if workers >= 2 else None
        )
        self.dispatcher = BatchDispatcher(self.session, self.devices,
                                          gpu_config=gpu_config,
                                          workers=self.workers)
        self.sessions = SessionManager(self.session)
        self.admission = (AdmissionController(admission)
                          if admission is not None else None)
        #: Per-tenant token buckets + fair-share weights layered over
        #: the global admission gate; also feeds the batcher's weighted
        #: fair-share membership and turns on shed-lowest-priority-first
        #: (see :meth:`submit`).
        self.fairness = tenant_fairness
        if tenant_fairness is not None:
            self.batcher.weights_fn = tenant_fairness.weights
        self.metrics = ServerMetrics(self.dispatcher)
        #: Timer ticks served through :meth:`pump_once`.
        self.pump_ticks = 0
        # None follows the process-global default registry at snapshot
        # time; pass an explicit MetricsRegistry to isolate (tests).
        self._registry = registry
        self._free_at_us: Dict[str, float] = {}
        self._clock_us = 0.0
        #: Running max of ``complete_us`` over every recorded response.
        self._latest_complete_us = 0.0
        self._responses: Dict[str, ServeResponse] = {}
        self._seen_ids: set = set()
        self._request_log: List[ServeRequest] = []
        #: Responses that became terminal outside a dispatch — admission
        #: and tenant-bucket sheds, eviction victims — delivered once, by
        #: the next :meth:`pump_once` or :meth:`take_fresh_terminal`.
        self._fresh_terminal: List[ServeResponse] = []
        #: Requests admitted then preempted by priority eviction — kept
        #: out of :attr:`request_log` (they were never served).
        self._evicted_ids: set = set()
        # Coordination lock: concurrent submit()/stream() callers (the
        # thread-safety hammer) mutate the batcher, clock, seen-ids and
        # response map; the lock makes each such step atomic.  Simulated
        # *timing* stays deterministic for a single coordinator; with
        # several, arrival interleaving is the caller's nondeterminism.
        self._mu = threading.RLock()
        #: Set by every enqueueing :meth:`submit`: a pump sleeping until
        #: :meth:`next_cut_us` wakes to re-plan around the new arrival.
        self.wake = threading.Event()

    # -- control plane ------------------------------------------------------------

    def install_relin_key(self, wire: bytes, *, client_id: str = "") -> None:
        self.session.install_relin_key(wire, client_id=client_id)

    def install_galois_keys(self, wire: bytes, *, client_id: str = "") -> None:
        self.session.install_galois_keys(wire, client_id=client_id)

    def install_weights(self, name: str, values, *,
                        client_id: str = "") -> None:
        self.session.install_weights(name, values, client_id=client_id)

    def handshake(self, hello) -> bytes:
        """Open/refresh a client session; returns the ``RPRA`` ack frame."""
        return self.sessions.handshake(hello, now_us=self._clock_us)

    def close(self) -> None:
        """Shut the evaluation worker pool down (idempotent).

        After close the server still serves — evaluation just runs
        inline again (``_evaluate`` skips a closed pool).
        """
        if self.workers is not None:
            self.workers.close()

    def __enter__(self) -> "HEServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- data plane ---------------------------------------------------------------

    def submit(self, request, *, arrival_us: Optional[float] = None) -> str:
        """Accept one request (wire bytes or a ``ServeRequest``).

        ``arrival_us`` stamps the simulated arrival; omitted, the request
        arrives "now" (at the server's current simulated clock).  With
        admission control configured, a shed request receives its typed
        ``overloaded`` response immediately and never queues; it is also
        excluded from :attr:`request_log` (the baseline replays accepted
        traffic).
        """
        req = (decode_request(request)
               if isinstance(request, (bytes, bytearray)) else request)
        with self._mu:
            if req.request_id in self._seen_ids:
                # Idempotent resubmission (a client retry after a lost
                # or timed-out response): the request is already queued
                # or answered, so the duplicate is absorbed — it must
                # not enqueue a second execution or a second terminal
                # status.
                self.metrics.observe_deduped()
                return req.request_id
            if req.client_id and req.client_id not in self.sessions:
                raise ValueError(
                    f"unknown session client {req.client_id!r}; handshake first"
                )
            self._seen_ids.add(req.request_id)
            if arrival_us is not None:
                self._clock_us = max(self._clock_us, arrival_us)
                req.arrival_us = arrival_us
            else:
                req.arrival_us = self._clock_us
            shed_reason = evict_from = None
            if (self.admission is not None
                    and not self.admission.admit(req.arrival_us)):
                shed_reason = "admission control: server overloaded"
            elif (self.fairness is not None
                    and not self.fairness.admit(req.client_id,
                                                req.arrival_us)):
                shed_reason = (f"tenant {req.client_id or 'anonymous'!r} "
                               "over rate budget")
                # A tenant over its own budget makes room from its own
                # queue, never another tenant's.
                evict_from = req.client_id
            if shed_reason is not None:
                # With tenant fairness, a strictly lower-priority queued
                # request can be evicted (typed ``overloaded``) instead.
                victim = (self.batcher.evict_lowest(req.priority, evict_from)
                          if self.fairness is not None else None)
                if victim is None:
                    self._shed_overloaded(req, shed_reason)
                    return req.request_id
                # Shed lowest priority first: the queued victim absorbs
                # the overload shed and the newcomer takes its place.
                self._evicted_ids.add(victim.request_id)
                self._shed_overloaded(
                    victim,
                    f"preempted by higher-priority arrival "
                    f"{req.request_id} ({shed_reason})")
            if self.admission is not None:
                self.metrics.observe_admitted()
            self.sessions.note_request(req.client_id)
            self.batcher.add(req)
            self._request_log.append(req)
        self.wake.set()
        return req.request_id

    def _shed_overloaded(self, req: ServeRequest, reason: str) -> ServeResponse:
        """Give ``req`` its typed ``overloaded`` terminal (holds ``_mu``)."""
        resp = overloaded_response(req.request_id,
                                   arrival_us=req.arrival_us,
                                   priority=req.priority, error=reason)
        self._note_response(resp)
        self._fresh_terminal.append(resp)
        self.metrics.observe_shed(req.priority, req.client_id)
        self.sessions.note_shed(req.client_id)
        tracer = tracing.get_tracer()
        if tracer is not None:
            root = tracer.add_sim_span(
                "request", req.arrival_us, req.arrival_us,
                request_id=req.request_id, op=req.op,
                status="overloaded", priority=req.priority)
            tracer.add_sim_span(
                "admission", req.arrival_us, req.arrival_us,
                request_id=req.request_id, parent=root,
                admitted=False)
        return resp

    @property
    def request_log(self) -> List[ServeRequest]:
        """Every accepted request (for baseline replay and audits).

        Excludes requests preempted by priority eviction — they were
        admitted but never served, so a baseline replay of accepted
        traffic must not include them.
        """
        return [r for r in self._request_log
                if r.request_id not in self._evicted_ids]

    def stream(self) -> Iterator[ServeResponse]:
        """Serve everything pending, yielding responses as tiles finish.

        The incremental-completion alternative to the :meth:`drain`
        barrier, looping over the online pump's tick: :meth:`pump_once`
        at each :meth:`next_cut_us` until nothing is pending.  Every
        terminal response (admission sheds included) is yielded at its
        own completion instant (``yielded_at_us == complete_us``) once it
        is no later than the next cut.  Requests not yet in a batch stay
        in the batcher, so an abandoned iterator leaves them pending.
        """
        heap: List[Tuple[float, int, ServeResponse]] = []
        seq = 0
        while True:
            # One tick is atomic w.r.t. concurrent callers; yields happen
            # outside the lock so a slow consumer never blocks them.
            with self._mu:
                for resp in self.pump_once(now_us=self.batcher.next_cut_us()):
                    heapq.heappush(heap, (resp.yielded_at_us, seq, resp))
                    seq += 1
                cut = self.batcher.next_cut_us()
            while heap and (cut is None or heap[0][0] <= cut):
                yield heapq.heappop(heap)[2]
            if cut is None:
                return

    def drain(self) -> Dict[str, ServeResponse]:
        """Serve everything pending; returns responses by request id.

        Barrier semantics: the same responses as :meth:`stream` (the
        same pump ticks), released together once the last one completes
        (``yielded_at_us`` = the barrier instant).
        """
        responses = list(self.stream())
        barrier_us = self._clock_us
        for resp in responses:
            resp.yielded_at_us = barrier_us
        return {resp.request_id: resp for resp in responses}

    def _dispatch_recorded(self, batch: Batch) -> List[ServeResponse]:
        """Dispatch one closed batch, record every response (holds ``_mu``)."""
        self.metrics.observe_batch(batch.size)
        ops = {r.request_id: r.op for r in batch.requests}
        with tracing.span("batch.dispatch", cat="server",
                          batch_size=batch.size,
                          closed_by=batch.closed_by):
            dispatched = self.dispatcher.dispatch(batch, self._free_at_us)
        tracing.sim_span("batch", batch.open_us, batch.dispatch_us,
                         size=batch.size, closed_by=batch.closed_by)
        for resp in dispatched:
            resp.yielded_at_us = max(resp.complete_us, resp.arrival_us)
            self._record(resp, ops[resp.request_id], open_us=batch.open_us)
        return dispatched

    def _expire_batcher_sheds(self) -> List[ServeResponse]:
        """Typed ``expired`` terminals for expired-on-arrival sheds
        (holds ``_mu``)."""
        out: List[ServeResponse] = []
        for req in self.batcher.take_expired():
            resp = expired_response(
                req.request_id, arrival_us=req.arrival_us,
                priority=req.priority,
                error=(f"deadline {req.deadline_ms:.3f} ms expired before "
                       "batching"))
            self._record(resp, req.op)
            out.append(resp)
        return out

    def pump_once(self, *,
                  now_us: Optional[float] = None) -> List[ServeResponse]:
        """One timer tick: close due batches, dispatch, collect responses.

        The server's one serving loop body: the socket front end's pump
        calls it at each :meth:`next_cut_us` (and on an idle heartbeat),
        and :meth:`stream`/:meth:`drain` call it at each cut in-process.
        Advances the simulated clock to ``now_us`` (when given) and
        closes exactly the batches whose size filled or whose window /
        deadline cut lies at or before the clock; a partial batch
        younger than its window stays pending for a later tick.
        Returns every response that became terminal through this tick,
        in yield order: dispatched batches, expired-on-arrival sheds, and
        immediately-terminal responses produced since the last tick
        (admission/tenant sheds, eviction victims).
        """
        with self._mu:
            if now_us is not None:
                self._clock_us = max(self._clock_us, now_us)
            with tracing.span("batch.form", cat="server"):
                batches = self.batcher.form_batches(now_us=self._clock_us)
            responses = self._expire_batcher_sheds()
            for batch in batches:
                responses.extend(self._dispatch_recorded(batch))
            fresh, self._fresh_terminal = self._fresh_terminal, []
            responses.extend(fresh)
            self._clock_us = max(self._clock_us, self._latest_complete_us)
            self.pump_ticks += 1
        responses.sort(key=lambda r: (r.yielded_at_us, r.request_id))
        return responses

    def next_cut_us(self) -> Optional[float]:
        """The batcher's next close instant (:meth:`RequestBatcher.next_cut_us`):
        the earliest ``now_us`` at which :meth:`pump_once` dispatches or
        sheds something; None with nothing pending."""
        with self._mu:
            return self.batcher.next_cut_us()

    def take_fresh_terminal(self) -> List[ServeResponse]:
        """Drain responses that became terminal outside a dispatch.

        The transport layer polls this after a submit so sheds and
        eviction victims are pushed to their connections immediately
        instead of waiting for the next pump tick.
        """
        with self._mu:
            out, self._fresh_terminal = self._fresh_terminal, []
        return out

    def response(self, request_id: str) -> ServeResponse:
        try:
            return self._responses[request_id]
        except KeyError:
            raise KeyError(f"no response for {request_id!r} (drained?)") from None

    def _note_response(self, resp: ServeResponse) -> None:
        """Store one terminal response (holds ``_mu``)."""
        self._responses[resp.request_id] = resp
        self._latest_complete_us = max(self._latest_complete_us, resp.complete_us)

    def _record(self, resp: ServeResponse, op: str,
                open_us: Optional[float] = None) -> None:
        self._note_response(resp)
        self.metrics.observe(RequestRecord(
            request_id=resp.request_id,
            op=op,
            device=resp.device,
            arrival_us=resp.arrival_us,
            dispatch_us=resp.dispatch_us,
            complete_us=resp.complete_us,
            batch_size=resp.batch_size,
            priority=resp.priority,
            status=resp.status,
        ))
        tracer = tracing.get_tracer()
        if tracer is None:
            return
        # Replay the request's simulated lifecycle as a span tree:
        # request > admission (instantaneous gate decision), queue >
        # batch (open window overlap), dispatch (device residency).
        rid = resp.request_id
        arrival, dispatch = resp.arrival_us, resp.dispatch_us
        complete = max(resp.complete_us, dispatch)
        root = tracer.add_sim_span(
            "request", arrival, complete, request_id=rid, op=op,
            device=resp.device, status=resp.status, priority=resp.priority,
            batch_size=resp.batch_size)
        tracer.add_sim_span("admission", arrival, arrival, request_id=rid,
                            parent=root, admitted=True,
                            gated=self.admission is not None)
        queue = tracer.add_sim_span("queue", arrival, dispatch,
                                    request_id=rid, parent=root)
        if open_us is not None:
            tracer.add_sim_span("batch", max(arrival, open_us), dispatch,
                                request_id=rid, parent=queue)
        tracer.add_sim_span("dispatch", dispatch, complete, request_id=rid,
                            parent=root, device=resp.device)

    @property
    def registry(self) -> obs_metrics.MetricsRegistry:
        """The metrics registry snapshots publish into.

        The one passed at construction, else the process-global default
        (resolved per call, so ``use_registry`` blocks behave).
        """
        return self._registry or obs_metrics.get_registry()

    def register_metrics(self, registry: obs_metrics.MetricsRegistry) -> None:
        """Register this server's live state into ``registry`` as pull
        views (idempotent): nothing is copied, so one registration stays
        current for the server's lifetime."""
        self.metrics.register_metrics(registry)
        series = [
            ("repro_batcher_depth", "Requests queued in the batcher right now.", "batcher.depth"),
            ("repro_pump_ticks_total", "Timer ticks served through pump_once.", "pump_ticks"),
            ("repro_worker_pool_width", "Evaluation pool width (0 = inline).",
             lambda s: s.workers.width if s.workers is not None and not s.workers.closed else 0),
        ]
        if self.admission is not None:
            series += [
                ("repro_admission_tokens", "Token-bucket fill of the admission gate.",
                 "admission.tokens"),
                ("repro_admission_backlog", "Modelled backlog the admission gate tracks.",
                 "admission.backlog"),
            ]
        registry.register_views(self, series)
        if self.workers is not None:
            self.workers.register_metrics(registry)

    def metrics_snapshot(self, fmt: str = "json"):
        """Render the full serving telemetry through the metrics registry.

        Registers this server and the process-wide cache/native series
        into :attr:`registry` (idempotent) and returns the registry's
        Prometheus text exposition (``fmt="prometheus"``) or JSON-safe
        snapshot dict (``fmt="json"``), rendered under the coordination
        lock so the numbers are mutually consistent.
        """
        with self._mu:
            reg = register_process_metrics(self.registry)
            self.register_metrics(reg)
            if fmt == "prometheus":
                return reg.render_prometheus()
            if fmt in ("json", "dict"):
                return reg.snapshot()
        raise ValueError(f"unknown snapshot format {fmt!r}")

    # -- baseline -----------------------------------------------------------------

    def serial_baseline_time_s(self, requests: Sequence[ServeRequest]) -> float:
        """Unbatched one-at-a-time synchronous serving on the first device.

        The comparison target for the batched-async path: requests are
        served strictly in arrival order, each alone on a single queue
        with per-op host synchronization (the naive binding of Fig. 2)
        and a fresh driver allocation per request (no memory cache,
        Sec. III-C.1).  The baseline sees the *same arrival process* as
        the batched run — a request cannot start before it arrives — and
        the returned span (first arrival to last completion, seconds) is
        directly comparable to ``metrics.span_us``.

        Timing only: kernel chains come from ``op_profiles``, so the
        already-served ciphertext math is not recomputed.
        """
        from ..runtime.memcache import FREE_US, FRESH_ALLOC_US

        dev, _tiles = self.devices[0]
        session = self.session
        profiler = GpuOpProfiler(session.context.degree, dev,
                                 GpuConfig(ntt_variant="local-radix-8",
                                           asm=True, tiles=1))
        busy_s: Optional[float] = None
        first_s: Optional[float] = None
        for req in sorted(requests, key=lambda r: r.arrival_us):
            level = req.cts[0].level
            try:
                profs = session.op_profiles(req.op, level, req.meta, profiler,
                                            client_id=req.client_id)
            except (KeyError, ValueError):
                continue  # the batched path rejected it too
            pipe = AsyncPipeline(dev, tiles=1)
            pipe.add_upload(req.wire_bytes)
            for p in profs:
                pipe.add_op(p)
            pipe.add_download(session.result_nbytes(req.op, level))
            service_s = (pipe.run("synchronous").total_time_s
                         + (FRESH_ALLOC_US + FREE_US) * 1e-6)
            arrival_s = req.arrival_us * 1e-6
            first_s = arrival_s if first_s is None else first_s
            start_s = arrival_s if busy_s is None else max(arrival_s, busy_s)
            busy_s = start_s + service_s
        if busy_s is None:
            return 0.0
        return busy_s - first_s
