"""Socket workloads: one round = a fresh CLI server, a fresh client
deployment, a session hello, warm-up, then a timed closed or open loop.

Latency is ``submit_frame`` to ``recv_message`` returning; responses are
kept as raw bytes and decoded and verified after the timed window.
"""

from __future__ import annotations

import select
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import proc
from .deploy import (
    DECRYPT_EVERY, TOLERANCE, Deployment, Pool, make_request,
)
from .results import Round
from .schedule import Planned, poisson_arrivals, request_stream
from .spec import WARMUP_REQUESTS, Workload

__all__ = ["run_round"]

#: Every socket read and write times out after this long, so a hung
#: server yields failed requests, never a hung benchmark.
IO_TIMEOUT_S = 10.0


@dataclass
class Sent:
    plan: Planned
    start: float                  # latency clock start: send, or due time (open)
    lateness_s: float = 0.0       # open loop: actual send start - due


def _encode(pool: Pool, plan: Planned, request_id: str,
            client_id: str) -> bytes:
    from repro.server.request import encode_request

    return encode_request(make_request(pool, plan, request_id, client_id))


def _decode(raw: bytes):
    """The decoded response, or None when the bytes are not one."""
    from repro.server.request import decode_response

    try:
        return decode_response(raw)
    except ValueError:
        return None


def _verify(dep: Deployment, pool: Pool, plan: Planned, resp,
            decrypt: bool) -> str:
    """"ok" | "status" (not served) | "mismatch" (served a wrong result)."""
    if not resp.ok or resp.result is None:
        return "status"
    exp = pool.expected[(plan.op, plan.variant)]
    if (resp.result.scale != exp.result.scale
            or not np.array_equal(resp.result.data, exp.result.data)):
        return "mismatch"
    if decrypt and float(np.abs(dep.decrypt(resp.result)
                                - exp.plain).max()) > TOLERANCE:
        return "mismatch"
    return "ok"


class _Loop:
    """Shared bookkeeping of a timed loop: what was sent, what came back."""

    def __init__(self, server: proc.ServerProcess, rss_after: int):
        self.server = server
        self.rss_after = rss_after
        self.rss_kb = 0
        self.sent: Dict[str, Sent] = {}
        self.received: List[Tuple[float, bytes]] = []   # (t_recv, raw)
        self.t_first = 0.0
        self.t_last = 0.0

    def got(self, raw: bytes) -> None:
        self.t_last = time.perf_counter()
        self.received.append((self.t_last, raw))
        if len(self.received) == self.rss_after:
            self.rss_kb = self.server.peak_rss_kb()


def _closed_loop(w: Workload, loop: _Loop, client, pool: Pool,
                 plans: List[Planned], seconds: float, prefix: str) -> None:
    """Keep ``w.window`` requests outstanding on one connection until the
    time or the request cap runs out; think before each send."""
    outstanding = 0
    nxt = 0
    loop.t_first = time.perf_counter()
    deadline = loop.t_first + seconds
    try:
        while True:
            while (outstanding < w.window and nxt < len(plans)
                   and time.perf_counter() < deadline):
                plan = plans[nxt]
                rid = f"{prefix}-{nxt}"
                frame = _encode(pool, plan, rid, client.client_id)
                if plan.think_s:
                    time.sleep(plan.think_s)
                loop.sent[rid] = Sent(plan, time.perf_counter())
                client.submit_frame(frame)
                nxt += 1
                outstanding += 1
            if outstanding == 0:
                return
            loop.got(client.recv_message())
            outstanding -= 1
    except (OSError, ValueError):
        return  # timeout / reset / bad length prefix: the rest count as failed


def _open_loop(loop: _Loop, clients: list, pool: Pool, plans: List[Planned],
               due: List[float], prefix: str) -> None:
    """Send on a Poisson schedule from one thread, receive on another.

    Frames are encoded before the window opens so the sender only sleeps
    and writes; latency runs from each request's *due* time.
    """
    frames = []
    for i, plan in enumerate(plans):
        client = clients[i % len(clients)]
        rid = f"{prefix}-{i}"
        frames.append((rid, client, _encode(pool, plan, rid, client.client_id)))
    sender_done = threading.Event()
    loop.t_first = time.perf_counter() + 0.05

    def send() -> None:
        try:
            for (rid, client, frame), plan, at in zip(frames, plans, due):
                target = loop.t_first + at
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                started = time.perf_counter()
                loop.sent[rid] = Sent(plan, target,
                                      lateness_s=started - target)
                client.submit_frame(frame)
        except OSError:
            pass
        finally:
            sender_done.set()

    def receive() -> None:
        socks = {c.sock: c for c in clients}
        quiet_until = None
        while len(loop.received) < len(frames):
            ready, _, _ = select.select(list(socks), [], [], 0.05)
            if not ready:
                if sender_done.is_set():
                    quiet_until = quiet_until or time.perf_counter() + IO_TIMEOUT_S
                    if time.perf_counter() > quiet_until:
                        return
                continue
            quiet_until = None
            for sock in ready:
                try:
                    loop.got(socks[sock].recv_message())
                except (OSError, ValueError):
                    return

    threads = [threading.Thread(target=send, name="e2ebench-send"),
               threading.Thread(target=receive, name="e2ebench-recv")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_round(w: Workload, seed: int, seconds: float, round_no: int,
              pool: Pool) -> Round:
    """One server lifetime: set-up (timed), warm-up, the timed loop,
    teardown (clients first, then the server), verification."""
    from repro.server.net import NetClient

    out = Round()
    out.rss_after = max(1, int(w.rss_after_per_s * seconds))
    prefix = f"{w.name}-s{seed}-r{round_no}"
    t0 = time.perf_counter()
    clients: list = []
    with proc.ServerProcess(w.degree, seed) as server:
        try:
            out.start_to_listen_s = server.start_to_listen_s
            t_keys = time.perf_counter()
            dep = Deployment(w.degree, w.levels, seed)
            relin_wire, galois_wire = dep.key_wires()
            out.keygen_s = time.perf_counter() - t_keys
            for i in range(w.connections):
                client = NetClient("127.0.0.1", server.port, client_id=f"c{i}",
                                   timeout_s=IO_TIMEOUT_S).connect()
                clients.append(client)
                t_hello = time.perf_counter()
                ack = client.hello(relin_wire=relin_wire, galois_wire=galois_wire)
                out.hello_rtt_s = time.perf_counter() - t_hello
                if not ack.ok:
                    raise RuntimeError(f"session hello refused: {ack.error}")
            warm = request_stream(seed, w.name, w.ops, WARMUP_REQUESTS,
                                  stream=f"warmup{round_no}")
            for i, plan in enumerate(warm):
                client = clients[i % len(clients)]
                client.submit_frame(_encode(pool, plan, f"{prefix}-w{i}",
                                            client.client_id))
                resp = _decode(client.recv_message())
                if resp is None or _verify(dep, pool, plan, resp, True) != "ok":
                    raise RuntimeError(
                        f"warm-up request failed: {getattr(resp, 'error', resp)}")
            out.setup_s = time.perf_counter() - t0

            loop = _Loop(server, out.rss_after)
            out.rss_kb_start = server.peak_rss_kb()
            cpu0, own0 = server.cpu_seconds(), time.process_time()
            if w.kind == "open":
                due = poisson_arrivals(seed, w.name, w.rate_rps, seconds,
                                       stream=f"arrivals{round_no}")[:w.round_cap]
                plans = request_stream(seed, w.name, w.ops, len(due),
                                       stream=f"timed{round_no}")
                _open_loop(loop, clients, pool, plans, due, prefix)
            else:
                plans = request_stream(seed, w.name, w.ops, w.round_cap,
                                       think_ms=w.think_ms,
                                       stream=f"timed{round_no}")
                _closed_loop(w, loop, clients[0], pool, plans, seconds, prefix)
            out.server_cpu_s = server.cpu_seconds() - cpu0
            out.loadgen_cpu_s = time.process_time() - own0
            out.wall_s = max(loop.t_last - loop.t_first, 1e-9)
            out.rss_kb = loop.rss_kb or server.peak_rss_kb()
        finally:
            for client in clients:
                client.close()
    _account(w, out, dep, pool, loop)
    return out


def _account(w: Workload, out: Round, dep: Deployment, pool: Pool,
             loop: _Loop) -> None:
    """Decode, match and verify every response; fill the round's counts."""
    out.attempted = len(loop.sent)
    answered = set()
    for n, (t_recv, raw) in enumerate(loop.received):
        resp = _decode(raw)
        sent: Optional[Sent] = loop.sent.get(resp.request_id) if resp else None
        if sent is None or resp.request_id in answered:
            continue  # not ours, or a second response to an answered request
        answered.add(resp.request_id)
        status = _verify(dep, pool, sent.plan, resp, n % DECRYPT_EVERY == 0)
        latency_ms = (t_recv - sent.start) * 1e3
        out.latencies_ms.append(latency_ms)
        out.latencies_by_op.setdefault(sent.plan.op, []).append(latency_ms)
        out.response_bytes.append(len(raw))
        out.batch_sizes.append(resp.batch_size)
        out.queue_wait_us.append(resp.dispatch_us - resp.arrival_us)
        if status == "ok":
            out.ok += 1
            if latency_ms <= w.slo_ms:
                out.slo_met += 1
        elif status == "mismatch":
            out.mismatch += 1
    out.failed = out.attempted - out.ok
    out.lateness_ms = [s.lateness_s * 1e3 for s in loop.sent.values()]
