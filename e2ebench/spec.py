"""What the benchmark measures: workloads, metric names and units.

``BENCHMARK.json`` at the repo root repeats these names (plus the
regression bounds); ``test_e2ebench_unit.py`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Workload", "WORKLOADS", "END_TO_END", "PER_LAYER", "ROUNDS",
           "SERVE_DEFAULTS", "MIX_OPS", "ROUTINES", "WARMUP_REQUESTS"]

#: Shipped defaults of ``python -m repro serve`` that the client side and
#: the in-process replay must agree with.  Only ``--listen``, ``--degree``
#: and ``--seed`` are passed to the CLI; everything here is what it then
#: picks on its own (``cmd_serve``), mirrored in this one block.
SERVE_DEFAULTS = {
    "levels": 3,            # CkksParameters.default(levels=3): 4 ciphertext limbs
    "scale_bits": 30,
    "first_bits": 50,
    "special_bits": 50,
    "max_batch": 8,
    "window_us": 200.0,
    "pump_ms": 5.0,
    "ntt_variant": "local-radix-8",
    "asm": True,
    "kernel_fusion": False,
    "workers": 0,
}

#: Each run is this many rounds; a round restarts the server (or, in
#: process, rebuilds the deployment), so a run yields this many set-up
#: samples and no server ever holds more than one round's requests.
ROUNDS = 3
WARMUP_REQUESTS = 8
MIX_OPS = ("add", "square", "multiply", "rotate")
#: The paper's five evaluation routines, as ``HERoutines.by_name`` knows them.
ROUTINES = ("MulLin", "MulLinRS", "SqrLinRS", "MulLinRSModSwAdd", "Rotate")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # closed | open | routines | matmul
    degree: int
    levels: int             # CkksParameters.default(levels=...)
    ops: Tuple[str, ...]
    slo_ms: float           # latency limit for slo_met_share: ~3x the p90
    #                         of this box, so the share moves on failures and
    #                         gross slowdowns, not on run-to-run noise
    why: str
    window: int = 1         # requests kept outstanding (closed loops)
    think_ms: float = 0.0   # U[0, think_ms) before each send
    rate_rps: float = 0.0   # open loop arrival rate
    connections: int = 1
    round_cap: int = 600    # max timed requests per round (bounds server RSS)
    rss_after_per_s: float = 0.0  # server_rss_mb is read after this many
    #                               responses per second of round time

    @property
    def served(self) -> bool:
        return self.kind in ("closed", "open")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "add-4k-unloaded", "closed", 4096, SERVE_DEFAULTS["levels"], ("add",),
        slo_ms=20.0, think_ms=4.0, rss_after_per_s=90.0,
        why="one client, one add at a time at N=4096: wire, transport and "
            "pump wait are ~97% of latency, kernels ~3%",
    ),
    Workload(
        "mulrelin-16k-unloaded", "closed", 16384, SERVE_DEFAULTS["levels"],
        ("multiply",), slo_ms=100.0, think_ms=4.0, round_cap=150,
        rss_after_per_s=18.0,
        why="one client, one multiply+relin+rescale at a time at N=16384: "
            "kernels ~65% of latency, device model ~20%, wire ~11%",
    ),
    Workload(
        "mix-4k-saturated", "closed", 4096, SERVE_DEFAULTS["levels"], MIX_OPS,
        slo_ms=400.0, window=16, rss_after_per_s=75.0,
        why="16 requests of a seeded add/square/multiply/rotate mix kept "
            "outstanding: capacity with batcher, dispatcher and loop all busy",
    ),
    Workload(
        "mix-4k-open50", "open", 4096, SERVE_DEFAULTS["levels"], MIX_OPS,
        slo_ms=100.0, rate_rps=50.0, connections=2, rss_after_per_s=36.0,
        why="same mix as Poisson arrivals at 50 req/s over 2 sessions, timed "
            "from due time: queueing behind multiplies, interleaved I/O",
    ),
    Workload(
        "he-inprocess-8k", "routines", 8192, 7, ROUTINES, slo_ms=100.0,
        why="the paper's five HE routines round-robin at N=8192/L8, no "
            "server: kernels are everything, the control for serving changes",
    ),
    Workload(
        "matmul-inprocess-8k", "matmul", 8192, 7, ("matmul2x2x2",),
        slo_ms=1000.0,
        why="the paper's encrypted matMul application (2x2x2 slot-vector "
            "blocks, encrypt to decrypt) at N=8192/L8, no server",
    ),
)}

#: name -> (unit, better).  Every workload reports every one of these.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "slo_met_share": ("share", "higher"),
    "server_cpu_ms_per_req": ("ms", "lower"),
    "server_rss_mb": ("MB", "lower"),
}

_US, _MS, _CT = ("us", "lower"), ("ms", "lower"), ("count", "higher")

#: name -> (unit, better); layer = the part of the name before the metric.
#: A layer that is not on a workload's path reports 0 there.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # transport, measured on the workload's own socket round
    "server.net.hello_rtt_ms": _MS,
    "server.net.overhead_p50_ms": _MS,
    "server.net.request_bytes": ("B", "lower"),
    "server.net.response_bytes": ("B", "lower"),
    # wire format, in-process replay of the workload's request stream
    "server.request.encode_request_us": _US,
    "server.request.decode_request_us": _US,
    "server.request.encode_response_us": _US,
    "server.request.decode_response_us": _US,
    "server.request.wire_vs_kernel_ratio": ("ratio", "lower"),
    "core.serialize.save_ciphertext_us": _US,
    "core.serialize.load_ciphertext_us": _US,
    "core.serialize.load_relin_key_ms": _MS,
    # batching
    "server.batcher.batch_size_mean": _CT,
    "server.batcher.queue_wait_p50_us": _US,
    "server.batcher.form_batches_us": _US,
    # pump / metrics bookkeeping that grows with served records
    "server.pump.idle_tick_us.fresh": _US,
    "server.pump.idle_tick_us.after500": _US,
    "server.metrics.snapshot_us.after500": _US,
    # dispatch
    "server.dispatcher.submit_us": _US,
    "server.dispatcher.pump_once_us": _US,
    "server.dispatcher.plan_us": _US,
    "server.dispatcher.thunk_us": _US,
    "server.dispatcher.overhead_us": _US,
    "server.dispatcher.overhead_share": ("share", "lower"),
    # simulated device model
    "devmodel.op_profiles_us": _US,
    "devmodel.kernels_per_request": ("count", "lower"),
    "apps.matmul.sim_compute_ms": _MS,
    # HE math
    "core.evaluator.add_us": _US,
    "core.evaluator.multiply_us": _US,
    "core.evaluator.square_us": _US,
    "core.evaluator.relinearize_us": _US,
    "core.evaluator.rescale_us": _US,
    "core.evaluator.rotate_us": _US,
    "core.routines.MulLin_ms": _MS,
    "core.routines.MulLinRS_ms": _MS,
    "core.routines.SqrLinRS_ms": _MS,
    "core.routines.MulLinRSModSwAdd_ms": _MS,
    "core.routines.Rotate_ms": _MS,
    "ntt.forward_us": _US,
    "ntt.inverse_us": _US,
    "ntt.butterflies": ("count", "lower"),
    "ntt.bytes_computed": ("B", "lower"),
    "ntt.gbutterflies_per_s": ("G/s", "higher"),
    "modmath.dyadic_product_us": _US,
    "modmath.mad_mod_us": _US,
    "modmath.add_gbytes_per_s": ("GB/s", "higher"),
    "native.available": _CT,
    "native.threads": _CT,
    "native.build_s": ("s", "lower"),
    # client-side crypto
    "core.client.keygen_s": ("s", "lower"),
    "core.client.encode_encrypt_ms": _MS,
    "core.client.decrypt_decode_ms": _MS,
    "apps.matmul.products_per_s": ("1/s", "higher"),
    # server process
    "server.proc.start_to_listen_s": ("s", "lower"),
    "server.proc.rss_kb_per_req": ("kB", "lower"),
    # load generator and client-observed tail
    "loadgen.sent": _CT,
    "loadgen.ok": _CT,
    "loadgen.failed": ("count", "lower"),
    "loadgen.mismatch": ("count", "lower"),
    "loadgen.lateness_p99_ms": _MS,
    "loadgen.busy_share": ("share", "lower"),
    "client.latency_p99_ms": _MS,
    "client.latency_max_ms": _MS,
    "client.latency_p50_ms.add": _MS,
    "client.latency_p50_ms.square": _MS,
    "client.latency_p50_ms.multiply": _MS,
    "client.latency_p50_ms.rotate": _MS,
    # the trace itself
    "trace.overhead_share": ("share", "lower"),
    "trace.unattributed_share": ("share", "lower"),
}
