"""What a round measures and how rounds fold into the end-to-end metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .stats import median, percentile

__all__ = ["Round", "end_to_end"]


@dataclass
class Round:
    """What one round measured (times in seconds unless named otherwise).

    A "request" is one verified operation: a served request on the socket
    workloads, one routine or matMul invocation on the in-process ones.
    "server" is the process that evaluates — the CLI server subprocess, or
    the benchmark process itself on the in-process workloads.
    """

    setup_s: float = 0.0
    start_to_listen_s: float = 0.0
    keygen_s: float = 0.0
    hello_rtt_s: float = 0.0
    wall_s: float = 0.0
    server_cpu_s: float = 0.0
    loadgen_cpu_s: float = 0.0
    rss_kb: int = 0               # server VmHWM after the fixed response count
    rss_kb_start: int = 0         # server VmHWM when the timed window opened
    rss_after: int = 0            # the fixed response count
    attempted: int = 0
    ok: int = 0                   # status ok and verified
    failed: int = 0               # non-ok + timeout + mismatch
    mismatch: int = 0             # bit or decrypt mismatch (subset of failed)
    slo_met: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    latencies_by_op: Dict[str, List[float]] = field(default_factory=dict)
    lateness_ms: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    queue_wait_us: List[float] = field(default_factory=list)
    response_bytes: List[int] = field(default_factory=list)


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    """The end-to-end metrics of one run.

    Each timing is computed per round and the run reports the median
    round, so one disturbed round (a noisy neighbour, a page-cache miss)
    does not move the run; ``slo_met_share`` counts over every request
    sent, and peak RSS is the median round's.
    """
    live = [r for r in rounds if r.latencies_ms]
    attempted = sum(r.attempted for r in rounds)
    if not live:
        raise RuntimeError("the run measured no request")
    return {
        "setup_s": median([r.setup_s for r in rounds]),
        "latency_p50_ms": median([percentile(r.latencies_ms, 50) for r in live]),
        "latency_p90_ms": median([percentile(r.latencies_ms, 90) for r in live]),
        "throughput_rps": median([r.ok / r.wall_s for r in live]),
        "slo_met_share": sum(r.slo_met for r in rounds) / attempted,
        "server_cpu_ms_per_req":
            median([r.server_cpu_s * 1e3 / r.attempted for r in live]),
        "server_rss_mb": median([r.rss_kb for r in rounds]) / 1024.0,
    }
