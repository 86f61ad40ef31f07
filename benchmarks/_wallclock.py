"""Shared timing helpers for the BENCH_wallclock.json emitters."""

import json
import os
import pathlib
import time
from datetime import datetime, timezone

import numpy as np

#: History entries kept per (section, backends, shape) key — oldest first
#: out.  A per-key bound (instead of one global cap) means a chatty new
#: section can never evict another section's whole trajectory.
HISTORY_MAX_PER_KEY = 200


def host_meta():
    """Run metadata every history entry should carry.

    Scaling numbers are meaningless without the host context: how many
    cpus were available, how many kernel threads the native backend was
    using, and which compiler/flags built the library.  Returns plain
    JSON-safe values; native fields degrade gracefully when the backend
    is unavailable.
    """
    import importlib

    from repro import native

    # The package re-exports a build() *function*, shadowing the module
    # attribute — resolve the module itself for the flag helpers.
    build_mod = importlib.import_module("repro.native.build")

    meta = {"cpu_count": os.cpu_count() or 1}
    try:
        meta["cc"] = build_mod.find_compiler()
    except Exception:
        meta["cc"] = None
    try:
        meta["cflags"] = " ".join(build_mod.cflags())
    except Exception:
        meta["cflags"] = None
    meta["native_available"] = native.available()
    meta["native_threads"] = (native.get_threads()
                              if meta["native_available"] else None)
    return meta


def backend_legs():
    """Ordered backend names to bench: always packed+serial, native if usable."""
    from repro import native

    legs = ["packed", "serial"]
    if native.available():
        legs.insert(0, "native")
    return legs


def backend_leg(backend, fn):
    """One timed leg returning its measured seconds-per-call.

    Every leg runs the same object; ``use_backend`` selects the kernel
    table.  The backend switch happens *outside* the clocked window so
    its few-microsecond cost never biases fast ops' ratios.
    """
    from repro.native import use_backend

    def run():
        with use_backend(backend):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

    return run


def interleaved_median_ops(cases, reps):
    """Median seconds-per-call for each (name, {leg: fn}) case.

    Each leg callable times itself and returns elapsed seconds (see
    :func:`backend_leg`).  All legs of one case interleave within each
    rep so cache/allocator state is fair to every backend; returns
    ``{name: {leg: seconds}}``.
    """
    out = {}
    for name, legs in cases:
        for fn in legs.values():
            fn()  # warmup
        times = {leg: [] for leg in legs}
        for _ in range(reps):
            for leg, fn in legs.items():
                times[leg].append(fn())
        out[name] = {leg: float(np.median(ts)) for leg, ts in times.items()}
    return out


def wallclock_payload(medians):
    """Format interleaved medians as the BENCH_wallclock.json op table.

    Emits ``<leg>_ms`` / ``<leg>_ops_per_s`` per backend leg plus the
    historical ``speedup`` (serial/packed) and, when the native leg ran,
    ``native_speedup`` (serial/native) and ``native_vs_packed``.
    """
    payload = {}
    for name, legs in medians.items():
        row = {}
        for leg, secs in legs.items():
            row[f"{leg}_ms"] = round(secs * 1e3, 4)
            row[f"{leg}_ops_per_s"] = round(1.0 / secs, 2)
        if "packed" in legs and "serial" in legs:
            row["speedup"] = round(legs["serial"] / legs["packed"], 3)
        if "native" in legs:
            if "serial" in legs:
                row["native_speedup"] = round(legs["serial"] / legs["native"], 3)
            if "packed" in legs:
                row["native_vs_packed"] = round(
                    legs["packed"] / legs["native"], 3
                )
        payload[name] = row
    return payload


def thread_scaling_counts():
    """Kernel-thread counts for the cores-vs-throughput sweep.

    Always 1 and 2 (the CI runner's shape) plus the full host width when
    wider.  On a single-cpu host the 2-thread leg still runs — it shows
    the (expected) flat curve — but speedup floors must gate on
    ``os.cpu_count() >= 2``.
    """
    cpu = os.cpu_count() or 1
    return sorted({1, 2, cpu})


def thread_scaling_ops(fn, counts, reps):
    """Median native ops/sec of ``fn`` at each kernel-thread count.

    Runs ``fn`` pinned to the native backend under ``use_threads(t)``
    for each ``t`` (warmup call outside the clock), returning
    ``{t: ops_per_s}``.
    """
    from repro.native import use_backend, use_threads

    out = {}
    with use_backend("native"):
        for t in counts:
            with use_threads(t):
                fn()  # warmup (and thread-pool spin-up)
                ts = []
                for _ in range(reps):
                    t0 = time.perf_counter()
                    fn()
                    ts.append(time.perf_counter() - t0)
            out[t] = 1.0 / float(np.median(ts))
    return out


def scaling_payload(per_op):
    """Format ``{op: {t: ops_per_s}}`` as a BENCH_wallclock.json section.

    Keys follow the ``<leg>_ops_per_s`` convention (legs named ``t1``,
    ``t2``, ...) so the history recorder picks them up, plus a
    ``speedup_2t`` ratio when both 1- and 2-thread legs ran.
    """
    payload = {}
    for name, by_threads in per_op.items():
        row = {f"t{t}_ops_per_s": round(ops, 2)
               for t, ops in by_threads.items()}
        if 1 in by_threads and 2 in by_threads:
            row["speedup_2t"] = round(by_threads[2] / by_threads[1], 3)
        payload[name] = row
    return payload


def paper_shape_context():
    """The acceptance-criteria deployment: N = 4096, 8 ciphertext primes."""
    from repro.core import CkksContext, CkksParameters

    params = CkksParameters.default(
        degree=4096, levels=7, scale_bits=23, first_bits=30, special_bits=30
    )
    context = CkksContext(params)
    assert context.max_level == 8
    return params, context


def history_key(entry):
    """The bounding key of one history entry: (section, backends, shape)."""
    meta = entry.get("meta") or {}
    return (
        entry.get("section"),
        tuple(entry.get("backends") or ()),
        (meta.get("degree"), meta.get("level")),
    )


def trim_history(history, max_per_key=None):
    """Bound ``history`` to the newest ``max_per_key`` entries per key.

    Walks newest-to-oldest counting per :func:`history_key`, then keeps
    the survivors in their original (oldest-first) order so trajectory
    plots and the regression gate keep reading chronologically.
    """
    if max_per_key is None:  # late-bound so tests can patch the module cap
        max_per_key = HISTORY_MAX_PER_KEY
    counts = {}
    keep = []
    for entry in reversed(history):
        key = history_key(entry)
        counts[key] = counts.get(key, 0) + 1
        keep.append(counts[key] <= max_per_key)
    keep.reverse()
    return [entry for entry, ok in zip(history, keep) if ok]


def write_json_atomic(path, data):
    """Serialize ``data`` next to ``path`` and atomically rename over it.

    An interrupted benchmark run (ctrl-C mid-dump, OOM kill) must never
    leave a half-written BENCH_wallclock.json: the report and the CI
    gate both parse it, and truncated JSON would poison every later run.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def record(path, section, payload, meta):
    """Merge one bench section into ``path`` and append to its history.

    The top-level ``section`` key holds the *latest* payload; rows with
    ``<leg>_ops_per_s`` values additionally append a history entry
    (timestamp, per-op ops/sec per backend leg, host metadata) so the
    perf trajectory across runs is trackable instead of overwritten.
    History is bounded per (section, backends, shape) key and the file
    is replaced atomically.
    """
    path = pathlib.Path(path)
    # Host context (cpu count, native threads, compiler) rides along on
    # every entry so scaling numbers stay interpretable; explicit
    # per-bench meta wins on key collisions.
    meta = {**host_meta(), **meta}
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("meta", {}).update(meta)
    data[section] = payload
    rows = {
        name: row for name, row in payload.items() if isinstance(row, dict)
    }
    ops = {
        name: {
            key: val for key, val in row.items()
            if key.endswith("_ops_per_s")
        }
        for name, row in rows.items()
    }
    backends = sorted({
        key[: -len("_ops_per_s")]
        for row in rows.values()
        for key in row
        if key.endswith("_ops_per_s")
    })
    if backends:  # sections without per-op ops/sec rows (e.g. the
        # serving-overload counters) keep only their latest snapshot: an
        # all-empty history entry would just evict real trajectory.
        history = data.setdefault("history", [])
        history.append({
            "ts": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "section": section,
            "backends": backends,
            "ops_per_s": {n: r for n, r in ops.items() if r},
            "meta": dict(meta),
        })
        data["history"] = trim_history(history)
    return write_json_atomic(path, data)


def random_ciphertext(rng, context, size, level, scale):
    from repro.core.ciphertext import Ciphertext

    data = np.empty((size, level, context.degree), dtype=np.uint64)
    for i in range(level):
        data[:, i] = rng.integers(
            0, context.modulus(i).value, (size, context.degree), dtype=np.uint64
        )
    return Ciphertext(data, scale)
