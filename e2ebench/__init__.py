"""The repo benchmark: served-request latency, throughput and cost over
real sockets, the paper's HE routines and matMul in-process, and an
outside-in per-layer trace.

Run one workload the way the driver does::

    python3 -m e2ebench --workload add-4k-unloaded --seed 1 --seconds 10 --trace 0

or every workload with ``python3 -m e2ebench --seed 1``.  See README.md
in this directory for the metric, workload and layer tables.

The package is self-contained: it drives the product only through
``python -m repro serve --listen`` in a subprocess, ``NetClient``,
``encode_request``/``decode_response`` and the in-process ``Evaluator``,
``HERoutines`` and ``run_encrypted_matmul``; everything else (stats,
spans, schedules, process control) is the benchmark's own so that the
ruler does not move with the program.
"""
