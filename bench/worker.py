"""One fresh interpreter of the benchmark: it imports atkinpoly first, so
the package's caches start empty, and prints one JSON object.

    python3 bench/worker.py setup
    python3 bench/worker.py round <workload> <seed> <trace 0|1>
    python3 bench/worker.py cli <atkinpoly cli arguments...>

``setup`` only reports when the import finished.  ``round`` runs one round
of an in-process workload.  ``cli`` runs one traced command-line
invocation; the untraced ones run ``python3 -m atkinpoly.cli`` directly.
The ``ready`` field is ``time.monotonic()`` right after
``import atkinpoly, atkinpoly.cli``; on Linux that clock is shared by all
processes, so the parent can subtract its own spawn time.
"""

import json
import os
import sys
import time

# The benchmark's own modules are imported only after `ready`, so set-up
# time covers the interpreter and atkinpoly alone.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_package():
    sys.path.insert(0, SRC)
    import atkinpoly
    import atkinpoly.cli  # noqa: F401

    ready = time.monotonic()
    if os.path.dirname(os.path.dirname(os.path.abspath(atkinpoly.__file__))) != SRC:
        raise SystemExit("atkinpoly was imported from %s, not from %s" % (atkinpoly.__file__, SRC))
    return atkinpoly, ready


def run_op(op) -> list:
    """Run and check one operation; a failure is recorded, not raised.

    Returns [label, latency_s, status, detail, discrepancy].  The latency
    covers ``op.call`` only.  Status is "ok", "known" (the operation is past
    a documented limit and failed there) or "failed".
    """
    latency = None
    t0 = time.perf_counter()
    try:
        result = op.call()
        latency = time.perf_counter() - t0
        discrepancy = op.check(result)
    except Exception as exc:  # the round goes on; the failure is reported
        if latency is None:
            latency = time.perf_counter() - t0
        status = "known" if op.past_limit else "failed"
        return [op.label, latency, status, "%s: %s" % (type(exc).__name__, exc), None]
    return [op.label, latency, "ok", None, discrepancy]


def _round(ap, workload: str, seed: int, traced: bool) -> dict:
    import spans
    import workloads

    counts = {"weight.quad_nodes": 0, "supersingular.primes": 0, "supersingular.fp2_elements": 0}
    records = []
    if not traced:
        ops = workloads.build_ops(workload, seed, ap, counts)
        t0 = time.perf_counter()
        for op in ops:
            records.append(run_op(op))
        return {"wall_s": time.perf_counter() - t0, "ops": records, "counts": counts, "trace": None}
    tracer = spans.Tracer()
    tracer.install()  # before the operations bind any package function
    ops = workloads.build_ops(workload, seed, ap, counts)
    with tracer.span("bench.round"):
        for i, op in enumerate(ops):
            tracer.op = i
            with tracer.span("bench.op"):
                records.append(run_op(op))
    root = tracer.spans[0]
    return {"wall_s": root[2] - root[1], "ops": records, "counts": counts, "trace": spans.summarize(tracer.spans)}


def _traced_cli(ap, argv) -> dict:
    import contextlib
    import io

    import spans

    tracer = spans.Tracer()
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = ap.cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return {"exit": code, "stdout": out.getvalue(), "trace": spans.summarize(tracer.spans)}


def main(argv) -> int:
    ap, ready = _import_package()
    if argv[0] == "setup":
        result = {}
    elif argv[0] == "round":
        result = _round(ap, argv[1], int(argv[2]), argv[3] == "1")
    elif argv[0] == "cli":
        result = _traced_cli(ap, argv[1:])
    else:
        raise SystemExit("unknown mode %r" % argv[0])
    result["ready"] = ready
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
