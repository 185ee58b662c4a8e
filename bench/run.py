"""atkinpoly benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src``.  Only the standard library is used.

A run starts rounds of the workload, one after another, until
``--seconds`` have passed, and between rounds starts fresh interpreters
that only import the package (``setup_s`` is their median).  A round of an in-process
workload (exact, supersingular, numeric) is one fresh worker interpreter,
so the package caches start empty in every round; a round of ``cli`` is a
sequence of fresh ``python3 -m atkinpoly.cli`` invocations.  Every
operation's output is checked.  The load is one closed loop with one
client: the next operation starts when the previous one has finished.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` rounds alternate between untraced and traced, and the last
line carries the per-layer metrics from the traced rounds plus the
tracing overhead.  The lines before it are a readable summary and one
``report`` JSON line with the provenance and every failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 9
SETUP_EVERY_S = 2.0
CHILD_TIMEOUT_S = 60.0
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

COUNTS_FROM_OUTSIDE = ("weight.quad_nodes", "supersingular.primes", "supersingular.fp2_elements")


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for layer in spans.LAYERS + (spans.BENCH,):
        out += [(layer + ".calls", "count"), (layer + ".self_s", "s"), (layer + ".failed", "count")]
    for fn in spans.FUNCTIONS:
        out += [(fn + ".calls", "count"), (fn + ".self_s", "s")]
    out += [(name, "count") for name in COUNTS_FROM_OUTSIDE]
    out.append(("trace_overhead_frac", "ratio"))
    return out


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """Highest whole percentile with at least ``beyond`` values above it.

    Uses the nearest-rank percentile: the q-th percentile of n sorted values
    is the one at rank ceil(q n / 100).  Returns (q, value, count beyond),
    or None when fewer than 2 * ``beyond`` values leave no such q >= 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= beyond:
            return q, ordered[rank - 1], n - rank
    return None


# ---------------------------------------------------------------------------
# child processes


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, env):
    """Run a child to completion; return (exit code, stdout, seconds, start, peak RSS in MB).

    ``start`` is ``time.monotonic()`` just before the child was created.
    The peak RSS is the child's own, read with ``os.wait4``.
    """
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    chunks = []
    fd = proc.stdout.fileno()
    try:
        while True:
            remaining = start + CHILD_TIMEOUT_S - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                proc.kill()
                raise TimeoutError("%s ran longer than %.0f s" % (argv, CHILD_TIMEOUT_S))
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - start
    return proc.returncode, b"".join(chunks).decode(), elapsed, start, usage.ru_maxrss / 1024.0


def _worker(args, env) -> tuple:
    code, out, elapsed, start, rss = spawn([sys.executable, str(WORKER)] + args, env)
    if code != 0:
        raise RuntimeError("worker %s exited with %d" % (args, code))
    result = json.loads(out)
    return result, result["ready"] - start, elapsed, rss


def setup_time(env) -> float:
    """Seconds from creating a fresh interpreter to the end of its
    ``import atkinpoly, atkinpoly.cli``."""
    return _worker(["setup"], env)[1]


def in_process_round(workload: str, seed: int, traced: bool, env) -> dict:
    result, _, _, rss = _worker(["round", workload, str(seed), "1" if traced else "0"], env)
    result["peak_rss_mb"] = rss
    return result


def cli_round(seed: int, traced: bool, env) -> dict:
    """One round of fresh command-line invocations, timed from outside."""
    ops, traces = [], []
    counts = dict.fromkeys(COUNTS_FROM_OUTSIDE, 0)
    peak = 0.0
    t0 = time.monotonic()
    for argv, expected in workloads.inputs("cli", seed):
        label = "atkinpoly " + " ".join(argv)
        if traced:
            code, out, elapsed, _, rss = spawn([sys.executable, str(WORKER), "cli"] + argv, env)
            if code != 0:
                raise RuntimeError("traced invocation %s: worker exited with %d" % (label, code))
            result = json.loads(out)
            code, out = result["exit"], result["stdout"]
            traces.append(result["trace"])
        else:
            code, out, elapsed, _, rss = spawn([sys.executable, "-m", "atkinpoly.cli"] + argv, env)
        peak = max(peak, rss)
        for name, value in workloads.cli_counts(argv).items():
            counts[name] += value
        try:
            workloads.check_cli(argv, expected, code, out)
        except (workloads.Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
            ops.append([label, elapsed, "failed", "%s: %s" % (type(exc).__name__, exc), None])
        else:
            ops.append([label, elapsed, "ok", None, None])
    wall = time.monotonic() - t0
    return {"wall_s": wall, "ops": ops, "counts": counts, "peak_rss_mb": peak,
            "trace": _merge_cli_traces(traces, wall) if traced else None}


def _merge_cli_traces(traces, wall: float) -> dict:
    """Sum the per-invocation summaries; everything outside the package
    (interpreter start, import, pipes, checks) is the benchmark's own time."""
    merged = {"functions": {}, "layers": {}, "root_s": 0.0}
    for tr in traces:
        for key in ("functions", "layers"):
            for name, stat in tr[key].items():
                acc = merged[key].setdefault(name, [0, 0.0, 0])
                for i in range(3):
                    acc[i] += stat[i]
        merged["root_s"] += tr["root_s"]
    # time outside every root span of the package is the benchmark's own
    merged["layers"][spans.BENCH] = [len(traces), wall - merged["root_s"], 0]
    return merged


# ---------------------------------------------------------------------------
# provenance


def _git_rev():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    return {
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": _read("/proc/loadavg").split()[:3],
    }


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Rounds until ``seconds`` have passed, with set-up samples spread
    over the same time.

    The speed of a shared machine drifts over seconds, so set-up samples
    are taken between rounds, about one per ``SETUP_EVERY_S``, rather than
    all at once; at least ``SETUP_SAMPLES`` are taken.
    """
    env = _worker_env()
    prov = provenance()
    setup_time(env)  # the first import writes the bytecode caches; not counted
    setups, rounds = [], []
    start = time.monotonic()
    while True:
        while len(setups) < 1 + (time.monotonic() - start) / SETUP_EVERY_S:
            setups.append(setup_time(env))
        traced = trace and len(rounds) % 2 == 1
        if workload == "cli":
            rounds.append(cli_round(seed, traced, env))
        else:
            rounds.append(in_process_round(workload, seed, traced, env))
        rounds[-1]["traced"] = traced
        have_both = not trace or len(rounds) >= 2
        if have_both and time.monotonic() - start >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_time(env))
    return prov, setups, rounds


def summarize_run(workload: str, setups, rounds) -> dict:
    """End-to-end metrics and the report fields of one run."""
    plain = [r for r in rounds if not r["traced"]]
    n_ops = len(rounds[0]["ops"])
    # per-operation medians over the untraced rounds keep the sample count
    # fixed at the operations of one round, however many rounds fit
    per_op = [statistics.median(r["ops"][i][1] for r in plain) for i in range(n_ops)]
    q, tail, beyond = tail_percentile(per_op)
    all_ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in all_ops if op[2] == "failed"]
    known = [op for op in all_ops if op[2] == "known"]
    discrepancies = [(op[4], op[0]) for op in all_ops if op[4] is not None]
    summary = {
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_tail_ms": 1e3 * tail,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        },
        "attempted": len(all_ops),
        "failed": len(failed),
        "known_failed": len(known),
        "failed_frac": (len(failed) + len(known)) / len(all_ops),
        "tail": {"percentile": q, "samples": n_ops, "beyond": beyond, "rounds": len(plain)},
        "failures": sorted({(op[0], op[2], op[3]) for op in failed + known}),
        "per_op_ms": {op[0]: round(1e3 * t, 3) for op, t in zip(rounds[0]["ops"], per_op)},
        "round_wall_s": [r["wall_s"] for r in plain],
    }
    if workload == "numeric":
        worst, label = max(discrepancies)
        summary["accuracy_digits"] = -math.log10(max(worst, 1e-17))
        summary["accuracy_worst_op"] = label
    return summary


def trace_metrics(rounds) -> tuple:
    """Per-layer metrics (medians over the traced rounds) and the
    self-time sanity residual of every traced round."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    rows = []
    residuals = []
    for r in traced:
        tr = r["trace"]
        row = {}
        for layer in spans.LAYERS + (spans.BENCH,):
            calls, self_s, failed = tr["layers"].get(layer, (0, 0.0, 0))
            row.update({layer + ".calls": calls, layer + ".self_s": self_s, layer + ".failed": failed})
        for fn in spans.FUNCTIONS:
            calls, self_s, _ = tr["functions"].get(fn, (0, 0.0, 0))
            row.update({fn + ".calls": calls, fn + ".self_s": self_s})
        row.update({name: r["counts"][name] for name in COUNTS_FROM_OUTSIDE})
        rows.append(row)
        total_self = sum(stat[1] for stat in tr["layers"].values())
        residuals.append({"modules_self_s": total_self - tr["layers"][spans.BENCH][1],
                          "bench_self_s": tr["layers"][spans.BENCH][1],
                          "wall_s": r["wall_s"], "residual_s": total_self - r["wall_s"]})
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace_overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                      / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return metrics, residuals


def _print_summary(args, summary, prov, n_rounds):
    print("# atkinpoly bench  workload=%s seed=%d trace=%d  %d rounds x %d operations  %s, %d cpus, load %s"
          % (args.workload, args.seed, args.trace, n_rounds, summary["tail"]["samples"],
             prov["cpu"], prov["nproc"], " ".join(prov["loadavg"])))
    units = dict(END_TO_END)
    for name, value in summary["metrics"].items():
        print("%-16s %12.4f %s" % (name, value, units[name]))
    t = summary["tail"]
    print("  op_tail_ms is p%d of %d per-operation medians over %d untraced rounds, %d beyond it"
          % (t["percentile"], t["samples"], t["rounds"], t["beyond"]))
    print("%-16s %12.4f ratio  (%d of %d operations; %d past a documented limit)"
          % ("failed_frac", summary["failed_frac"], summary["failed"] + summary["known_failed"],
             summary["attempted"], summary["known_failed"]))
    if "accuracy_digits" in summary:
        print("%-16s %12.4f digits (worst: %s)" % ("accuracy_digits", summary["accuracy_digits"],
                                                   summary["accuracy_worst_op"]))
    for label, status, detail in summary["failures"]:
        print("  %s %s: %s" % (status, label, detail))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "atkinpoly" / "__init__.py").is_file():
        print("bench: no atkinpoly sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    prov, setups, rounds = run(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = summarize_run(args.workload, setups, rounds)
    _print_summary(args, summary, prov, len(rounds))
    correct = summary["failed"] == 0
    residuals = []
    if args.trace:
        metrics, residuals = trace_metrics(rounds)
        correct = correct and all(abs(r["residual_s"]) <= 1e-6 * r["wall_s"] for r in residuals)
        print("  trace: module self %.4f s + bench self %.4f s vs traced wall %.4f s (median round); "
              "overhead %.1f%%" % (statistics.median(r["modules_self_s"] for r in residuals),
                                   statistics.median(r["bench_self_s"] for r in residuals),
                                   statistics.median(r["wall_s"] for r in residuals),
                                   100 * metrics["trace_overhead_frac"]))
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in per_layer_metrics()}
    else:
        out = {name: {"value": summary["metrics"][name], "unit": unit} for name, unit in END_TO_END}
    report = {k: v for k, v in summary.items() if k != "metrics"}
    report.update(workload=args.workload, seed=args.seed, trace=args.trace, provenance=prov,
                  setup_samples_s=setups, trace_check=residuals)
    print("report " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
