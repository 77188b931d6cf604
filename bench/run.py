"""Run one eegadapt benchmark workload and print its metrics.

    python3 bench/run.py --workload train-adapter --seed 1 --seconds 25 --trace 0

The workload is set up from ``--seed`` (synthetic data, pre-made window
sets, a checkpoint where needed) and then runs its closed loop of
``eegadapt.cli.main`` calls for ``--seconds``, after one untimed warm-up
iteration. Every command's outputs are checked. The set-up is repeated
between iterations, spread over the timed loop, so that ``setup_s`` (their
median) sees the same machine as ``windows_per_s``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations, wraps the named functions of each module
while tracing (see tracer.py), writes every span to one trace file, and
prints the per-layer metrics, each per traced iteration.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment and
the per-layer table are printed above it and saved next to it under
``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: one thread (at most nproc), so runs are
# steady on a shared machine and the thread count is part of the record.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np
import scipy

from tracer import BYTES_SPANS, SPANS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ITERATIONS = 4
# Set-ups repeated between iterations take at most this share of the time
# since the loop began; at least MIN_SETUPS are made in all.
SETUP_SHARE = 0.2
MIN_SETUPS = 3


class Counter:
    """Operations attempted and failed; one operation is one CLI command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, argv, message: str) -> None:
        self.failed += 1
        self.errors.append(f"{argv[0]}: {message}")
        print(f"FAILED {' '.join(argv)}\n{message}", file=sys.stderr)


def call_cli(cli, argv) -> tuple[bool, str]:
    """Run one command in-process; returns (ok, captured output)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the flags
        return False, f"{buf.getvalue()}exit {exc.code}"
    except Exception:
        return False, buf.getvalue() + traceback.format_exc()
    return rc == 0, f"{buf.getvalue()}exit {rc}"


def run_iteration(cli, workload, state, counter: Counter, tracer=None):
    """Run one iteration's commands back to back, then check their outputs.

    Returns (wall seconds of the commands, windows moved, all ok).
    """
    commands = workload.commands(state)
    done = []
    if tracer is not None:
        tracer.install()
    start = time.perf_counter_ns()
    try:
        for cmd in commands:
            counter.attempted += 1
            ok, output = call_cli(cli, cmd.argv)
            if not ok:
                counter.fail(cmd.argv, output)
                break
            done.append(cmd)
    finally:
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.uninstall()
            tracer.iterations.append((start, end))
    all_ok = len(done) == len(commands)
    for cmd in done:
        if cmd.check is None:
            continue
        try:
            cmd.check()
        except Exception:
            counter.fail(cmd.argv, traceback.format_exc())
            all_ok = False
    return (end - start) / 1e9, sum(c.windows for c in done), all_ok


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
    sources = sorted((SRC / "eegadapt").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer, walls_traced, walls_untraced) -> dict:
    n = len(walls_traced)
    self_s = tracer.self_seconds()
    wall = sum(walls_traced) / n
    out = {}
    for name in SPANS:
        out[f"{name}.self_s"] = metric(self_s[name] / n, "s/iter")
        out[f"{name}.calls"] = metric(tracer.calls[name] / n, "calls/iter")
        if name in BYTES_SPANS:
            out[f"{name}.bytes"] = metric(tracer.bytes[name] / n, "computed_B/iter")
    out["other.self_s"] = metric(wall - sum(self_s.values()) / n, "s/iter")
    out["traced_wall_s"] = metric(wall, "s/iter")
    out["tracing_overhead"] = metric(
        statistics.median(walls_traced) / statistics.median(walls_untraced), "ratio")
    return out


def print_layer_table(workload: str, metrics: dict) -> None:
    wall = metrics["traced_wall_s"]["value"]
    rows = sorted(SPANS, key=lambda s: -metrics[f"{s}.self_s"]["value"])
    print(f"per-layer table, {workload}, per traced iteration "
          f"(wall {wall:.4f} s):")
    print(f"  {'span':40s} {'self_s':>10s} {'share':>7s} {'calls':>9s} "
          f"{'bytes (computed)':>17s}")
    for name in rows + ["other"]:
        s = metrics[f"{name}.self_s"]["value"]
        calls = metrics.get(f"{name}.calls", {}).get("value", "")
        nbytes = metrics.get(f"{name}.bytes", {}).get("value", "")
        calls = f"{calls:.1f}" if calls != "" else ""
        nbytes = f"{nbytes:.4g}" if nbytes != "" else ""
        print(f"  {name:40s} {s:10.5f} {100 * s / wall:6.2f}% {calls:>9s} {nbytes:>17s}")
    total = sum(metrics[f"{s}.self_s"]["value"] for s in SPANS) \
        + metrics["other.self_s"]["value"]
    print(f"  self_s sum + other = {total:.6f} s; traced wall = {wall:.6f} s; "
          f"tracing overhead = {metrics['tracing_overhead']['value']:.4f}x")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eegadapt" / "__init__.py").is_file():
        print(f"error: no eegadapt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eegadapt.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "eegadapt").resolve():
        print(f"error: imported eegadapt from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    counter = Counter()

    def run_setup(argv):
        argv = [str(a) for a in argv]
        counter.attempted += 1
        ok, output = call_cli(cli, argv)
        if not ok:
            counter.fail(argv, output)
            raise RuntimeError(f"set-up command failed: {' '.join(argv)}")

    setup_times = []

    def timed_setup():
        root = work / f"setup{len(setup_times)}"
        start = time.perf_counter()
        state = workload.setup(run_setup, root, args.seed)
        setup_times.append(time.perf_counter() - start)
        return root, state

    state_root, state = timed_setup()

    # The untimed warm-up runs under tracemalloc: the peak of live Python
    # and numpy allocations made during one iteration. Unlike ru_maxrss it
    # does not depend on how the allocator reuses freed memory.
    tracemalloc.start()
    with workload.warmup(state):
        run_iteration(cli, workload, state, counter)
    peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    rates = []
    iterations = []
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() < deadline:
        traced = tracer is not None and len(iterations) % 2 == 1
        wall, windows, ok = run_iteration(cli, workload, state, counter,
                                          tracer if traced else None)
        iterations.append({"wall_s": wall, "windows": windows,
                           "traced": traced, "ok": ok})
        if ok:
            walls[traced].append(wall)
            if not traced:
                rates.append(windows / wall)
        if sum(setup_times) < SETUP_SHARE * (time.perf_counter() - loop_start):
            shutil.rmtree(timed_setup()[0])
    while len(setup_times) < MIN_SETUPS:
        shutil.rmtree(timed_setup()[0])

    complete = bool(rates) and (tracer is None or bool(walls[True]))
    correct = counter.failed == 0 and complete
    if args.trace:
        metrics = layer_metrics(tracer, walls[True], walls[False]) if complete else {}
    else:
        metrics = {
            "windows_per_s": metric(statistics.median(rates) if rates else 0.0, "1/s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "peak_alloc_mb": metric(peak_alloc_mb, "MB"),
            "ok_share": metric(1.0 - counter.failed / counter.attempted, "share"),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if complete and set(metrics) != declared:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ declared)}")
    result = {"correct": correct, "attempted": counter.attempted,
              "failed": counter.failed, "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_s": setup_times,
        "iterations": iterations, "quality": workload.quality(state),
        "errors": counter.errors, "result": result,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        trace = tracer.to_json()
        trace.update(workload=args.workload, seed=args.seed, env=env)
        (work / "trace.json").write_text(json.dumps(trace))
    shutil.rmtree(state_root, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print("quality " + json.dumps(record["quality"], sort_keys=True))
    print(f"iterations {len(iterations)}; records in {work}")
    if args.trace and complete:
        print_layer_table(args.workload, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
