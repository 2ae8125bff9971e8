"""Benchmark of the rhpwn checker: time to a verdict, end to end and per layer.

Run from the root of a checkout that holds ``src/rhpwn``:

    python3 perfbench/run.py --workload realization --seed 1 --seconds 20 --trace 0

Each session runs in a fresh interpreter (``worker.py``), because every CLI
invocation pays the per-process costs. Sessions repeat the same requests
until ``--seconds`` have passed. ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced sessions
and reports its per-layer metrics. Every request passes through the
correctness gate. A summary goes to stderr, a full record to
``.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json``, and the last
line of stdout is the JSON result.

Other tenants of a shared machine slow this process down, by up to 2x, for
seconds to minutes at a time. Every time is therefore scaled by the
calibration chunks run around it (``calib.py``) and reported in reference
seconds. Every session sends the same requests: ``verdict_s`` is the sum
over requests of each one's median scaled latency over the sessions,
``cpu_s`` the same for CPU time, and the percentiles are taken over those
medians. ``setup_s`` is the median scaled set-up time. Memory is a median.
Sessions start until ``--seconds`` would be exceeded, at least three.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_SESSIONS = 3
MIN_SETUP_SAMPLES = 15
SESSION_TIMEOUT_S = 150
# No session starts after this many seconds, so a run of a much slower
# program still ends within 180 s.
RUN_CAP_S = 110


class BenchError(RuntimeError):
    pass


def spawn(job: dict | None) -> tuple[float, dict | None]:
    """Run one worker; return (scaled set-up seconds, its result).

    ``None``: set-up only. The set-up time is scaled by the calibration
    chunks the worker runs once it is ready.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        gauge = proc.stdout.readline()
        if ready != b"ready\n" or not gauge:
            _, err = proc.communicate(timeout=SESSION_TIMEOUT_S)
            raise BenchError("worker failed to import rhpwn.cli: " + err.decode(errors="replace")[-2000:])
        payload = b"" if job is None else json.dumps(job).encode("utf-8")
        out, err = proc.communicate(payload, timeout=SESSION_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: " + err.decode(errors="replace")[-2000:])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    scaled = setup_s * calib.REF_S / float(gauge)
    return scaled, (json.loads(out) if job is not None else None)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at n = 1100 and q = 0.99, 11 values lie beyond."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def per_request_median(sessions, key: str) -> list[float]:
    """Each request's median of ``key`` over the sessions."""
    return [statistics.median(s[key][i] for s in sessions) for i in range(len(sessions[0][key]))]


def gate(requests, keys, expected, outcomes) -> tuple[int, int]:
    """Return (failed, wrong): wrong outputs also count as failed.

    An operation fails when its exit code is not the contract's answer, it
    ends in an uncaught exception, its verdict line is missing, or its stdout
    digest differs from the one recorded at the seed commit.
    """
    failed = wrong = 0
    for req, key, out in zip(requests, keys, outcomes):
        bad_output = out["digest"] != expected.get(key) or out["verdict_ok"] is False
        wrong += bad_output
        failed += bad_output or out["exit"] != req["exit"] or out["uncaught"]
    return failed, wrong


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    requests = workload.requests_for(name, seed)
    keys = [workload.request_key(r) for r in requests]
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    job = {"requests": requests, "trace": False, "workdir": str(OUT_DIR / f"work-{os.getpid()}")}
    plain, traced, setups = [], [], []
    tally = {"attempted": 0, "failed": 0, "wrong": 0}

    def session(use_trace: bool) -> None:
        setup_s, result = spawn(dict(job, trace=use_trace))
        setups.append(setup_s)
        (traced if use_trace else plain).append(result)
        failed, wrong = gate(requests, keys, expected, result["outcomes"])
        tally["attempted"] += len(requests)
        tally["failed"] += failed
        tally["wrong"] += wrong

    spawn(None)  # untimed: the first import may compile bytecode
    start = time.perf_counter()
    rounds = 0
    while True:
        session(False)
        if trace:
            session(True)
        else:
            setups.append(spawn(None)[0])
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_SESSIONS and elapsed * (rounds + 1) / rounds > seconds or elapsed > RUN_CAP_S:
            break
    if not traced:
        session(True)  # every record carries the trace's own checks
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(None)[0])
    measured_s = time.perf_counter() - start

    wall = per_request_median(plain, "ref_latencies_s")
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_s": sum(wall),
        "cpu_s": sum(per_request_median(plain, "ref_cpu_s_per_request")),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        "request_p50_ms": percentile(wall, 0.50) * 1e3,
        "request_p99_ms": percentile(wall, 0.99) * 1e3,
    }
    fastest = min(traced, key=lambda s: s["verdict_s"])
    trace_check = {
        "trace.overhead_s": sum(per_request_median(traced, "ref_latencies_s")) - metrics["verdict_s"],
        "trace.unattributed_s": fastest["layers"]["trace.unattributed_s"],
    }
    if trace:
        metrics.update(fastest["layers"])
        metrics.update(trace_check)
        _, micro = spawn({"micro": {"complex": workload.complex_operands(seed)}})
        metrics.update(micro)
    return {
        "metrics": metrics,
        **tally,
        "trace_check": trace_check,
        "measured_s": measured_s,
        "sessions": len(plain),
        "traced_sessions": len(traced),
        "requests_per_session": len(requests),
        "setup_s_samples": setups,
        "raw_verdict_s_median": sum(per_request_median(plain, "latencies_s")),
        "verdict_s_per_session": [s["verdict_s"] for s in plain],
        "calibration_s_median": statistics.median(c for s in plain for c in s["calibration_s"]),
        "traced_verdict_s_per_session": [s["verdict_s"] for s in traced],
        "inputs": [r["argv"] for r in requests] if name != "interactive" else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if not (ROOT / "src" / "rhpwn" / "cli.py").is_file():
            raise BenchError(f"no rhpwn sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        load_start = _loadavg()
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        load_end = _loadavg()
        missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT_DIR / f"work-{os.getpid()}", ignore_errors=True)

    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        failed_ratio=record["failed"] / record["attempted"],
        commit=_commit(),
        src_sha256=_src_digest(),
        machine={
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_implementation() + " " + platform.python_version(),
            "platform": platform.platform(),
            "loadavg_start": load_start,
            "loadavg_end": load_end,
        },
    )
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    err = sys.stderr
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"sessions={record['sessions']}+{record['traced_sessions']} traced "
          f"requests/session={record['requests_per_session']}", file=err)
    print(f"machine: nproc={record['machine']['nproc']} {record['machine']['python']} "
          f"loadavg {load_start} -> {load_end} commit={record['commit']}", file=err)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}", file=err)
    print(f"  {'failed_ratio':40s} {record['failed_ratio']:>16.6g} "
          f"({record['failed']}/{record['attempted']}, wrong outputs {record['wrong']})", file=err)
    if not args.trace:
        for name, value in record["trace_check"].items():
            print(f"  {name:40s} {value:>16.6g} s (one traced session)", file=err)
    print(f"record: {out_path}", file=err)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
