"""One fresh interpreter that runs one session of CLI requests in-process.

Protocol: the worker imports ``rhpwn.cli`` first and writes ``ready`` to
stdout, so the parent's clock from spawn to that line is the set-up time.
It then writes the median time of ``GAUGE_CHUNKS`` calibration chunks, which
scales that set-up time, on a line of its own. Last it reads one JSON job
from stdin and writes one JSON result to stdout.
An empty job ends the worker after set-up. Run it from the checkout root
with ``PYTHONPATH=src``.
"""

import sys

if __name__ == "__main__":
    # Nothing but the interpreter may run before this import: set-up time.
    import rhpwn.cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import rhpwn.cli  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import calib  # noqa: E402
import micro  # noqa: E402
import spans  # noqa: E402

GAUGE_CHUNKS = 3


def _peak_rss_mb() -> float:
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def run_session(requests: list[dict], workdir: Path, tracer=None) -> dict:
    """Send each request after the previous one returns; gate nothing here.

    Step-function files are written to ``workdir`` before the clock starts.
    Calibration chunks (``calib.Gauge``) run throughout; each request's times
    leave out the chunks run inside it, and its scaled times divide by the
    chunks around it.
    """
    for req in requests:
        for name, text in req["files"].items():
            (workdir / name).write_text(text, encoding="utf-8")
    runner = CliRunner()
    main = rhpwn.cli.main
    results = []
    windows = []
    gauge = calib.Gauge(None if tracer is None else lambda: tracer.span(spans.CHUNK))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with gauge:
            for req in requests:
                c0 = time.process_time()
                t0 = time.perf_counter()
                if tracer is None:
                    res = runner.invoke(main, req["argv"], input=req["stdin"])
                else:
                    with tracer.span("cli.request"):
                        res = runner.invoke(main, req["argv"], input=req["stdin"])
                t1 = time.perf_counter()
                windows.append((t0, t1, time.process_time() - c0))
                results.append(res)
    finally:
        os.chdir(cwd)
    latencies, cpu, ref_latencies, ref_cpu = [], [], [], []
    for t0, t1, cpu_s in windows:
        chunk_s, chunk_cpu_s, wall_scale, cpu_scale = gauge.scale(t0, t1)
        latencies.append(t1 - t0 - chunk_s)
        cpu.append(cpu_s - chunk_cpu_s)
        ref_latencies.append(latencies[-1] * wall_scale)
        ref_cpu.append(cpu[-1] * cpu_scale)
    outcomes = []
    for req, res in zip(requests, results):
        out = res.stdout_bytes
        uncaught = res.exception is not None and not isinstance(res.exception, SystemExit)
        verdict_ok = None
        if req.get("verdict") is not None:
            verdict_ok = req["verdict"] in out.decode("utf-8").splitlines()
        outcomes.append(
            {
                "exit": res.exit_code,
                "uncaught": uncaught,
                "digest": hashlib.sha256(out).hexdigest()[:20],
                "bytes": len(out),
                "verdict_ok": verdict_ok,
            }
        )
    return {
        "verdict_s": sum(latencies),
        "cpu_s": sum(cpu),
        "peak_rss_mb": _peak_rss_mb(),
        "latencies_s": latencies,
        "cpu_s_per_request": cpu,
        "ref_latencies_s": ref_latencies,
        "ref_cpu_s_per_request": ref_cpu,
        "calibration_s": [wall for wall, _ in gauge.chunks],
        "outcomes": outcomes,
    }


def run_job(job: dict) -> dict:
    if "micro" in job:
        return micro.run(job["micro"])
    workdir = Path(job["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if job["trace"] else None
    try:
        if tracer is not None:
            tracer.install()
        result = run_session(job["requests"], workdir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        result["layers"] = tracer.metrics(result["verdict_s"], result["outcomes"])
    return result


def main() -> None:
    calib.chunk()  # the interpreter specializes the chunk's bytecode
    gauge = statistics.median(calib.chunk()[0] for _ in range(GAUGE_CHUNKS))
    sys.stdout.write(f"{gauge!r}\n")
    sys.stdout.flush()
    text = sys.stdin.read()
    if not text.strip():
        return
    sys.stdout.write(json.dumps(run_job(json.loads(text))))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
