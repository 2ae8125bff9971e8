"""Record the stdout digest of every request a workload can send.

Run from the checkout root at the commit whose outputs are the reference:

    python3 perfbench/record.py

It rewrites ``perfbench/expected.json``; the correctness gate compares every
later run against it.
"""

import json
import os

import run
import workload


def main() -> None:
    requests = workload.recorded_requests()
    workdir = run.OUT_DIR / f"record-{os.getpid()}"
    _, result = run.spawn({"requests": requests, "trace": False, "workdir": str(workdir)})
    digests = {workload.request_key(r): o["digest"] for r, o in zip(requests, result["outcomes"])}
    path = run.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {path}")


if __name__ == "__main__":
    main()
