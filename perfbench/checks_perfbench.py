"""Tests of the benchmark itself. From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/checks_perfbench.py

The file name keeps them out of a plain ``pytest`` run of the repository.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import calib
import run
import spans
import worker
import workload


def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".terms_out", ".dropped_singular", ".misses")) or ".delta_order." in name


def _expected() -> dict:
    return json.loads((run.BENCH_DIR / "expected.json").read_text())


def test_generator_is_deterministic_for_a_fixed_seed():
    for name in workload.WORKLOADS:
        assert workload.requests_for(name, 3) == workload.requests_for(name, 3)
    assert workload.interactive(3) != workload.interactive(4)
    assert workload.complex_operands(3) == workload.complex_operands(3)


def test_interactive_mix_has_fixed_strata():
    assert Counter(r["kind"] for r in workload.interactive(5)) == workload.MIX


def test_every_request_a_seed_can_draw_has_a_recorded_digest():
    expected = _expected()
    assert all(workload.request_key(r) in expected for r in workload.recorded_requests())


def test_percentile_leaves_ten_samples_beyond_p99_of_a_session():
    values = list(range(len(workload.interactive(1))))
    p99 = run.percentile(values, 0.99)
    assert sum(v > p99 for v in values) >= 10


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_traced_runs_repeat_counts_and_change_no_output(name):
    requests = workload.requests_for(name, workload.HOLDOUT_SEED)
    keys = [workload.request_key(r) for r in requests]
    job = {"requests": requests, "trace": False, "workdir": str(run.OUT_DIR / f"test-{name}")}
    _, plain = run.spawn(job)
    _, first = run.spawn(dict(job, trace=True))
    _, second = run.spawn(dict(job, trace=True))

    digests = [o["digest"] for o in plain["outcomes"]]
    assert [o["digest"] for o in first["outcomes"]] == digests
    assert [o["digest"] for o in second["outcomes"]] == digests
    failed, wrong = run.gate(requests, keys, _expected(), plain["outcomes"])
    assert wrong == 0
    if name != "interactive":
        assert failed == 0

    counts = {k: v for k, v in first["layers"].items() if _is_count(k)}
    assert counts == {k: v for k, v in second["layers"].items() if _is_count(k)}
    assert sum(counts.values()) > 0


def test_every_request_is_scaled_by_the_chunks_around_it(tmp_path):
    req = workload.request(["bracket", "[B[1,2], B[2,1]]"], kind="bracket-argv")
    result = worker.run_job({"requests": [req] * 3, "trace": False, "workdir": str(tmp_path / "w")})
    chunks = result["calibration_s"]
    assert len(chunks) == 2  # three short requests fit between two chunks
    factor = 2 * calib.REF_S / sum(chunks)
    assert result["ref_latencies_s"] == pytest.approx([t * factor for t in result["latencies_s"]])


def test_calibration_chunk_imports_no_checker_code():
    code = (run.BENCH_DIR / "calib.py").read_text()
    imports = [line for line in code.splitlines() if line.startswith(("import ", "from "))]
    assert imports and not any("rhpwn" in line for line in imports)


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    import rhpwn.cli  # noqa: F401

    def bindings():
        return {
            (mod_name, attr): value
            for mod_name, module in sys.modules.items()
            if mod_name == "rhpwn" or mod_name.startswith("rhpwn.")
            for attr, value in vars(module).items()
        }

    before = bindings()
    req = workload.request(["bracket", "[B[1,2], B[2,1]]"], kind="bracket-argv")
    result = worker.run_job({"requests": [req], "trace": True, "workdir": str(tmp_path / "w")})
    assert result["layers"]["dsl.parse.calls"] == 1
    assert result["layers"]["lie.bracket.calls"] == 1
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_patches_every_binding_of_a_target():
    import rhpwn.sandwich
    import rhpwn.stepfn

    original = rhpwn.stepfn.fn_product
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rhpwn.stepfn.fn_product is not original
        assert rhpwn.sandwich.fn_product is rhpwn.stepfn.fn_product
    finally:
        tracer.uninstall()
    assert rhpwn.sandwich.fn_product is original


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "realization", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
