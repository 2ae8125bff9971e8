"""Every function of ``src/rhpwn`` is entered by a recorded request or an
acceptance criterion, or is kept for a reason named here."""

import os
import subprocess
import sys
from pathlib import Path

import rhpwn

# The functions that neither the recorded requests of perfbench/workload.py nor
# tests/test_acceptance.py enter, each with the reason it is kept.
KEPT = {
    # refusal paths: no recorded request is refused with these
    "scalars.count_to_str": "names a grid size past Python's integer-to-string limit",
    "scalars.SingularPartError.__init__": "a singular part that does not vanish at zero",
    # names the benchmark's tracer and micro-benchmarks call (perfbench/spans.py, micro.py)
    "sandwich.commutator": "TARGETS name; the failing-tuple word path",
    "sandwich.reduce": "TARGETS name; the failing-tuple word path",
    "sandwich.EQTerm.word_key": "sandwich.word_key_hash_ns",
    # the word path of a realization tuple that fails
    "sandwich._exp_at": "reduce merges a delta word's exponentials",
    # step-function labels written in DSL text, and their conjugate (~)
    "dsl._Parser._parse_step": "bracket 'B[2,1]@step[...]', a CI step and tests/test_dsl.py",
    "stepfn.conjugate": "~ on a step label",
    # test-only APIs: the element-level cross-checks and the scalar algebra in tests/
    "lie.jacobi_defect": "element-level cross-check of the Jacobi scan tables",
    "lie.Element.certified": "a relaxed element is not certified",
    "lie.Generator.in_domain": "a relaxed generator is not in the domain",
    "scalars.CScalar.__sub__": "scalar algebra",
    "scalars.CScalar.__rsub__": "scalar algebra",
    "scalars.LinComb.__neg__": "element algebra",
}


def test_every_function_not_entered_is_kept_on_purpose():
    # a fresh interpreter, so that import-time calls and cache misses are seen
    src = str(Path(rhpwn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    script = Path(__file__).resolve().parent / "reachability.py"
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True,
                         check=True, timeout=300).stdout
    assert set(out.split()) == set(KEPT)
