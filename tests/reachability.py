"""Which functions of ``src/rhpwn`` the recorded requests and the acceptance
criteria enter.

``never_entered()`` runs every request of ``perfbench/workload.recorded_requests()``
through the click entry point, then every test of ``tests/test_acceptance.py``,
under ``sys.setprofile``, and returns the qualified names ("module.qualname") of
the named functions of ``rhpwn`` that no call entered. Calls at import time and
cache misses count, so the answer holds only in a fresh interpreter that has not
imported the package's modules yet. Run it as a script to print the names:

    PYTHONPATH=src python tests/reachability.py
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

import rhpwn

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = os.path.dirname(os.path.abspath(rhpwn.__file__))


def defined_functions() -> dict[tuple[str, int], str]:
    """(file name, first line) of every named function of ``rhpwn``, nested
    ones included, to its name "module.qualname"."""
    found = {}
    for path in sorted(Path(PACKAGE).glob("*.py")):
        module = path.stem
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if inspect.iscode(const):
                    stack.append(const)
                    # a function, not a class body, a lambda or a comprehension
                    if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                        found[path.name, const.co_firstlineno] = f"{module}.{const.co_qualname}"
    return found


def _recorded_requests() -> list[dict]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workload").recorded_requests()
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def _run_requests(requests: list[dict]) -> None:
    from click.testing import CliRunner

    from rhpwn.cli import main

    runner = CliRunner()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        for req in requests:
            for name, text in req["files"].items():
                Path(workdir, name).write_text(text, encoding="utf-8")
        os.chdir(workdir)
        try:
            for req in requests:
                runner.invoke(main, req["argv"], input=req["stdin"])
        finally:
            os.chdir(cwd)


def _run_acceptance() -> None:
    import pytest

    sys.path.insert(0, str(ROOT / "tests"))
    try:
        acceptance = importlib.import_module("test_acceptance")
    finally:
        sys.path.remove(str(ROOT / "tests"))
    for name, test in vars(acceptance).items():
        if name.startswith("test_"):
            with pytest.MonkeyPatch.context() as monkeypatch:
                test(*(monkeypatch for _ in inspect.signature(test).parameters))


def never_entered() -> set[str]:
    requests = _recorded_requests()  # built before tracing: the workload is not rhpwn's
    entered = set()
    prefix = PACKAGE + os.sep

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        _run_requests(requests)
        with contextlib.redirect_stdout(io.StringIO()):  # the criteria's report lines
            _run_acceptance()
    finally:
        sys.setprofile(None)
    entered = {(os.path.basename(path), line) for path, line in entered}
    return {name for key, name in defined_functions().items() if key not in entered}


if __name__ == "__main__":
    for name in sorted(never_entered()):
        print(name)
