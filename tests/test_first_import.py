"""Every module and every lazy export must import in a fresh interpreter.

Other tests import ``repro`` in one long-lived process, so by the time one
of them touches a module its dependencies are already loaded and an import
cycle stays hidden.  This test runs one subprocess that purges ``repro.*``
from ``sys.modules`` before each attempt, so every module and every lazily
re-exported name is imported as if it were the first thing a user asked for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = ("repro", "repro.core", "repro.hw", "repro.nn", "repro.isa")

PROBE = r"""
import importlib
import json
import pkgutil
import sys


def purge():
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def attempt(label, thunk, failures):
    purge()
    try:
        thunk()
    except Exception as exc:  # report every failure, not just the first
        failures.append(f"{label}: {type(exc).__name__}: {exc}")


import repro

modules = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)
lazy = {}
for package in json.loads(sys.argv[1]):
    lazy[package] = list(importlib.import_module(package).__all__)

failures = []
for module in ["repro"] + modules:
    attempt(module, lambda module=module: importlib.import_module(module), failures)
names = 0
for package, exports in lazy.items():
    for name in exports:
        names += 1
        attempt(
            f"{package}.{name}",
            lambda package=package, name=name: getattr(
                importlib.import_module(package), name
            ),
            failures,
        )

# Registering a built-in accelerator must not load the other built-ins.
purge()
importlib.import_module("repro.baseline.simulator")
eager = sorted(
    name
    for name in ("repro.core.simulator", "repro.accelerators.variants")
    if name in sys.modules
)
print(json.dumps({
    "modules": len(modules) + 1, "names": names, "failures": failures, "eager": eager,
}))
"""


def test_every_module_and_lazy_name_imports_first():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(LAZY_PACKAGES)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
        check=True,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["modules"] > 100, report["modules"]
    assert report["names"] > 100, report["names"]
    assert report["failures"] == [], "\n".join(report["failures"])
    assert report["eager"] == []
