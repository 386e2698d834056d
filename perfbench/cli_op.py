"""One ``paper-cli`` op, run in a fresh interpreter by ``run.py``.

Usage::

    python3 perfbench/cli_op.py REPORT_JSON COMPARE_JSON TRACE

Imports ``repro`` and then ``repro.cli`` (each import timed), runs the
``compare`` verb over every registered workload and accelerator with its JSON
written to ``COMPARE_JSON``, and writes the timings, the exit code and the
process's peak RSS to ``REPORT_JSON``.  With ``TRACE`` = 1 the public entry
points are wrapped by :mod:`tracing` and the spans go into the report too.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(report_path: str, compare_json: str, trace: bool) -> int:
    import repro  # noqa: F401

    imported_repro = time.perf_counter()
    import repro.cli

    imported_cli = time.perf_counter()
    tracer = patches = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        patches = install(tracer, cli=True)
        tracer.begin("cli")
    try:
        code = repro.cli.main(["compare", "--json", compare_json])
    finally:
        if tracer is not None:
            tracer.end()
            patches.undo()
    finished = time.perf_counter()
    report = {
        "import_repro_s": imported_repro - _START,
        "import_cli_s": imported_cli - imported_repro,
        "cli_s": finished - imported_cli,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.export() if tracer is not None else None,
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2], sys.argv[3] == "1"))
