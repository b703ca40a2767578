"""Child processes of the benchmark, started by ``run.py`` with the checkout's
``src`` on the path.

    python3 bench/child.py cli OUT ARGS...

Traced CLI operation: installs the tracer, calls ``ringline.cli.main(ARGS)``
inside a ``cli.main`` span, writes the span totals to the file OUT at exit
and exits with main's code.

    python3 bench/child.py library OUT SECONDS TRACE

The long-lived library interpreter.  Set-up imports ringline and makes the
first, cold ``verify_all()``; then the child prints ``ready``.  With SECONDS
above 0 it runs ``verify_all()``, ``to_text()`` and
``json.dumps(to_json_dict())`` in a closed loop for that long, timing the
calibration probe between operations as ``run.py`` does for processes, and
writes latencies, failures and, with TRACE 1, per-operation span totals to
OUT.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def cli(out: str, argv: list[str]) -> int:
    import ringline.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span("cli.main", ringline.cli.main)(argv)
    finally:
        Path(out).write_text(json.dumps(tracer.summary()))


def library(out: str, seconds: float, traced: bool) -> int:
    from ringline import correspondence

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()

    def operation() -> tuple[bool, str, str]:
        report = correspondence.verify_all()
        return report.passed, report.to_text(), json.dumps(report.to_json_dict())

    _, first_text, first_json = operation()
    print("ready", flush=True)
    if seconds <= 0:
        return 0
    from run import calibration_s, scaled
    from workloads import report_json, tally_text

    if tracer is not None:
        tracer.reset()

    samples: list[tuple[float, float]] = []
    failures: list[str] = []
    probe = calibration_s(2)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passed, text, doc = operation()
        elapsed = time.perf_counter() - t0
        before, probe = probe, calibration_s(2)
        samples.append(scaled(elapsed, before, probe))
        why = (
            (None if passed else "report does not pass")
            or tally_text(text, 100)
            or report_json(doc.encode(), 100)
            or (None if (text, doc) == (first_text, first_json) else "output differs from the first call")
        )
        if why:
            failures.append(f"verify_all: {why}")
        if tracer is not None:
            tracer.fold()
        if time.perf_counter() - start >= seconds:
            break
    result = {"samples": samples, "failures": failures}
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    mode, out, *rest = sys.argv[1:]
    if mode == "cli":
        sys.exit(cli(out, rest))
    seconds, trace = rest
    sys.exit(library(out, float(seconds), trace == "1"))
