"""ringline benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload certify|explore|library --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  ringline is not installed; every child
interpreter gets the checkout's ``src`` on ``PYTHONPATH``, and set-up fails
(exit 2, no result) unless ``ringline.__file__`` resolves under that ``src``.

One client drives the system in a closed loop: each operation starts only
after the previous one has finished, and at most one child process runs at
a time.

Workloads, and why each is here:

* ``certify``: cold ``ringline`` processes for the verification certificate
  (``verify all`` as text, JSON and the ``--format csv`` usage error,
  ``verify trinity``, ``pauli mub``), in seed-shuffled order.  Its time goes
  to the pauli checks and to cold projective-line and GL2 enumeration.
* ``explore``: cold processes for every other README command, parameters
  drawn from the seed.  Each takes 0.1-0.2 s, dominated by interpreter
  start, imports, line enumeration and export, with little pauli work, so a
  pauli-only change should leave it unchanged.
* ``library``: one long-lived interpreter calling ``verify_all()``,
  ``to_text()`` and ``json.dumps(to_json_dict())`` (``child.py``).  Set-up
  is the import and the first call, which fills the cached structure; the
  operations measure the per-call verifier work.  The seed changes nothing.

The CLI workloads repeat rounds that hold every operation of the mix once
and stop after the round in which ``--seconds`` runs out, so each run weighs
the operations equally and traced counts per operation repeat exactly.
Every operation is checked.  End-to-end timings are scaled to a fixed host
speed (see ``scaled``); the detail line keeps the raw seconds.  Per-layer
times are raw.

A CLI set-up (writing the mutated fixture and running each distinct command
once, untimed, so that ``.pyc`` compilation and anything else a first run
pays stay out of the timed operations) is done three times, as is the
library set-up, each in a fresh interpreter; ``setup_s`` is the median.

With ``--trace 0`` the metrics are the end-to-end ones; ``--trace 1`` runs
traced children (see ``tracer.py``) and reports per-layer metrics, as means
per operation.  Before the result line the benchmark prints one JSON line of
detail: the environment record, the tail percentile and its sample count,
failure reasons and, for a traced run, the tracing overhead against the
stored untraced run of the same workload and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".bench_build" / "bench"
PY = sys.executable
CLI_MAIN = "import sys; from ringline.cli import main; sys.exit(main())"
SETUPS = 3  # set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
REF_PROBE_S = 0.02  # calibration probe time that timing metrics are scaled to
OP_CPU_LIMIT_S = 120  # a runaway child is killed by the kernel


class SetupError(Exception):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list[str], **kwargs) -> subprocess.Popen:
    p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, **kwargs)
    try:
        resource.prlimit(p.pid, resource.RLIMIT_CPU, (OP_CPU_LIMIT_S, OP_CPU_LIMIT_S))
    except ProcessLookupError:  # already exited; nothing left to limit
        pass
    return p


def reap(p: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``p``; its exit code and peak RSS in MB."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024


def quick(code: str) -> str:
    """Stdout of a short ``python -c`` child; SetupError if it fails."""
    done = subprocess.run([PY, "-c", code], cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise SetupError(f"python -c {code!r} failed: {done.stderr.strip()}")
    return done.stdout


def guard() -> None:
    """The children must import ringline from this checkout's src."""
    src = (ROOT / "src").resolve()
    where = quick("import ringline; print(ringline.__file__)").strip()
    if not Path(where).resolve().is_relative_to(src):
        raise SetupError(f"ringline imported from {where}, not from {src}")


def calibration_s(repeats: int = 3) -> float:
    """Best time of a fixed pure-Python loop: a probe of the host's current speed."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(elapsed: float, before: float, after: float) -> tuple[float, float]:
    """Raw seconds of an interval and the same at the REF_PROBE_S host speed,
    given the calibration probes timed right before and right after it.

    On a shared two-vCPU Xeon host the CPU alternates between a fast state
    and one about 1.45 times slower, each lasting seconds to minutes, so raw
    run medians depend on which state a run met (IQR/median 0.17-0.33 over
    seeds, even with 45 s runs).  Scaling each interval by the probes around it
    cancels most of that.
    """
    return elapsed, elapsed * REF_PROBE_S * 2 / (before + after)


def interp_floor_s(n: int) -> float:
    """Median wall time of ``python -c pass``."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        quick("pass")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_s(n: int) -> float:
    """Median time of a fresh ``import ringline.cli``, timed inside the child."""
    code = "import time; t=time.perf_counter(); import ringline.cli; print(time.perf_counter()-t)"
    return statistics.median(float(quick(code)) for _ in range(n))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# CLI workloads


class CliRunner:
    """Runs operations as cold ``ringline`` processes, one at a time."""

    def __init__(self, tmp: Path):
        self.out = tempfile.TemporaryFile(dir=tmp)
        self.err = tempfile.TemporaryFile(dir=tmp)
        self.spans = tmp / "spans.json"
        self.first: dict[tuple[str, ...], str] = {}  # argv -> digest of first output
        self.rss_mb = 0.0
        self.failures: list[str] = []
        self.trace_totals: dict[str, list[int]] = {}
        self.trace_hits: dict[str, int] = {}
        self.trace_misses: dict[str, int] = {}

    def close(self) -> None:
        self.out.close()
        self.err.close()

    def execute(self, op: workloads.Op, traced: bool = False):
        """Run one op; (seconds, exit code, stdout, stderr, file, rss MB)."""
        for fh in (self.out, self.err):
            fh.seek(0)
            fh.truncate()
        if op.out_file is not None:
            op.out_file.unlink(missing_ok=True)
        self.spans.unlink(missing_ok=True)
        if traced:
            cmd = [PY, str(HERE / "child.py"), "cli", str(self.spans), *op.argv]
        else:
            cmd = [PY, "-c", CLI_MAIN, *op.argv]
        t0 = time.perf_counter()
        p = spawn(cmd, stdout=self.out, stderr=self.err)
        code, rss = reap(p)
        elapsed = time.perf_counter() - t0
        self.out.seek(0)
        self.err.seek(0)
        stdout, stderr = self.out.read(), self.err.read()
        exported = b""
        if op.out_file is not None and op.out_file.exists():
            exported = op.out_file.read_bytes()
        return elapsed, code, stdout, stderr, exported, rss

    def warm(self, op: workloads.Op) -> None:
        """Untimed run; its output becomes the reference if it is the first."""
        _, _, stdout, _, exported, _ = self.execute(op)
        self.first.setdefault(op.argv, digest(stdout, exported))

    def measure(self, op: workloads.Op, traced: bool) -> float:
        """Run and check one op; the seconds its process took."""
        elapsed, code, stdout, stderr, exported, rss = self.execute(op, traced)
        self.rss_mb = max(self.rss_mb, rss)
        why = None
        if code != op.exit_code:
            why = f"exit {code}, expected {op.exit_code}"
        else:
            try:
                why = op.check(stdout, stderr, exported)
            except Exception as e:  # a malformed output must not stop the run
                why = f"check raised {type(e).__name__}: {e}"
        if why is None and self.first.setdefault(op.argv, digest(stdout, exported)) != digest(stdout, exported):
            why = "output differs from the first run of the same command"
        if why is not None:
            self.failures.append(f"{' '.join(op.argv)}: {why}")
        if traced and self.spans.exists():
            self.add_trace(json.loads(self.spans.read_text()))
        elif traced and why is None:
            self.failures.append(f"{' '.join(op.argv)}: traced child wrote no spans")
        return elapsed

    def add_trace(self, summary: dict) -> None:
        for name, (calls, self_ns) in summary["totals"].items():
            entry = self.trace_totals.setdefault(name, [0, 0])
            entry[0] += calls
            entry[1] += self_ns
        for key, target in (("hits", self.trace_hits), ("misses", self.trace_misses)):
            for name, n in summary[key].items():
                target[name] = target.get(name, 0) + n


def digest(stdout: bytes, exported: bytes) -> str:
    return hashlib.sha256(stdout + b"\0" + exported).hexdigest()


def run_cli_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    guard()
    rng = random.Random(f"{name}:{seed}")
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=STATE))
    runner = CliRunner(tmp)
    try:
        fixture = tmp / "mutated-signs.txt"
        flipped = tuple(sorted(rng.sample(range(15), 2)))
        if name == "certify":
            ops = workloads.certify_ops()
        else:
            ops = workloads.explore_ops(rng, tmp, fixture, flipped)
        warmups = list({op.command: op for op in reversed(ops)}.values())

        def set_up() -> None:
            if name == "explore":
                signs_out = tmp / "signs.json"
                signs_op = workloads.Op(
                    ("export", "--what", "signs", "--format", "json", "--out", str(signs_out)),
                    0, lambda *_: None, signs_out,
                )
                _, code, _, stderr, exported, _ = runner.execute(signs_op)
                if code != 0:
                    raise SetupError(f"export of the sign matrix failed: {stderr.decode().strip()}")
                signs = json.loads(exported)["signs"]
                fixture.write_text(workloads.mutated_fixture(signs, *flipped))
            for op in warmups:
                runner.warm(op)

        probe = calibration_s(2)
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            set_up()
            elapsed = time.perf_counter() - t0
            before, probe = probe, calibration_s(2)
            setups.append(scaled(elapsed, before, probe))
        latencies = []
        rounds = 0
        t_start = time.perf_counter()
        while True:
            order = list(ops)
            rng.shuffle(order)
            for op in order:
                elapsed = runner.measure(op, traced)
                before, probe = probe, calibration_s(2)
                latencies.append(scaled(elapsed, before, probe))
            rounds += 1
            if time.perf_counter() - t_start >= seconds:
                break
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "raw_setups_s": [raw for raw, _ in setups],
        "setups_s": [value for _, value in setups],
        "raw_latencies": [raw for raw, _ in latencies],
        "latencies": [value for _, value in latencies],
        "rounds": rounds,
        "ops_per_round": len(ops),
        "peak_rss_mb": runner.rss_mb,
        "failures": runner.failures,
        "trace": {
            "totals": runner.trace_totals,
            "hits": runner.trace_hits,
            "misses": runner.trace_misses,
        } if traced else None,
    }


# ---------------------------------------------------------------------------
# library workload


def run_library_workload(seconds: float, traced: bool) -> dict:
    """Set up SETUPS fresh interpreters; the last one also runs the loop."""
    guard()
    tmp = Path(tempfile.mkdtemp(prefix="library-", dir=STATE))
    try:
        out = tmp / "result.json"
        probe = calibration_s(2)
        setups = []
        for i in range(SETUPS):
            loop_s = seconds if i == SETUPS - 1 else 0
            cmd = [PY, str(HERE / "child.py"), "library", str(out), str(loop_s), str(int(traced))]
            with tempfile.TemporaryFile(dir=tmp) as err:
                t0 = time.perf_counter()
                p = spawn(cmd, stdout=subprocess.PIPE, stderr=err)
                ready = p.stdout.readline() == b"ready\n"
                elapsed = time.perf_counter() - t0
                p.stdout.close()
                code, rss = reap(p)
                if not ready or code != 0:
                    err.seek(0)
                    raise SetupError(f"library child exited {code}: {err.read().decode().strip()}")
            # For the last child this probe comes after its whole loop, so
            # its scale is the least exact of the three; setup_s is their
            # median.
            before, probe = probe, calibration_s(2)
            setups.append(scaled(elapsed, before, probe))
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "raw_setups_s": [raw for raw, _ in setups],
        "setups_s": [value for _, value in setups],
        "raw_latencies": [raw for raw, _ in result["samples"]],
        "latencies": [value for _, value in result["samples"]],
        "rounds": len(result["samples"]),
        "ops_per_round": 1,
        "peak_rss_mb": rss,
        "failures": result["failures"],
        "trace": result.get("trace"),
    }


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return {
        "value": ordered[rank],
        "percentile": 100.0 * rank / len(ordered),
        "samples": len(ordered),
        "beyond": len(ordered) - rank - 1,
    }


def end_to_end(run: dict, spec: list[dict]) -> dict:
    timed = run["latencies"]
    attempted = len(timed)
    values = {
        "setup_s": statistics.median(run["setups_s"]),
        "ops_per_s": len(timed) / sum(timed),
        "op_p50_s": statistics.median(timed),
        "op_tail_s": tail(timed)["value"],
        "ok_ratio": (attempted - len(run["failures"])) / attempted,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def per_layer(run: dict, spec: list[dict], floor_s: float, import_time_s: float) -> dict:
    ops = len(run["latencies"])
    totals, hits, misses = (run["trace"][k] for k in ("totals", "hits", "misses"))
    out = {}
    for m in spec:
        name = m["name"]
        span, _, kind = name.rpartition(".")
        calls, self_ns = totals.get(span, (0, 0))
        if name == "cli.interp_floor_s":
            value = floor_s
        elif name == "cli.import_s":
            value = import_time_s
        elif kind == "calls":
            value = calls / ops
        elif kind == "misses":
            value = misses[span] / ops
        elif kind.endswith("_ratio"):
            value = hits[span] / calls if calls else 0.0
        elif kind == "self_s":
            value = self_ns / 1e9 / ops
        elif kind == "render_s":  # self time of the Report.render span
            value = totals.get(name[: -len("_s")], (0, 0))[1] / 1e9 / ops
        else:
            raise ValueError(f"no rule for per-layer metric {name}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one ringline benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("certify", "explore", "library"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = bool(args.trace)
    STATE.mkdir(parents=True, exist_ok=True)

    env = {
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_start_s": calibration_s(),
    }
    try:
        env["cli.interp_floor_s"] = interp_floor_s(3)
        if args.workload == "library":
            run = run_library_workload(args.seconds, traced)
        else:
            run = run_cli_workload(args.workload, args.seed, args.seconds, traced)
        if traced:
            floor = interp_floor_s(5)
            imports = import_s(5)
    except SetupError as e:
        print(f"bench: set-up failed: {e}", file=sys.stderr)
        return 2
    env["calibration_end_s"] = calibration_s()

    lat = run["latencies"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "rounds": run["rounds"],
        "ops_per_round": run["ops_per_round"],
        "setups_s": run["setups_s"],
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail(lat),
        "raw_setups_s": run["raw_setups_s"],
        "raw_op_p50_s": statistics.median(run["raw_latencies"]),
        "raw_op_tail_s": tail(run["raw_latencies"]),
        "failures": run["failures"][:20],
    }
    stored = STATE / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    stored.write_text(json.dumps(detail))
    if traced:
        metrics = per_layer(run, spec["per_layer"], floor, imports)
        untraced = STATE / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["op_p50_s"]
            detail["trace_overhead"] = {
                "op_p50_s_untraced": base,
                "op_p50_s_traced": detail["op_p50_s"],
                "difference_s": detail["op_p50_s"] - base,
            }
        else:
            detail["trace_overhead"] = "no untraced run of this workload and seed stored yet"
    else:
        metrics = end_to_end(run, spec["end_to_end"])
    print(json.dumps(detail))
    failed = len(run["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(lat),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
