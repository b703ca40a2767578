"""The benchmark's own test.

    python3 bench/test_bench.py

Two traced runs with the same seed must give exactly the same per-layer
counts (``*.calls``, ``*.misses`` and the ratios): these are the only
per-layer numbers a change may cite as counts.  Also checks that every
declared metric is printed with its unit and that the benchmark refuses to
run without the program's sources.  Each run is one round (``--seconds 1``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".misses", "_ratio")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_traced_counts_repeat(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                first, second = (result(bench(w["name"], 7, 1)) for _ in range(2))
                for r in (first, second):
                    self.assertTrue(r["correct"])
                    self.assertEqual(list(r["metrics"]), names)
                counts = [
                    {k: v for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                    for r in (first, second)
                ]
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(first["attempted"], second["attempted"])

    def test_untraced_metrics(self):
        spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                r = result(bench(w["name"], 3, 0))
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, spec)
                self.assertTrue(all(v["value"] > 0 for v in r["metrics"].values()))

    def test_refuses_checkout_without_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            for w in SPEC["workloads"]:
                done = bench(w["name"], 1, 0, cwd=Path(tmp))
                self.assertNotEqual(done.returncode, 0)
                self.assertFalse(done.stdout.strip().endswith("}"))


if __name__ == "__main__":
    unittest.main()
