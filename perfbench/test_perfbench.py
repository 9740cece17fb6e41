#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from anywhere:

    python3 perfbench/test_perfbench.py

They build the benchmark (through run.py) and make short runs of every
workload, traced and untraced, so they take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EDIT_WORKLOADS = [w for w in WORKLOADS if w.startswith("edit_")]


def run_bench(workload, trace, seconds, *extra, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    info = None
    for line in lines:
        if line.startswith("info "):
            info = json.loads(line[len("info "):])
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc, info, result


class BenchmarkTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            # Edit runs get enough commits (32-64) for a percentile check.
            seconds = 8 if workload in EDIT_WORKLOADS else 2
            for trace in (0, 1):
                proc, info, result = run_bench(workload, trace, seconds)
                if proc.returncode != 0:
                    raise RuntimeError(f"{workload} trace={trace} failed:\n"
                                       f"{proc.stdout[-2000:]}"
                                       f"{proc.stderr[-2000:]}")
                cls.runs[(workload, trace)] = (info, result)

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            for workload in WORKLOADS:
                _, result = self.runs[(workload, trace)]
                got = result["metrics"]
                self.assertEqual(set(got), set(want), (workload, trace))
                for name, unit in want.items():
                    self.assertEqual(got[name]["unit"], unit, name)
                    self.assertIsInstance(got[name]["value"], (int, float),
                                          (workload, name))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            _, result = self.runs[(workload, 0)]
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, (workload, name))

    def test_runs_are_correct_with_no_failed_operation(self):
        for (workload, trace), (info, result) in self.runs.items():
            self.assertTrue(result["correct"], (workload, trace))
            self.assertEqual(result["failed"], 0, (workload, trace))
            self.assertGreater(result["attempted"], 0)
            # Every epoch a reader saw was checked on its own hierarchy.
            self.assertGreater(info["samples_checked"], 0)
            self.assertEqual(info["samples_unverified"], 0)

    def test_busy_threads_stay_below_the_core_count(self):
        cores = len(os.sched_getaffinity(0))
        for (workload, trace), (info, _) in self.runs.items():
            self.assertEqual(info["cores"], cores)
            busy = info["readers"] + info["writer_threads"]
            self.assertLessEqual(busy, max(1, cores - 1), workload)
            # Observed: the busy threads plus the sleeping main thread.
            self.assertLessEqual(info["max_threads"] - 1, max(1, cores - 1),
                                 workload)

    def test_every_reported_commit_has_the_same_op_kinds(self):
        for workload in WORKLOADS:
            out = subprocess.run(
                [BINARY, "--workload", workload, "--seed", "7", "--seconds",
                 "10", "--dump-script"], capture_output=True, text=True,
                check=True).stdout.splitlines()
            kinds = [tuple(sorted(w for w in line.split()[2:]
                                  if w in ("add", "remove"))) for line in out]
            # Commit 0 primes the script (add only) and is never timed.
            self.assertEqual(kinds[0], ("add",))
            self.assertEqual(set(kinds[1:]), {("add", "remove")}, workload)

    def test_commit_percentiles_sit_inside_one_mode(self):
        # A two-mode stream puts the p50 in an empty gap; here the commits
        # around each reported percentile lie within 15% of it.
        for workload in WORKLOADS:
            info, result = self.runs[(workload, 0)]
            commits = info["commit_ms"]
            self.assertGreaterEqual(len(commits), 20)
            for name in ("commit_p50_ms", "commit_p90_ms"):
                p = result["metrics"][name]["value"]
                near = [c for c in commits if abs(c - p) <= 0.15 * p]
                self.assertGreaterEqual(len(near), len(commits) // 10,
                                        (workload, name, p, sorted(commits)))

    def test_service_histograms_agree_with_the_benchmark(self):
        for workload in WORKLOADS:
            _, result = self.runs[(workload, 1)]
            for name in ("obs.read_p99_ratio", "obs.commit_p50_ratio"):
                ratio = result["metrics"][name]["value"]
                self.assertGreater(ratio, 0.5, (workload, name))
                self.assertLess(ratio, 2.0, (workload, name))

    def test_traced_commit_stages_add_up(self):
        for workload in WORKLOADS:
            m = self.runs[(workload, 1)][1]["metrics"]
            stages = sum(m[n]["value"] for n in (
                "commit.apply_edit_ms", "commit.impact_ms",
                "commit.rewarm_ms", "commit.wal_append_ms",
                "commit.other_ms"))
            self.assertAlmostEqual(stages, m["commit.service_ms"]["value"],
                                   delta=1e-6)

    def test_traced_split_matches_the_predictions(self):
        # The forest's tree-local commits are mostly the edit apply; the
        # dense DAG's are mostly the rewarm.
        largest = {"read_forest": "commit.apply_edit_ms",
                   "edit_dense": "commit.rewarm_ms"}
        stages = ("commit.apply_edit_ms", "commit.impact_ms",
                  "commit.rewarm_ms", "commit.wal_append_ms")
        for workload, stage in largest.items():
            m = self.runs[(workload, 1)][1]["metrics"]
            top = max(stages, key=lambda n: m[n]["value"])
            self.assertEqual(top, stage,
                             (workload, {n: m[n]["value"] for n in stages}))


class StandaloneTest(unittest.TestCase):
    def test_injected_corruption_is_counted_as_failed(self):
        proc, _, result = run_bench("read_forest", 0, 1,
                                    "--inject-corruption")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "test-standalone")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            tmp = tempfile.mkdtemp(dir=scratch)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for name in os.listdir(HERE):
                if os.path.isfile(os.path.join(HERE, name)):
                    os.makedirs(os.path.join(tmp, "perfbench"), exist_ok=True)
                    shutil.copy(os.path.join(HERE, name),
                                os.path.join(tmp, "perfbench"))
            proc, _, result = run_bench(
                "read_forest", 0, 1, cwd=tmp,
                script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
