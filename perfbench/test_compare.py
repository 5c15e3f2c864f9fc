"""Tests of compare.py and of BENCHMARK.json's shape.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import statistics
import tempfile
import unittest
from pathlib import Path

import compare

SPEC = compare.load_spec()


def result(metrics):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {n: {"value": v, "unit": "ms"} for n, v in metrics.items()}}


def run_set(workload, scale=1.0, jobs_scale=1.0, n=10):
    """n runs with a little spread around fixed medians."""
    runs = []
    for i in range(n):
        jitter = 1.0 + 0.01 * (i - n / 2) / n
        runs.append(result({
            "step_ms.seq": 300.0 * scale * jitter,
            "jobs_per_s": 200.0 * jobs_scale * jitter,
            "setup_s": 8.0 * jitter,
        }))
    return {(workload, 0): runs}


class RegressionCheck(unittest.TestCase):
    def test_flags_a_slowed_result_set(self):
        base = run_set("airfoil_720k_aos")
        slowed = run_set("airfoil_720k_aos", scale=1.4)
        found = compare.regressions(base, slowed, SPEC)
        self.assertEqual([(w, m) for w, m, *_ in found], [("airfoil_720k_aos", "step_ms.seq")])
        self.assertAlmostEqual(found[0][4], 0.4, places=6)

    def test_flags_lower_throughput(self):
        found = compare.regressions(run_set("serve_mix"), run_set("serve_mix", jobs_scale=0.6), SPEC)
        self.assertEqual([m for _, m, *_ in found], ["jobs_per_s"])

    def test_flags_a_metric_the_new_set_lacks(self):
        new = run_set("serve_mix")
        for r in new[("serve_mix", 0)]:
            del r["metrics"]["jobs_per_s"]
        self.assertEqual([m for _, m, *_ in compare.regressions(run_set("serve_mix"), new, SPEC)],
                         ["jobs_per_s"])

    def test_passes_unchanged_and_faster_sets(self):
        base = run_set("volna_8k_soa")
        self.assertEqual(compare.regressions(base, run_set("volna_8k_soa"), SPEC), [])
        self.assertEqual(compare.regressions(base, run_set("volna_8k_soa", 0.5, 2.0), SPEC), [])

    def test_check_command_reads_run_files(self):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, scale in (("base", 1.0), ("new", 1.5)):
                p = Path(d) / f"{name}.jsonl"
                with open(p, "w") as f:
                    for seed, r in enumerate(run_set("serve_mix", scale)[("serve_mix", 0)]):
                        f.write(json.dumps({"workload": "serve_mix", "seed": seed,
                                            "trace": 0, "result": r}) + "\n")
                paths.append(p)
            args = type("A", (), {"base": paths[0], "new": paths[1]})
            self.assertEqual(compare.cmd_check(args, SPEC), 1)
            args.new = paths[0]
            self.assertEqual(compare.cmd_check(args, SPEC), 0)


class Spread(unittest.TestCase):
    def test_spread_is_the_quartile_distance_over_the_median(self):
        vs = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 100.0]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        self.assertEqual(compare.summary(vs), (med, q1, q3, (q3 - q1) / med))

    def test_spread_over_bound_is_flagged(self):
        runs = {("w", 0): [result({"step_ms.seq": v, "setup_s": v, "job_p50_ms": 10 + v / 100})
                           for v in (1, 2, 3, 4, 5)]}
        rows = {m: bad for _, m, *_, bad in compare.spreads(runs, SPEC)}
        self.assertTrue(rows["step_ms.seq"])
        self.assertTrue(rows["setup_s"])
        self.assertFalse(rows["job_p50_ms"])


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJson(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [w["name"] for w in SPEC["workloads"]]
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
