"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import tempfile
import time
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tvcsp as t  # noqa: E402
from tvcsp import classify, files, solvers  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from procs import RungRunner, run_child  # noqa: E402


class ChildTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_over_budget_child_is_killed_and_reaped(self):
        start = time.perf_counter()
        res = run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                        0.3, self.dir / "log")
        self.assertLess(time.perf_counter() - start, 5.0)
        self.assertEqual(res.outcome, "over_budget")
        self.assertGreaterEqual(res.wall_s, 0.3)

    def test_exit_codes_map_to_outcomes(self):
        for code, outcome in ((0, "answered"), (1, "rejected"),
                              (2, "input_error"), (3, "capped"),
                              (7, "crashed")):
            res = run_child([sys.executable, "-c",
                             f"import sys; sys.exit({code})"], 10.0,
                            self.dir / "log")
            self.assertEqual(res.outcome, outcome)

    def test_wrong_answer_is_a_failure(self):
        rung = workloads.ladder(0)["const"][0]
        runner = RungRunner(self.dir)
        good = runner.run(rung, traced=False)
        self.assertTrue(good.answered, good.problem)
        bad = replace(rung, route="const-wrong", optimum=rung.optimum + 1)
        res = runner.run(bad, traced=False)
        self.assertEqual(res.child.outcome, "answered")
        self.assertFalse(res.answered)
        self.assertTrue(res.wrong)

    def test_climb_stops_at_cap_without_counting_it_wrong(self):
        rungs = workloads.ladder(0)["essCrisp-min"][:4]
        run = bench.Run()
        bench.climb(RungRunner(self.dir), rungs, False, run)
        self.assertEqual([r.child.outcome for r in run.rungs],
                         ["answered", "answered", "capped"])
        self.assertFalse(any(r.wrong for r in run.rungs))
        self.assertEqual(bench.ladder_metrics(run)["max_n.essCrisp-min"], 8)

    def test_over_budget_rung_ends_the_climb_as_a_failure(self):
        rungs = workloads.ladder(0)["oracle"]
        run = bench.Run()
        bench.climb(RungRunner(self.dir, budget_s=0.01), rungs, False, run)
        self.assertEqual([r.child.outcome for r in run.rungs],
                         ["over_budget"])
        self.assertFalse(run.rungs[0].answered)
        self.assertEqual(bench.ladder_metrics(run)["max_n.oracle"], 0)

    def test_traced_child_reports_spans(self):
        rung = workloads.ladder(0)["lex"][0]
        res = RungRunner(self.dir).run(rung, traced=True)
        self.assertTrue(res.answered, res.problem)
        names = {s[0] for s in res.spans}
        self.assertIn("cli.main", names)
        self.assertIn("cspengine.forced_equalities", names)
        self.assertGreater(res.main_s, 0)
        self.assertGreater(res.peak_rss_mb, 0)


class LadderConstructionTests(unittest.TestCase):
    def test_optimum_by_construction_matches_oracle(self):
        for route, rungs in workloads.ladder(3).items():
            for rung in rungs:
                if rung.n > 7:
                    continue
                s = files.parse_structure(rung.structure_text)
                inst = files.parse_instance(rung.instance_text, s)
                ref = solvers.solve_oracle(s, inst, cap=rung.n)
                self.assertTrue(checks.cost_equals(ref.optimal_cost,
                                                   rung.optimum), route)
                out, _ = solvers.solve_dispatch(s, inst)
                self.assertEqual(out.method, rung.method, route)

    def test_dispatch_pool_verdicts(self):
        for tmpl in workloads.dispatch_pool():
            s = tmpl.structure
            v = classify.classify_equality(s) if s.equality_invariant \
                else classify.classify_temporal(s)
            self.assertEqual(v.case, tmpl.case, tmpl.name)
            self.assertEqual(v.witness.tag if v.witness else None,
                             tmpl.witness, tmpl.name)


class CheckTests(unittest.TestCase):
    def test_bruteforce_references(self):
        s, inst, _ = files.gen_feedback_arc_set(
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")])
        self.assertEqual(checks.fas_bruteforce(inst), 1)
        cc = t.Instance.from_atoms([("eq01", ("a", "b")),
                                    ("eq01", ("b", "c")),
                                    ("neq01", ("a", "c"))])
        self.assertEqual(checks.cc_bruteforce(cc), 1)
        self.assertEqual(len(list(checks.set_partitions(list("abcde")))), 52)

    def test_oracle_hard_stream_matches_bruteforce(self):
        stream = workloads.OracleStream(5)
        for _ in range(2):
            req = stream.next()
            ans = bench.solve_request(req)
            _, inst = bench.parsed(req)
            exact = checks.expected_exact(req.kind, inst)
            self.assertTrue(checks.cost_equals(ans.cost, exact))

    def test_argmin_check_catches_a_wrong_cost(self):
        rung = workloads.ladder(0)["eqInj"][0]
        s = files.parse_structure(rung.structure_text)
        inst = files.parse_instance(rung.instance_text, s)
        out, _ = solvers.solve_dispatch(s, inst)
        self.assertIsNone(checks.argmin_cost(s, inst, out.optimal_cost,
                                             out.argmin))
        self.assertIsNotNone(checks.argmin_cost(
            s, inst, out.optimal_cost + t.Cost(1), out.argmin))


class TracerTests(unittest.TestCase):
    def test_install_patches_importers_and_uninstall_restores(self):
        original = solvers.classify_temporal
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(solvers.classify_temporal, original)
            self.assertIs(solvers.classify_temporal,
                          classify.classify_temporal)
            s = t.ValuedStructure([t.named_relation("ltInf")])
            inst = t.Instance.from_atoms([("ltInf", ("x", "y"))])
            solvers.solve_dispatch(s, inst)
        finally:
            tr.uninstall()
        self.assertIs(solvers.classify_temporal, original)
        names = [span[0] for span in tr.spans]
        self.assertIn("classify.classify_temporal", names)
        dispatch = names.index("solvers.solve_dispatch")
        parent = tr.spans[names.index("classify.classify_temporal")][3]
        self.assertEqual(parent, dispatch)

    def test_self_time_subtracts_children(self):
        spans = [("solvers.solve_dispatch", 0.0, 1.0, -1, 0, 0),
                 ("classify.classify_temporal", 0.1, 0.4, 0, 0, 0),
                 ("solvers.solve_oracle", 0.5, 0.9, 0, 0, 3)]
        agg = tracer.aggregate(spans, 1)
        self.assertAlmostEqual(agg["solvers.solve_dispatch.self_ms"], 300.0)
        self.assertAlmostEqual(agg["classify.share_of_dispatch"], 0.3)
        self.assertAlmostEqual(agg["solvers.oracle.orders_per_s"], 13 / 0.4)

    def test_ordered_bell(self):
        self.assertEqual([tracer.ordered_bell(k) for k in range(7)],
                         [1, 1, 3, 13, 75, 541, 4683])


class MetricTests(unittest.TestCase):
    def test_tail_keeps_ten_samples_above(self):
        values = [float(i) for i in range(1000)]
        value, pct = bench.tail(values)
        self.assertEqual(pct, 99)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertEqual(bench.tail(values[:100])[1], 90)
        self.assertEqual(bench.tail(values[:12])[1], 50)

    def test_same_seed_same_inputs(self):
        pool = workloads.dispatch_pool()
        a = workloads.DispatchStream(9, pool)
        b = workloads.DispatchStream(9, pool)
        self.assertEqual([a.next() for _ in range(20)],
                         [b.next() for _ in range(20)])
        self.assertEqual(workloads.ladder(4), workloads.ladder(4))
        self.assertNotEqual(workloads.ladder(4), workloads.ladder(5))


if __name__ == "__main__":
    unittest.main()
