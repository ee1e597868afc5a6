"""Tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest bench`` or
``python3 -m unittest discover -s bench``.
"""

import gzip
import json
import math
import os
import random
import statistics
import tempfile
import threading
import types
import unittest
from fractions import Fraction

import binomial
from tracer import NO_PARENT, Tracer, percentile, union_length


def _set_times(tracer, index, start, end):
    tracer.start[index] = start
    tracer.end[index] = end


class PercentileTest(unittest.TestCase):
    def test_matches_inclusive_quantiles(self):
        rng = random.Random(7)
        for size in (2, 3, 10, 101, 1000):
            values = [rng.random() for _ in range(size)]
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            for p in (10, 50, 90, 99):
                self.assertAlmostEqual(percentile(values, p), cuts[p - 1], places=12)

    def test_edges(self):
        self.assertEqual(percentile([4.0], 90), 4.0)
        self.assertEqual(percentile([3, 1, 2], 0), 1)
        self.assertEqual(percentile([3, 1, 2], 100), 3)
        self.assertEqual(percentile([1, 2, 3, 4], 50), 2.5)
        with self.assertRaises(ValueError):
            percentile([], 50)


class UnionTest(unittest.TestCase):
    def test_overlapping_intervals_count_once(self):
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(union_length([(1, 3), (0, 4), (2, 2.5)]), 4)
        self.assertEqual(union_length([]), 0)

    def test_clipped_to_window(self):
        self.assertEqual(union_length([(-1, 1), (3, 9)], lo=0, hi=4), 2)
        self.assertEqual(union_length([(5, 6)], lo=0, hi=4), 0)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_union_of_overlapping_children(self):
        # One audit from 0 to 10 ms; four prover queries overlap on pool
        # threads between 1 and 6 ms, then verification from 7 to 8 ms.
        tracer = Tracer()
        audit = tracer.span("transport.run_verifier_client")
        with audit:
            kids = []
            for _ in range(4):
                with tracer.span("transport.query_prover") as q:
                    kids.append(q.index)
            with tracer.span("protocol.multi_rs_verify") as v:
                pass
        _set_times(tracer, audit.index, 0.0, 10.0)
        for index, (start, end) in zip(kids, [(1, 4), (1.5, 5), (2, 6), (1, 3)]):
            _set_times(tracer, index, start, end)
        _set_times(tracer, v.index, 7.0, 8.0)
        children = tracer.children()
        self.assertEqual(tracer.self_time(audit.index, children), 10 - 5 - 1)
        self.assertEqual(
            tracer.self_time(audit.index, children, ["transport.query_prover"]), 10 - 5)
        # a plain sum of child durations would give 10 - 12.5 - 1 < 0
        self.assertGreater(tracer.self_time(audit.index, children), 0)


class ParentLinkTest(unittest.TestCase):
    def test_pool_thread_spans_attach_to_the_origin_span(self):
        tracer = Tracer()
        inner = {}

        def worker(slot):
            with tracer.span("transport.query_prover") as q:
                with tracer.span("inner") as nested:
                    pass
            inner[slot] = (q.index, nested.index)

        with tracer.span("transport.run_verifier_client") as audit:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                self.assertFalse(t.is_alive())
        for query, nested in inner.values():
            self.assertEqual(tracer.parent[query], audit.index)
            self.assertEqual(tracer.parent[nested], query)
        self.assertEqual(tracer.parent[audit.index], NO_PARENT)
        self.assertEqual(sorted(tracer.children()[audit.index]),
                         sorted(q for q, _ in inner.values()))

    def test_operation_id_is_recorded(self):
        tracer = Tracer()
        tracer.current_op = 41
        with tracer.span("a") as a:
            pass
        self.assertEqual(tracer.op[a.index], 41)


class DumpTest(unittest.TestCase):
    def test_dump_round_trips_every_column(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.json.gz")
            tracer.dump(path, {"workload": "w"})
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                record = json.load(fh)
        self.assertEqual(record["workload"], "w")
        self.assertEqual(record["names"], ["outer", "inner"])
        self.assertEqual(record["parent"], [NO_PARENT, 0])
        self.assertEqual(record["start"], tracer.start.tolist())


class WrapTest(unittest.TestCase):
    def test_wrap_records_and_uninstall_restores(self):
        module = types.SimpleNamespace(__name__="fake", double=lambda v: 2 * v)
        original = module.double
        seen = []
        tracer = Tracer()
        tracer.wrap(module, "double", "fake.double",
                    on_result=lambda args, kwargs, result: seen.append(result))
        self.assertEqual(module.double(21), 42)
        self.assertEqual(seen, [42])
        self.assertEqual(len(tracer.by_name()["fake.double"]), 1)
        tracer.uninstall()
        self.assertIs(module.double, original)

    def test_missing_name_is_absent_not_an_error(self):
        module = types.SimpleNamespace(__name__="fake")
        tracer = Tracer()
        tracer.wrap(module, "encode", "codes.encode")
        tracer.wrap(module, "encode", "codes.encode")
        self.assertEqual(tracer.absent, ["fake.encode"])
        self.assertEqual(tracer.by_name(), {})

    def test_span_closes_when_the_call_raises(self):
        def boom():
            raise KeyError("x")

        module = types.SimpleNamespace(__name__="fake", boom=boom)
        tracer = Tracer()
        tracer.wrap(module, "boom", "fake.boom")
        with self.assertRaises(KeyError):
            module.boom()
        (index,) = tracer.by_name()["fake.boom"]
        self.assertGreaterEqual(tracer.end[index], tracer.start[index])
        with tracer.span("after") as after:
            pass
        self.assertEqual(tracer.parent[after.index], NO_PARENT)


class BinomialTest(unittest.TestCase):
    def test_tail_matches_direct_sum(self):
        n, p = 40, 0.3
        pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        self.assertAlmostEqual(binomial.tail(20, n, p), sum(pmf[20:]), places=12)
        self.assertAlmostEqual(binomial.tail(5, n, p), sum(pmf[:6]), places=12)

    def test_small_expected_count(self):
        # 0.49 expected passes: four is unusual (p about 0.0016), not a
        # 5-sigma event; the normal approximation would reject it.
        rate = Fraction(1, 4099)
        self.assertTrue(binomial.consistent(4, 2000, rate))
        self.assertTrue(binomial.consistent(0, 2000, rate))
        self.assertFalse(binomial.consistent(12, 2000, rate))

    def test_large_counts_agree_with_five_sigma(self):
        n, p = 100_000, 0.25
        sigma = math.sqrt(n * p * (1 - p))
        self.assertTrue(binomial.consistent(round(n * p + 4.5 * sigma), n, p))
        self.assertFalse(binomial.consistent(round(n * p + 5.5 * sigma), n, p))
        self.assertTrue(binomial.consistent(round(n * p - 4.5 * sigma), n, p))
        self.assertFalse(binomial.consistent(round(n * p - 5.5 * sigma), n, p))

    def test_degenerate_rates(self):
        self.assertTrue(binomial.consistent(0, 10, 0))
        self.assertFalse(binomial.consistent(1, 10, 0))
        self.assertTrue(binomial.consistent(10, 10, 1))
        self.assertFalse(binomial.consistent(9, 10, 1))


if __name__ == "__main__":
    unittest.main()
