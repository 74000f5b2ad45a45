"""Tests of the benchmark's output checks.

    python3 -m unittest bench/test_checks.py

A right output passes its check; a corrupted value, a wrong exit code, a
missing attained element and a witness polynomial of the wrong value are
each counted as one failed operation.
"""

import copy
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

worker.import_skpval()

from skpval import GroupValue  # noqa: E402


def failed(name, ctx, ops, outs, previous=None):
    return worker.check_pass(WORKLOADS[name], ctx, ops, outs, previous)[0]


class ValueChecks(unittest.TestCase):
    def setUp(self):
        self.ctx = WORKLOADS["adic_values"].setup()
        self.ops = WORKLOADS["adic_values"].inputs(self.ctx, 1)
        self.outs = [GroupValue([Fraction(c) for c in op.expected]) for op in self.ops]

    def test_reference_values_pass(self):
        self.assertEqual(failed("adic_values", self.ctx, self.ops, self.outs), 0)

    def test_corrupted_value_fails(self):
        outs = list(self.outs)
        outs[3] = outs[3] + GroupValue([1] * outs[3].dim)
        self.assertEqual(failed("adic_values", self.ctx, self.ops, outs), 1)

    def test_exception_fails(self):
        outs = list(self.outs)
        outs[0] = ZeroDivisionError("boom")
        self.assertEqual(failed("adic_values", self.ctx, self.ops, outs), 1)


class CliChecks(unittest.TestCase):
    def setUp(self):
        w = WORKLOADS["cli_corpus"]
        self.ctx = w.setup()
        self.ops = w.inputs(self.ctx, 2)
        self.outs = [w.run(self.ctx, op) for op in self.ops]

    def test_only_the_known_fault_fails(self):
        n_failed, unexpected = worker.check_pass(
            WORKLOADS["cli_corpus"], self.ctx, self.ops, self.outs, self.outs
        )
        self.assertEqual(unexpected, [])
        self.assertEqual(n_failed, sum(op.known_fault for op in self.ops))

    def test_wrong_exit_code_fails(self):
        k = next(i for i, op in enumerate(self.ops) if not op.known_fault)
        outs = list(self.outs)
        code, text = outs[k]
        outs[k] = (1 if code != 1 else 0, text)
        base = failed("cli_corpus", self.ctx, self.ops, self.outs)
        self.assertEqual(failed("cli_corpus", self.ctx, self.ops, outs), base + 1)

    def test_changed_bytes_fail(self):
        k = next(i for i, op in enumerate(self.ops) if not op.known_fault)
        previous = list(self.outs)
        previous[k] = (previous[k][0], previous[k][1].replace("\n", "\n ", 1))
        base = failed("cli_corpus", self.ctx, self.ops, self.outs)
        self.assertEqual(failed("cli_corpus", self.ctx, self.ops, self.outs, previous), base + 1)

    def test_wrong_eval_value_fails(self):
        k = next(i for i, op in enumerate(self.ops)
                 if op.expected and op.expected[1] and op.expected[1][0] == "example2.json")
        outs = list(self.outs)
        code, text = outs[k]
        outs[k] = (code, text.replace('"value": [\n      "', '"value": [\n      "1'))
        self.assertNotEqual(outs[k][1], text)
        base = failed("cli_corpus", self.ctx, self.ops, self.outs)
        self.assertEqual(failed("cli_corpus", self.ctx, self.ops, outs), base + 1)


class RealizeChecks(unittest.TestCase):
    def setUp(self):
        w = WORKLOADS["realize_verify"]
        self.ctx = w.setup()
        self.ops = [op for op in w.inputs(self.ctx, 3) if op.name == "4,6,13"]
        self.outs = [w.run(self.ctx, op) for op in self.ops]

    def test_right_result_passes(self):
        self.assertEqual(failed("realize_verify", self.ctx, self.ops, self.outs), 0)

    def test_missing_attained_element_fails(self):
        report, verdict, valuation = self.outs[0]
        verdict = copy.copy(verdict)
        verdict.attainment = verdict.attainment[:-1]
        outs = [(report, verdict, valuation)]
        self.assertEqual(failed("realize_verify", self.ctx, self.ops, outs), 1)

    def test_wrong_witness_fails(self):
        report, verdict, valuation = self.outs[0]
        verdict = copy.copy(verdict)
        gamma, witness, text = verdict.attainment[-1]
        verdict.attainment = verdict.attainment[:-1] + [(gamma, (0,) * len(witness), text)]
        outs = [(report, verdict, valuation)]
        self.assertEqual(failed("realize_verify", self.ctx, self.ops, outs), 1)

    def test_witness_polynomial_of_wrong_value_fails(self):
        report, verdict, valuation = self.outs[0]
        verdict = copy.copy(verdict)
        gamma, witness, _ = verdict.attainment[-1]
        other_text = verdict.attainment[1][2]
        verdict.attainment = verdict.attainment[:-1] + [(gamma, witness, other_text)]
        outs = [(report, verdict, valuation)]
        self.assertEqual(failed("realize_verify", self.ctx, self.ops, outs), 1)

    def test_wrong_rank_fails(self):
        report, verdict, valuation = self.outs[0]
        report = dict(report, r_rk=report["r_rk"] + 1)
        outs = [(report, verdict, valuation)]
        self.assertEqual(failed("realize_verify", self.ctx, self.ops, outs), 1)


if __name__ == "__main__":
    unittest.main()
