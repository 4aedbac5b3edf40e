#!/usr/bin/env python3
"""Tests of the benchmark's own logic.

    python3 perfbench/test_run.py

The fail-closed test builds the `audit` binary (into $CARGO_TARGET_DIR,
default `.bench_build`) and runs a short `--fast` campaign.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def gen(index, wall, scores=(0.1, 0.09), executed=2):
    return {
        "kind": "generation",
        "index": index,
        "population": [[["Nop", 0, 0, 0, False]]] * len(scores),
        "scores": list(scores),
        "executed": executed,
        "cache_hits": 0,
        "wall_s": wall,
    }


def ndjson(records):
    return "".join(json.dumps(r) + "\n" for r in records)


class PercentileRule(unittest.TestCase):
    def test_p75_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile(list(range(39)), 0.75))
        self.assertEqual(run.percentile(list(range(40)), 0.75), 29)
        self.assertEqual(sum(1 for v in range(40) if v > 29), 10)

    def test_p50_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile(list(range(19)), 0.5))
        self.assertEqual(run.percentile(list(range(20)), 0.5), 9)

    def test_nearest_rank_ignores_input_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(run.percentile(samples, 0.5), 3.0)
        self.assertEqual(run.percentile(samples, 0.75), 4.0)

    def test_empty_has_no_percentile(self):
        self.assertIsNone(run.percentile([], 0.5, min_beyond=0))


class JournalHandling(unittest.TestCase):
    START = {"kind": "run_start", "schema": 1, "mode": "generate", "meta": {"argv": []}}

    def test_wall_s_is_stripped_before_digesting(self):
        a = [self.START, gen(0, 0.25), gen(1, 0.5)]
        b = [self.START, gen(0, 0.75), gen(1, 0.125)]
        self.assertEqual(run.journal_digest(a), run.journal_digest(b))
        self.assertNotIn("wall_s", run.strip_wall(a[1]))
        self.assertEqual(a[1]["wall_s"], 0.25, "stripping must not mutate the record")

    def test_any_other_difference_changes_the_digest(self):
        a = [self.START, gen(0, 0.25)]
        b = [self.START, gen(0, 0.25, scores=(0.1, 0.08))]
        self.assertNotEqual(run.journal_digest(a), run.journal_digest(b))

    def test_parse_reports_the_bad_line(self):
        text = ndjson([self.START]) + '{"kind": "generation", \n'
        with self.assertRaisesRegex(ValueError, "line 2"):
            run.parse_journal(text)

    def test_parse_and_derive(self):
        records = run.parse_journal(
            ndjson([self.START, gen(0, 0.1, scores=(0.05, "-inf")), gen(1, 0.2, scores=(0.07, "-inf"))])
        )
        self.assertEqual(len(run.generations(records)), 2)
        self.assertAlmostEqual(run.best_droop_mv(records), 70.0)

    def test_best_droop_may_come_from_an_earlier_generation(self):
        records = [self.START, gen(0, 0.1, scores=(0.09, 0.05)), gen(1, 0.2, scores=(0.07, "-inf"))]
        self.assertAlmostEqual(run.best_droop_mv(records), 90.0)

    def test_cut_keeps_everything_through_the_last_generation(self):
        body = [self.START, gen(0, 0.1), gen(1, 0.2)]
        text = ndjson(body + [{"kind": "ga_end"}, {"kind": "run_end"}])
        self.assertEqual(run.cut_after_last_generation(text), ndjson(body))

    def test_scrape_and_printed_droop(self):
        s = run.parse_scrape('# c\naudit_workers 2\nx{worker="1"} 3\naudit_results_total 40\n')
        self.assertEqual(s, {"audit_workers": 2.0, "audit_results_total": 40.0})
        self.assertEqual(run.printed_droop_mv("  best droop   : 91.9 mV\n"), (91.9, 1))
        self.assertEqual(
            run.printed_droop_mv("campaign 1 finished: best droop 0.108859 V after 40 generation(s)"),
            (108.859, 3),
        )


class FailsClosed(unittest.TestCase):
    """A resume of a journal with one flipped byte is counted as failed."""

    @classmethod
    def setUpClass(cls):
        target = os.path.abspath(
            os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        )
        cls.audit, _ = run.build(target, trace=False)
        runs = os.path.join(run.ROOT, ".bench_runs")
        os.makedirs(runs, exist_ok=True)
        cls.dir = tempfile.mkdtemp(prefix="test-", dir=runs)
        subprocess.run(
            [cls.audit, "generate", "--fast", "--seed", "3", "--checkpoint", "base.ndjson"],
            cwd=cls.dir, check=True, capture_output=True,
        )
        with open(os.path.join(cls.dir, "base.ndjson")) as f:
            cls.text = f.read()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def resume_with(self, cut):
        args = argparse.Namespace(workload="solo", seed=3, seconds=1, trace=0)
        runner = run.Runner(args, self.audit, tempfile.mkdtemp(dir=self.dir))
        try:
            return runner.resume_failures(self.text, cut)
        finally:
            runner.teardown()

    def test_clean_cut_resumes_to_the_same_journal(self):
        self.assertEqual(self.resume_with(run.cut_after_last_generation(self.text)), [])

    def test_flipped_byte_is_a_failure(self):
        cut = run.cut_after_last_generation(self.text)
        lines = cut.splitlines(keepends=True)
        # Flip one bit inside the last generation's scores: valid JSON
        # that no longer matches the search it claims to record.
        last = lines[-1]
        at = last.index('"scores":[') + len('"scores":[') + 3
        lines[-1] = last[:at] + chr(ord(last[at]) ^ 1) + last[at + 1:]
        self.assertNotEqual(self.resume_with("".join(lines)), [])

    def test_flipped_structural_byte_is_a_failure(self):
        cut = run.cut_after_last_generation(self.text)
        at = len(cut) // 2
        while cut[at] not in "{}[],:":
            at += 1
        self.assertNotEqual(self.resume_with(cut[:at] + chr(ord(cut[at]) ^ 1) + cut[at + 1:]), [])


if __name__ == "__main__":
    unittest.main()
