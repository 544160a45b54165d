"""Unit tests of the benchmark's own arithmetic and input generation.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of the checkout. The serve-input test needs the probe
built (`dune build ./perfbench/probe/probe.exe`) and is skipped otherwise.
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
import run  # noqa: E402

# The exit statistics of an `ssdep serve` daemon, as OCAMLRUNPARAM=v=0x400
# prints them on stderr after "drained, shutting down" went to stdout.
EXIT_STATS = """\
allocated_words: 318631473
minor_words: 258675014
promoted_words: 1614607
major_words: 61571066
minor_collections: 659
major_collections: 159
forced_major_collections: 0
heap_words: 2154593
top_heap_words: 2154593
mean_space_overhead: 50.008998
"""

GRID_OUTPUT = """\
16327 candidates, 7 feasible, 28 on the Pareto frontier
  snap/2h x2, backup/34h, vault/1wk out $0.95M    worst RT 25.8 hr   worst DL 9.2 d      total $13.34M
  asyncB mirror x2                 out $1.57M    worst RT 10.5 hr   worst DL 2.0 min    total $2.09M
best: asyncB mirror x2                 out $1.57M    worst RT 10.5 hr   worst DL 2.0 min    total $2.09M
"""


class Percentiles(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(benchlib.tail(values), ("p99", 990, 1000))
        self.assertEqual(sum(v > 990 for v in values), 10)

    def test_too_few_samples_fall_back_to_p90(self):
        values = list(range(1, 1000))
        self.assertEqual(benchlib.tail(values), ("p90", 900, 999))
        # Twelve runs: the second slowest, not the lone worst case.
        self.assertEqual(benchlib.tail(list(range(1, 13))), ("p90", 11, 12))
        self.assertEqual(benchlib.tail([3.0, 1.0, 2.0]), ("p90", 3.0, 3))
        self.assertEqual(benchlib.tail([5.0]), ("p90", 5.0, 1))

    def test_highest_resolved_percentile(self):
        self.assertEqual(benchlib.highest_resolved_percentile(1000), 99.0)
        self.assertEqual(benchlib.highest_resolved_percentile(20), 50.0)
        self.assertIsNone(benchlib.highest_resolved_percentile(10))

    def test_nearest_rank(self):
        self.assertEqual(benchlib.percentile([5, 1, 4, 2, 3], 0.5), 3)
        self.assertEqual(benchlib.percentile([5, 1, 4, 2, 3], 1.0), 5)
        self.assertEqual(benchlib.percentile([7], 0.99), 7)


class ExitStats(unittest.TestCase):
    def test_parses_captured_sample(self):
        stats = benchlib.parse_exit_stats(EXIT_STATS)
        self.assertEqual(stats["top_heap_words"], 2154593)
        self.assertEqual(stats["minor_collections"], 659)
        self.assertEqual(stats["mean_space_overhead"], 50.008998)
        self.assertAlmostEqual(benchlib.heap_mib(stats), 2154593 * 8 / 2**20)

    def test_ignores_other_lines(self):
        stats = benchlib.parse_exit_stats(
            "drained, shutting down\nprobe: note: x\n" + EXIT_STATS)
        self.assertEqual(len(stats), 10)


class Calibration(unittest.TestCase):
    def test_a_slow_machine_is_scaled_back_to_the_reference(self):
        # The kernel ran 25 % slow around the work: its 1.25 s of wall time
        # is 1 s at reference speed.
        self.assertAlmostEqual(
            1.25 * benchlib.speed_factor(0.1, 0.12, 0.13), 1.0)

    def test_reference_speed_leaves_times_alone(self):
        self.assertEqual(benchlib.speed_factor(0.1, 0.1, 0.1), 1.0)


class Closure(unittest.TestCase):
    def test_layers_that_cover_the_wall_time_close(self):
        self.assertAlmostEqual(benchlib.closure([0.25, 0.5, 0.25], 1.0), 1.0)

    def test_a_missing_layer_shows_as_a_gap(self):
        self.assertAlmostEqual(benchlib.closure([0.25, 0.5], 1.0), 0.75)


class GridOutput(unittest.TestCase):
    def test_parses_counts_and_winner(self):
        self.assertEqual(
            run.parse_grid_output(GRID_OUTPUT),
            {"considered": 16327, "feasible": 7, "best": "asyncB mirror x2"})

    def test_rejects_other_output(self):
        with self.assertRaises(ValueError):
            run.parse_grid_output("no candidates here\n")


class Seeds(unittest.TestCase):
    def test_one_seed_regenerates_the_same_inputs(self):
        self.assertEqual(run.grid_inputs(7), run.grid_inputs(7))
        self.assertNotEqual(run.grid_inputs(7), run.grid_inputs(8))
        for w in run.FLEET:
            self.assertEqual(run.fleet_inputs(w, 7, 15), run.fleet_inputs(w, 7, 15))
            self.assertNotEqual(run.fleet_inputs(w, 7, 15), run.fleet_inputs(w, 8, 15))

    def test_schedule_is_seeded_and_never_repeats_a_cold_body(self):
        def schedule(seed):
            return benchlib.request_schedule(
                benchlib.rng("serve-schedule", seed), 10, 50, 5000, 0.05)
        self.assertEqual(schedule(3), schedule(3))
        self.assertNotEqual(schedule(3), schedule(4))
        cold = [i for i in schedule(3) if i >= 10]
        self.assertEqual(len(cold), len(set(cold)))
        self.assertEqual(len(cold), 50)

    @unittest.skipUnless(os.path.exists(run.PROBE), "probe not built")
    def test_serve_inputs_are_seeded(self):
        a = run.serve_inputs(5, 1)
        self.assertEqual(a, run.serve_inputs(5, 1))
        self.assertNotEqual(a[2], run.serve_inputs(6, 1)[2])


if __name__ == "__main__":
    unittest.main()
