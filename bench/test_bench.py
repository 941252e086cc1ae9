"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

sys.path.insert(0, str(run.SRC))
import misr  # noqa: E402
import misr.cli  # noqa: E402

WORKLOADS = W.workloads(str(run.SRC / "misr" / "data"))
MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_deck(wl, seed: int) -> list:
    return wl.deck(Random(seed), rounds=1)


def one_pass(wl, deck, traced: bool):
    import fixtures

    objs = fixtures.build(misr, wl.fixtures(deck))
    tracer = run.Tracer() if traced else None
    first: dict = {}
    phase = run.run_phase(wl, run.library(misr, tracer), objs, deck, first, 0, len(deck), tracer)
    return objs, first, phase, tracer


class DeckTests(unittest.TestCase):
    def test_same_seed_gives_same_operations(self):
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(small_deck(wl, 7), small_deck(wl, 7))
                self.assertNotEqual(small_deck(wl, 7), small_deck(wl, 8))

    def test_workloads_match_manifest(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in MANIFEST["workloads"]))

    def test_traced_run_replays_the_deck_in_order(self):
        wl = WORKLOADS["cli"]
        deck = small_deck(wl, 3)
        *_, tracer = one_pass(wl, deck, traced=True)
        kinds = [sp[5]["kind"] for sp in tracer.spans if sp[0] == "op"]
        self.assertEqual(kinds, [op.kind for op in deck])


class OracleTests(unittest.TestCase):
    def test_outputs_check_correct_except_named_defects(self):
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                deck = small_deck(wl, 11)
                objs, first, phase, _ = one_pass(wl, deck, traced=False)
                attempted, failed, correct, by_kind = run.verdicts(wl, objs, deck, first, [phase])
                self.assertEqual(attempted, len(deck))
                self.assertTrue(correct, by_kind)
                for kind, entry in by_kind.items():
                    self.assertTrue(entry["defect"], (kind, entry))

    def test_attempted_and_failed_do_not_depend_on_run_length(self):
        # an operation is a deck entry, however often a run repeats it
        wl = WORKLOADS["cli"]
        deck = small_deck(wl, 11)
        import fixtures

        objs = fixtures.build(misr, wl.fixtures(deck))
        counts = []
        for passes in (1, 2):
            first: dict = {}
            phase = run.run_phase(wl, run.library(misr), objs, deck, first, 0, passes * len(deck))
            counts.append(run.verdicts(wl, objs, deck, first, [phase])[:2])
            self.assertEqual(len(run.entry_latencies(deck, phase)), len(deck))
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0], (len(deck), sum(op.defect for op in deck)))

    def test_wrong_answers_are_caught(self):
        word, cli, models, spectrum = (WORKLOADS[n] for n in ("word", "cli", "models", "spectrum"))
        deck = small_deck(word, 1)
        anti = next(op for op in deck if op.kind == "antichain.k6")
        self.assertIsNotNone(word.check(anti, anti.ref.replace("+", "+x1*", 1), {}))
        term = next(op for op in deck if op.kind == "term")
        right = misr.rep_text(misr.normalize(misr.parse(term.args[0])))
        self.assertIsNone(word.check(term, right, {}))
        self.assertIsNotNone(word.check(term, right + "+1+1+1", {}))
        pair = next(op for op in deck if op.kind == "pair")
        self.assertIsNotNone(word.check(pair, not O.t3_equal(*pair.ref), {}))

        bad = next(op for op in small_deck(cli, 1) if op.ref[0] == "error")
        self.assertIsNotNone(cli.check(bad, (0, "", ""), {}))
        si = next(op for op in small_deck(cli, 1) if op.kind == "si.t3")
        self.assertIsNotNone(cli.check(si, (0, "subdirectly irreducible; monolith: {0,a},{1}\n", ""), {}))

        mdeck = small_deck(models, 1)
        objs, first, _, _ = one_pass(models, mdeck, traced=False)
        for j, op in enumerate(mdeck):
            out = first[j]
            if op.args[0] == "holds" and not out[0]:
                self.assertIsNotNone(models.check(op, (True, None), objs))
            if op.args[0] == "si":
                self.assertIsNotNone(models.check(op, (not out[0], out[1]), objs))

        clone = next(op for op in small_deck(spectrum, 1) if op.args[0] == "clone")
        self.assertIsNotNone(spectrum.check(clone, clone.ref + 1, {}))

    def test_clone_counts_match_an_independent_closure(self):
        for name, counts in O.CLONE_COUNTS.items():
            with self.subTest(model=name):
                self.assertEqual(tuple(O.clone_size(O.BUILTINS[name], n) for n in range(4)), counts)

    def test_own_models_match_the_program_labels(self):
        for k in range(1, 5):
            self.assertEqual(O.lplus1_model(k).elements, misr.lplus1(misr.boolean_lattice(k)).elements)
        prod = misr.direct_product(misr.builtin("two"), misr.builtin("t3"))
        self.assertEqual(O.product_model(O.TWO, O.T3).elements, prod.elements)


class TraceTests(unittest.TestCase):
    def test_two_traced_runs_report_identical_counts(self):
        count_metrics = list(run.LAYER_COUNTS) + list(run.LAYER_RATIOS)
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                deck = small_deck(wl, 5)
                runs = []
                for _ in range(2):
                    *_, tracer = one_pass(wl, deck, traced=True)
                    metrics = run.layer_metrics(tracer.spans, len(deck), name == "cli")
                    runs.append({m: metrics[m] for m in count_metrics})
                self.assertEqual(runs[0], runs[1])
                self.assertTrue(any(runs[0].values()))

    def test_layer_metrics_match_manifest(self):
        names = set(run.layer_metrics([], 1, False))
        names |= {"misr.import.s", "algebras.build.s", "trace.ops_per_s", "trace.overhead_ops_per_s"}
        self.assertEqual(names, {m["name"] for m in MANIFEST["per_layer"]})


class CommandTests(unittest.TestCase):
    def bench(self, root: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "bench/run.py", *args], cwd=root, capture_output=True, text=True, timeout=170
        )

    def test_result_line(self):
        proc = self.bench(run.ROOT, "--workload", "spectrum", "--seed", "2", "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in MANIFEST["end_to_end"]})

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.bench(Path(tmp), "--workload", "word", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
