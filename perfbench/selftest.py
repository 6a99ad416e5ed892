"""Tests of the benchmark itself (not collected by the repository's pytest run).

    python3 perfbench/selftest.py

They check that the tracer reaches every reference to a wrapped function,
that each function the per-layer metrics name is called on the workload
that is meant to call it, that the output checks reject wrong answers, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import exact  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

# function -> the workload whose requests are known to call it
CALLED_ON = {
    "verify-interlace": (
        "polynomial.mul", "polynomial.divmod", "polynomial.gcd",
        "roots.is_real_rooted", "roots.count_roots", "roots.isolate_roots",
        "roots.yun_decomposition", "roots.squarefree_part",
        "interlacing.interlaces", "interlacing.merged_profile", "interlacing.chain_check",
        "transforms.diamond", "posets.e_polynomial", "posets.sp_build", "posets.delete_element",
        "generators.random_interlacing_pair", "generators.random_sp_expression",
        *(f"suites.{name}" for name in wl.INTERLACE_SUITES),
    ),
    "verify-decide": (
        "roots.roots_in_interval", "transforms.diamond", "transforms.alt_diamond",
        "posets.e_operator", "posets.e_inverse",
        "ferrers.verify_cover_interlacing", "ferrers.ferrers_e_poly",
        "generators.all_posets_on", "generators.all_labellings",
        *(f"suites.{name}" for name in wl.DECIDE_SUITES),
    ),
    "poset-cli": (
        "cli.main", "posets.e_polynomial", "posets.sp_build", "posets.poset_from_json_dict",
    ),
    "locate": (
        "cli.main", "roots.isolate_roots", "interlacing.alternates", "interlacing.merged_profile",
    ),
}
SMALL_MAX_N = {"ferrers": 3, "ns-small": 3}


def small_rounds(lib, workload: str) -> list[list[wl.Request]]:
    """A few requests of each workload, cut down to run in seconds."""
    if workload.startswith("verify"):
        return wl.WORKLOADS[workload].build(lib, 7)
    rounds = wl.WORKLOADS[workload].build(lib, 7)
    if workload == "poset-cli":
        return [poset_forms(rounds[0])]
    n = len(wl.LOCATE_DEGREES)  # isolations come first, then pairs
    return [[rounds[0][0], *rounds[0][n : n + 2]]]


def poset_forms(batch: list[wl.Request]) -> list[wl.Request]:
    """The DSL and the JSON request of the first poset in `batch`."""
    tree = batch[0].expect
    dsl = next(r for r in batch if r.expect == tree and not r.args[2].startswith("{"))
    doc = next(r for r in batch if r.expect == tree and r.args[2].startswith("{"))
    return [dsl, doc]


class SmallSuites:
    """Stands in for `lib` so suite requests run at a few samples each."""

    def __init__(self, lib):
        self.lib = lib

    def __getattr__(self, name):
        return getattr(self.lib, name)

    @property
    def suites(self):
        lib = self.lib

        class Runner:
            @staticmethod
            def run_suite(name, seed):
                if name in SMALL_MAX_N:
                    return lib.suites.run_suite(name, max_n=SMALL_MAX_N[name], seed=seed)
                return lib.suites.run_suite(name, samples=4, seed=seed)

        return Runner


class Liar(spans.Tracer):
    """Patches `interlaces` to answer yes to everything."""

    def wrap(self, name, fn):
        if name != "interlacing.interlaces":
            return fn

        def always_yes(*args, **kwargs):
            return True

        always_yes.__module__ = fn.__module__
        return always_yes


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.lib = run.load_library()
        self.tracer = spans.Tracer()

    def tearDown(self):
        self.tracer.uninstall()

    def test_patches_closures_and_imported_names(self):
        lib = self.lib
        closure = lib.suites.SUITES["alt-product"][0]
        original_ids = (id(lib.interlacing.isolate_roots), id(closure.__closure__[0].cell_contents))
        self.tracer.install(lib.modules)
        for fn in (
            lib.interlacing.isolate_roots,
            lib.transforms.interlaces,
            lib.ferrers.diamond,
            lib.suites.gcd,
            lib.package.e_polynomial,
            lib.polynomial.Polynomial.__rmul__,
            closure.__closure__[0].cell_contents,
            lib.suites.SUITES["alt-product"][0],
        ):
            self.assertTrue(hasattr(fn, "__wrapped__"), fn)
        self.tracer.uninstall()
        self.assertEqual(
            original_ids,
            (id(lib.interlacing.isolate_roots), id(closure.__closure__[0].cell_contents)),
        )
        self.assertFalse(hasattr(lib.polynomial.Polynomial.__mul__, "__wrapped__"))

    def test_named_functions_are_called_on_their_workloads(self):
        for workload, names in CALLED_ON.items():
            with self.subTest(workload=workload):
                tracer = spans.Tracer()
                lib = run.load_library()
                rounds = small_rounds(lib, workload)
                tracer.install(lib.modules)
                try:
                    records, _, _ = wl.closed_loop(SmallSuites(lib), rounds, 0, 1, tracer)
                finally:
                    tracer.uninstall()
                self.assertTrue(all(r.output[0] != "exception" for r in records), records)
                stats = tracer.summary()
                for name in names:
                    self.assertGreater(stats.get(name, {}).get("calls", 0), 0, name)

    def test_traced_answers_equal_plain_answers(self):
        rounds = small_rounds(self.lib, "locate")
        plain, _, traced, _, n_rounds = wl.traced_loop(self.lib, rounds, 0, self.tracer)
        self.assertEqual(n_rounds, 1)
        self.assertEqual(wl.compare(plain, traced), [])
        self.assertEqual(wl.check(plain)[1], 0)
        # every traced request has its own id, in order
        self.assertEqual(sorted(set(self.tracer.request)), list(range(len(traced))))
        self.assertFalse(hasattr(self.lib.cli.main, "__wrapped__"))

    def test_self_time_subtracts_children_and_recursion_counts_once(self):
        t = self.tracer
        t.names[:] = ["a", "b"]
        # a [0, 10] > a [1, 5] > b [2, 4];  b [6, 9] under the outer a
        for name, parent, start, end in ((0, -1, 0, 10), (0, 0, 1, 5), (1, 1, 2, 4), (1, 0, 6, 9)):
            t.span_name.append(name)
            t.parent.append(parent)
            t.request.append(0)
            t.start.append(start)
            t.end.append(end)
        stats = t.summary()
        self.assertEqual(stats["a"], {"calls": 2, "incl_s": 10, "self_s": 3 + 2})
        self.assertEqual(stats["b"], {"calls": 2, "incl_s": 5, "self_s": 5})

    def test_spans_round_trip(self):
        t = self.tracer
        fn = t.wrap("toy.square", lambda x: x * x)
        t.current_request = 3
        self.assertEqual(fn(4), 16)
        path = HERE / "out" / "selftest-spans.bin"
        t.write(path, {"seed": 1})
        data = spans.read_spans(path)
        path.unlink()
        self.assertEqual(data["meta"], {"seed": 1})
        self.assertEqual(data["names"], ["toy.square"])
        self.assertEqual(list(data["request"]), [3])
        self.assertLessEqual(data["start"][0], data["end"][0])


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = run.load_library()

    def answer(self, request):
        record = wl.Record(request, 0.0, wl.execute(self.lib, request))
        self.assertEqual(wl.check([record])[1], 0, record)
        return record

    def corrupted(self, record, edit):
        payload = json.loads(record.output[1])
        edit(payload)
        return wl.Record(record.request, 0.0, (0, json.dumps(payload)))

    def test_isolation_check_rejects_moved_endpoint(self):
        request = wl.build_locate_rounds(self.lib, 3, count=1)[0][0]
        record = self.answer(request)

        def widen(payload):
            payload["roots"][0]["hi"] = payload["roots"][1]["hi"]

        self.assertEqual(wl.check([self.corrupted(record, widen)])[1], 1)

    def test_alternates_check_rejects_wrong_relation(self):
        batch = wl.build_locate_rounds(self.lib, 3, count=1)[0]
        n = len(wl.LOCATE_DEGREES)
        positive, negative = batch[n], batch[n + 1]
        self.assertFalse(negative.expect["holds"])
        for request, relation in ((positive, "interlaces"), (negative, "strictly_interlaces")):
            record = self.answer(request)
            bad = self.corrupted(record, lambda p: p.update(relation=relation))
            self.assertEqual(wl.check([bad])[1], 1)

    def test_alternates_check_rejects_a_wrong_witness(self):
        batch = wl.build_locate_rounds(self.lib, 3, count=1)[0]
        record = self.answer(batch[len(wl.LOCATE_DEGREES) + 1])
        far = {"exact": False, "lo": "1000", "hi": "1001", "multiplicity": 1}
        for edit in (
            lambda p: p.update(witness=[p["witness"][0]] * 2),  # one input's root twice
            lambda p: p.update(witness=[p["witness"][0], far]),  # no root at all
        ):
            self.assertEqual(wl.check([self.corrupted(record, edit)])[1], 1)

    def test_epoly_check_rejects_changed_coefficient(self):
        dsl_request, json_request = poset_forms(wl.build_poset_rounds(self.lib, 3, count=1)[0])
        record = self.answer(dsl_request)

        def bump(payload):
            payload["coefficients"][-1] = str(Fraction(payload["coefficients"][-1]) + 1)

        self.assertEqual(wl.check([self.corrupted(record, bump)])[1], 1)
        # DSL and JSON forms disagreeing is a failure even if one is right
        other = self.corrupted(self.answer(json_request), bump)
        self.assertGreaterEqual(wl.check([record, other])[1], 1)

    def test_decision_check_redecides_recorded_answers(self):
        lib = run.load_library()
        batch = small_rounds(lib, "verify-interlace")[0]
        count, messages = wl.check_decisions(SmallSuites(lib), [], batch, 5)
        self.assertEqual(messages, [])
        self.assertGreater(count, len(wl.known_negatives(random.Random(0))))

    def test_decision_check_catches_an_interlaces_that_always_says_yes(self):
        lib = run.load_library()
        liar = Liar()
        liar.install(lib.modules)
        try:
            batch = small_rounds(lib, "verify-interlace")[0]
            _, messages = wl.check_decisions(SmallSuites(lib), [], batch, 5)
        finally:
            liar.uninstall()
        self.assertTrue(any("known negative" in m for m in messages), messages)

    def test_suite_check_rejects_failures_and_missing_instances(self):
        request = wl.Request("suite", ("schur", 0))
        good = ("{}", 200, 0)
        self.assertEqual(wl.check([wl.Record(request, 0.0, good)])[:2], (200, 0))
        self.assertEqual(wl.check([wl.Record(request, 0.0, ("{}", 200, 3))])[:2], (200, 3))
        self.assertEqual(wl.check([wl.Record(request, 0.0, ("{}", 150, 0))])[:2], (200, 200))

    def test_tree_identities_match_the_lattice_dp(self):
        rng = random.Random(11)
        po = self.lib.posets
        for _ in range(25):
            tree = wl._random_tree(rng, rng.randint(1, 8), 0.5)
            expected = po.e_polynomial(po.sp_build(po.parse_sp(wl.tree_dsl(tree))))
            self.assertEqual(wl.tree_epoly(tree), list(expected.coeffs))

    def test_exact_helpers_count_roots(self):
        f = exact.from_roots([Fraction(-1), Fraction(-1, 2), Fraction(-1, 2)], Fraction(3))
        self.assertTrue(exact.all_roots_in(f, Fraction(-1), Fraction(0)))
        with_complex_pair = exact.multiply(f, [1, 0, 1])
        self.assertFalse(exact.all_roots_in(with_complex_pair, Fraction(-1), Fraction(0)))


class HarnessTest(unittest.TestCase):
    def test_benchmark_json_names_match_the_output(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], run.per_layer_metrics()
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END.items())
        )

    def test_refuses_to_run_without_the_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        ignore = shutil.ignore_patterns("out", "__pycache__")
        shutil.copytree(HERE, bare / "perfbench", ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "locate", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
                env={"PATH": "/usr/bin:/bin"},
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
