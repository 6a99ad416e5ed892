"""Command line behavior: output shapes, exit codes, and input errors.

Commands run in-process through main(argv) so exit codes and stdout are
asserted directly.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
import sympy

import realroots
from realroots import Polynomial
from realroots import suites as suites_module
from realroots.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestRoots:
    def test_isolate(self, capsys):
        data = run_json(capsys, "roots", "isolate", "0 1 2")
        assert [r.get("point") for r in data["roots"]] == ["-1/2", "0"]

    def test_isolate_irrational(self, capsys):
        data = run_json(capsys, "roots", "isolate", "-2 0 1")
        assert all(not r["exact"] for r in data["roots"])

    def test_isolate_returns_on_repeated_factor(self):
        # f = (x^2 - 2)^2 (3x^2 + 5x - 12)(3x^2 - x - 5) / 9, whose roots 4/3
        # and (1 + sqrt 61)/6 lie either side of the double root sqrt 2.  A
        # subprocess with a timeout turns a hang into a failure.
        src = os.path.dirname(os.path.dirname(realroots.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from realroots.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "roots",
                "isolate",
                "80/3 -52/9 -464/9 100/9 320/9 -61/9 -92/9 4/3 1",
            ],
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        s2, s61 = sympy.sqrt(2), sympy.sqrt(61)
        expected = [
            (sympy.Integer(-3), 1),
            (-s2, 2),
            ((1 - s61) / 6, 1),
            (sympy.Rational(4, 3), 1),
            (s2, 2),
            ((1 + s61) / 6, 1),
        ]
        roots = json.loads(proc.stdout)["roots"]
        assert len(roots) == len(expected)
        for loc, (r, mult) in zip(roots, expected):
            assert loc["multiplicity"] == mult
            if r.is_rational:
                assert loc["exact"] and sympy.Rational(loc["point"]) == r
            else:
                assert not loc["exact"]
                assert sympy.Rational(loc["lo"]) < r < sympy.Rational(loc["hi"])

    def test_count(self, capsys):
        data = run_json(capsys, "roots", "count", "-2 0 1", "0", "2")
        assert data["count"] == 1

    def test_count_with_infinities(self, capsys):
        # arguments starting with a dash need the -- separator
        data = run_json(capsys, "roots", "count", "-2 0 1", "--", "-inf", "inf")
        assert data["count"] == 2

    def test_check_real(self, capsys):
        assert run_json(capsys, "roots", "check-real", "1 2 1") == {
            "rootedness": "real_with_multiplicity"
        }

    def test_in_interval(self, capsys):
        data = run_json(capsys, "roots", "in-interval", "0 1 1", "-1", "0")
        assert data["all_roots_inside"] is True

    def test_in_interval_open(self, capsys):
        data = run_json(
            capsys, "roots", "in-interval", "0 1 1", "-1", "0", "--open"
        )
        assert data["all_roots_inside"] is False

    def test_json_polynomial_argument(self, capsys):
        data = run_json(capsys, "roots", "check-real", '["0", "1", "1"]')
        assert data["rootedness"] == "real_simple"


class TestInterlace:
    def test_check(self, capsys):
        data = run_json(capsys, "interlace", "check", "0 1", "0 1 1")
        assert data["interlaces"] is True

    def test_check_strict_shared_root(self, capsys):
        data = run_json(
            capsys, "interlace", "check", "0 1", "0 1 1", "--strict"
        )
        assert data["interlaces"] is False

    def test_alternates_verdict(self, capsys):
        data = run_json(capsys, "interlace", "alternates", "-1 0 1", "-4 0 1")
        assert data["relation"] == "none"
        assert data["witness"]

    def test_alternates_witness_at_double_point(self, capsys):
        # 0 is a double root of x^2: the witness reports it with multiplicity 2
        data = run_json(capsys, "interlace", "alternates", "--", "0 0 1", "-1 0 1")
        assert data["relation"] == "none"
        one, zero = data["witness"]
        assert (one["point"], one["multiplicity"]) == ("1", 1)
        assert (zero["point"], zero["multiplicity"]) == ("0", 2)

    def test_alternates_witness_around_double_root(self, capsys):
        # (x^2-2)^2 against x^3-3x: the witness interval holds -sqrt 2, double
        data = run_json(
            capsys, "interlace", "alternates", "--", "4 0 -4 0 1", "0 -3 0 1"
        )
        first, second = data["witness"]
        assert Fraction(first["lo"]) < -sympy.sqrt(2) < Fraction(first["hi"])
        assert first["multiplicity"] == 2
        assert Fraction(second["lo"]) < -sympy.sqrt(3) < Fraction(second["hi"])
        assert second["multiplicity"] == 1

    def test_probe_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "interlace",
            "probe",
            "-1 0 1",
            "0 1",
            "--samples",
            "10",
            "--seed",
            "1",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_probe_precondition_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "interlace", "probe", "1 0 1", "0 1", "--samples", "5"
        )
        assert code == 2
        assert "precondition" in err


class TestPoly:
    def test_diamond(self, capsys):
        data = run_json(capsys, "poly", "diamond", "0 1", "0 1")
        assert data["text"] == "0 1 2"

    def test_schur(self, capsys):
        data = run_json(capsys, "poly", "schur", "1 2 1", "1 2 1")
        assert data["text"] == "1 4 2"

    def test_altdiamond(self, capsys):
        data = run_json(capsys, "poly", "altdiamond", "0 0 1", "0 0 1")
        assert data["text"] == "0 0 2 8 7"

    def test_hp(self, capsys):
        data = run_json(capsys, "poly", "hp", "1 1", "0 0 1")
        assert data["text"] == "0 2 1"

    def test_laguerre(self, capsys):
        data = run_json(capsys, "poly", "laguerre", "1 2 1")
        assert data["text"] == "1 2 1/2"

    def test_hxi(self, capsys):
        data = run_json(capsys, "poly", "hxi", "1 1", "--", "-1/2")
        assert data["text"] == "1/2 -1/4"

    def test_lphi(self, capsys):
        data = run_json(capsys, "poly", "lphi", "0 1", "1", "3")
        assert data["text"] == "3 1"

    def test_output_round_trips_as_input(self, capsys):
        data = run_json(capsys, "poly", "diamond", "0 1 1", "0 1")
        again = run_json(
            capsys, "poly", "diamond", json.dumps(data["coefficients"]), "1"
        )
        assert again == data


class TestPoset:
    def test_epoly_dsl(self, capsys):
        data = run_json(capsys, "poset", "epoly", "s0(L,du(L,L))")
        assert data["text"] == "0 1 3 2"

    def test_epoly_inline_json(self, capsys):
        doc = json.dumps(
            {
                "elements": ["a", "b"],
                "covers": [["a", "b"]],
                "labels": {"a": 1, "b": 2},
            }
        )
        data = run_json(capsys, "poset", "epoly", doc)
        assert data["text"] == "0 1 1"

    def test_epoly_file(self, capsys, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text(
            json.dumps(
                {
                    "elements": ["a", "b"],
                    "covers": [],
                    "labels": {"a": 1, "b": 2},
                }
            )
        )
        data = run_json(capsys, "poset", "epoly", str(path))
        assert data["text"] == "0 1 2"

    def test_order(self, capsys):
        data = run_json(capsys, "poset", "order", "du(L,L)")
        assert data["text"] == "0 0 1"

    def test_verify_deletion_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "poset", "verify-deletion", "s1(L,s0(L,L))"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_verify_deletion_flags_double_root_not_shared(self, capsys):
        # P = {v0, v1, v2} < {v3, v4}, v4 < v5.  E(P) has a double root at
        # -2/3 that E(P minus v4) misses, and a polynomial that interlaces f
        # vanishes at every multiple root of f, so only that deletion fails.
        below = [[low, high] for low in ("v0", "v1", "v2") for high in ("v3", "v4")]
        doc = json.dumps(
            {
                "elements": ["v0", "v1", "v2", "v3", "v4", "v5"],
                "covers": below + [["v4", "v5"]],
                "labels": {"v0": 6, "v1": 3, "v2": 2, "v3": 5, "v4": 4, "v5": 1},
            }
        )
        code, out, _ = run_cli(capsys, "poset", "verify-deletion", doc)
        assert code == 1
        data = json.loads(out)
        assert [d["deleted"] for d in data["deletions"] if not d["interlaces"]] == ["v4"]
        assert data["polynomial"] == "0 0 0 8 32 42 18"
        small = next(d for d in data["deletions"] if d["deleted"] == "v4")
        assert small["polynomial"] == "0 0 1 11 22 12"

        def value(coeffs, x):
            return sum(c * x**k for k, c in enumerate(coeffs))

        big = [0, 0, 0, 8, 32, 42, 18]
        x = Fraction(-2, 3)
        assert value(big, x) == 0
        assert value([k * c for k, c in enumerate(big)][1:], x) == 0
        assert value([0, 0, 1, 11, 22, 12], x) != 0

    def test_epoly_antichain_of_14_dsl_and_shuffled_json(self, capsys):
        dsl = "L"
        for _ in range(13):
            dsl = f"du(L,{dsl})"
        doc = realroots.poset_to_json_dict(realroots.sp_build(realroots.parse_sp(dsl)))
        rng = random.Random(14)
        rng.shuffle(doc["elements"])
        rng.shuffle(doc["covers"])
        code, from_dsl, _ = run_cli(capsys, "poset", "epoly", dsl)
        assert code == 0
        code, from_json, _ = run_cli(capsys, "poset", "epoly", json.dumps(doc))
        assert code == 0
        assert from_dsl == from_json
        # an antichain's layerings onto [k] are the surjections onto [k]
        surjections = [
            sum((-1) ** j * comb(k, j) * (k - j) ** 14 for j in range(k + 1))
            for k in range(15)
        ]
        assert json.loads(from_dsl)["coefficients"] == [str(c) for c in surjections]

    def test_malformed_dsl_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "poset", "epoly", "s0(L")
        assert code == 2
        assert "position" in err

    def test_cyclic_covers_exit_2(self, capsys):
        doc = json.dumps(
            {
                "elements": ["a", "b"],
                "covers": [["a", "b"], ["b", "a"]],
                "labels": {"a": 1, "b": 2},
            }
        )
        code, _, err = run_cli(capsys, "poset", "epoly", doc)
        assert code == 2


class TestFerrers:
    def test_omega(self, capsys):
        data = run_json(capsys, "ferrers", "omega", "2")
        assert data["text"] == "0 1/2 1/2"

    def test_epoly_methods(self, capsys):
        for method in ("hook_content", "recursion", "enumeration"):
            data = run_json(
                capsys, "ferrers", "epoly", "2", "1", "--method", method
            )
            assert data["text"] == "0 0 2 2"

    def test_verify_cover(self, capsys):
        code, out, _ = run_cli(capsys, "ferrers", "verify-cover", "2", "1")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_invalid_partition_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "ferrers", "omega", "1", "2")
        assert code == 2


class TestVerify:
    def test_pass_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "schur",
            "--max-n",
            "4",
            "--samples",
            "6",
            "--seed",
            "5",
        )
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "schur" and data["failures"] == []

    def test_json_file_written(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify",
            "log-concavity",
            "--samples",
            "5",
            "--json",
            str(target),
        )
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)

    def test_violation_exits_1(self, capsys, monkeypatch):
        def broken(f: Polynomial):
            return 1

        monkeypatch.setattr(
            suites_module.rt, "log_concavity_check", broken
        )
        code, out, _ = run_cli(
            capsys, "verify", "log-concavity", "--samples", "4"
        )
        assert code == 1
        assert json.loads(out)["failures"]

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_byte_identical_reports(self, capsys):
        args = ("verify", "ferrers", "--max-n", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestUsage:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_malformed_polynomial_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "roots", "check-real", "1 q 3")
        assert code == 2
        assert err
