import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import vclab.cli

from vclab import (
    ExplicitSpace,
    Instance,
    MultiSample,
    ThresholdSpace,
    parse_formula,
)
from vclab.cli import json_ready, main
from vclab.formula import compile_formula
from vclab.combinatorics import sauer_bound
from vclab.serialize import (
    distribution_from_json,
    distribution_to_json,
    instance_from_json,
    instance_to_json,
    learner_from_json,
    parse_rational,
    space_from_json,
)


class TestSerialize:
    def test_rational_forms(self):
        assert parse_rational("1/3") == F(1, 3)
        assert parse_rational(0.5) == F(1, 2)
        assert parse_rational(2) == F(2)
        assert parse_rational({"rat": "7/4"}) == F(7, 4)

    def test_instance_round_trip(self):
        for obj in ["atom", 3, [1, "1/2"], {"rat": "1/3"}]:
            x = instance_from_json(obj)
            assert instance_from_json(instance_to_json(x)) == x

    def test_distribution_schema(self):
        obj = {"support": [["a", 1], [2, 0], [[1, 2], 1]],
               "weights": ["1/3", "1/3", "1/3"]}
        dist = distribution_from_json(obj)
        assert len(dist) == 3
        assert sum(w for _, w in dist.items()) == 1
        assert distribution_from_json(distribution_to_json(dist)) == dist

    def test_explicit_space_schema_without_kind(self):
        space = space_from_json({"instances": ["a", "b"],
                                 "hypotheses": [[0, 1], [1, 1]]})
        assert isinstance(space, ExplicitSpace)
        assert len(space) == 2

    def test_parametric_kinds(self):
        assert space_from_json({"kind": "threshold-family"}).kind == \
            "threshold-family"
        assert space_from_json({"kind": "halfspace-family", "dim": 2}).dim == 2
        formula_space = space_from_json({
            "kind": "formula-defined",
            "formula": "x != p",
            "objects": ["x"],
            "params": ["p"],
            "source": {"type": "sampled", "budget": 10},
        })
        assert formula_space.closed_form.name == "co-singleton"

    def test_learner_schema(self):
        space = space_from_json({"kind": "full", "instances": ["a", "b"]})
        learner = learner_from_json({
            "type": "table",
            "table": [[[["a", 1]], [1, 1]]],
            "default": [0, 0],
        }, space)
        out = learner(MultiSample.of(("a", 1)))
        assert out.key == ("explicit", (1, 1))
        fallback = learner(MultiSample.of(("b", 1)))
        assert fallback.key == ("explicit", (0, 0))

    def test_non_objects_rejected(self):
        space = space_from_json({"kind": "full", "instances": ["a"]})
        for parse in (space_from_json, distribution_from_json,
                      lambda obj: learner_from_json(obj, space)):
            with pytest.raises(ValueError, match="must be a JSON object"):
                parse([1, 2])

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            space_from_json({"kind": "nope"})
        space = space_from_json({"kind": "full", "instances": ["a"]})
        with pytest.raises(ValueError):
            learner_from_json({"type": "nope"}, space)


@pytest.fixture()
def workdir(tmp_path):
    space = {"instances": [1, 2, 3, 4], "hypotheses":
             [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0],
              [1, 1, 1, 1]]}
    (tmp_path / "space.json").write_text(json.dumps(space))
    dist = {"support": [[1, 1], [2, 0], [3, 1]],
            "weights": ["1/3", "1/3", "1/3"]}
    (tmp_path / "dist.json").write_text(json.dumps(dist))
    (tmp_path / "pool.json").write_text(json.dumps([1, 2, 3, 4]))
    return tmp_path


def run(tmp_path, *argv) -> tuple[int, dict | None]:
    code = main([*argv, "--out", str(tmp_path)])
    report = tmp_path / "report.json"
    payload = json.loads(report.read_text()) if report.exists() else None
    return code, payload


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_json_ready_instances():
    """Instances take their JSON form, wherever they sit in a value."""
    cases = [(Instance.atom("a"), "a"), (Instance.point(3), 3),
             (Instance.point(F(1, 2)), {"rat": "1/2"}),
             (Instance.point(1, F(1, 3)), [1, "1/3"])]
    for x, want in cases:
        assert json_ready(x) == want
        assert json_ready({"best": [x]}) == {"best": [want]}


def test_json_ready_refuses_unknown_values():
    """A value with no JSON form is a bug, not a string in the payload."""
    for value in (object(), {"result": [object()]}):
        with pytest.raises(TypeError, match="no JSON form for object"):
            json_ready(value)


class TestCli:
    def test_sauer(self, tmp_path):
        code, payload = run(tmp_path, "sauer", "--d", "2", "--m", "5")
        assert code == 0
        assert payload["result"]["value"] == 16
        assert payload["manifest"]["subcommand"] == "sauer"
        assert payload["manifest"]["version"]

    def test_bounds(self, tmp_path):
        code, payload = run(tmp_path, "bounds", "--d", "1", "--eps", "0.5",
                            "--delta", "0.5")
        assert code == 0
        assert payload["result"]["m0_ucp"] == 3273

    def test_bounds_growth_past_the_float_range_is_exact(self, tmp_path):
        """A growth value too large for a float is written as the exact
        integer, and the report stays valid JSON with no Infinity."""
        code = main(["bounds", "--d", "40", "--eps", "0.01", "--delta",
                     "0.01", "--out", str(tmp_path)])
        assert code == 0

        def no_constant(name):
            raise AssertionError(f"{name} in report.json")
        payload = json.loads((tmp_path / "report.json").read_text(),
                             parse_constant=no_constant)
        result = payload["result"]
        growth = sauer_bound(40, 2 * result["m_eval"])
        assert growth > sys.float_info.max
        assert result["growth_at_2m"] == growth
        assert isinstance(result["growth_at_2m"], int)

    def test_bounds_growth_past_the_digit_limit_exits_2(self, tmp_path,
                                                        capsys):
        """A growth value of more digits than ``json.dumps`` converts is
        refused as bad input, naming the field and the limit, before any
        output is written."""
        out = tmp_path / "out"
        code = main(["bounds", "--d", "800", "--eps", "0.01", "--delta",
                     "0.01", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "growth_at_2m" in err
        assert f"{sys.get_int_max_str_digits()} decimal digits" in err
        assert not out.exists()

    @pytest.mark.parametrize("d, growth_type", [(1, int), (4, float)])
    def test_bounds_growth_payload_below_the_float_range(self, tmp_path, d,
                                                         growth_type):
        """Below 2**53 the growth value is the integer, from there to the
        float range a float, as before."""
        code, payload = run(tmp_path, "bounds", "--d", str(d), "--eps", "0.5",
                            "--delta", "0.5")
        assert code == 0
        result = payload["result"]
        growth = sauer_bound(d, 2 * result["m_eval"])
        assert type(result["growth_at_2m"]) is growth_type
        assert result["growth_at_2m"] == growth_type(growth)
        assert (growth < 2 ** 53) == (growth_type is int)

    def test_bounds_csv_sweep(self, tmp_path):
        code, _ = run(tmp_path, "bounds", "--d", "1", "--eps", "0.5",
                      "--delta", "0.5", "--csv", "--eps-grid", "0.25,0.5",
                      "--delta-grid", "0.25,0.5")
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("d,eps,delta")
        assert len(lines) == 5
        assert "nan" not in (tmp_path / "sweep.csv").read_text().lower()

    def test_vcdim(self, workdir):
        code, payload = run(workdir, "vcdim",
                            "--space", str(workdir / "space.json"),
                            "--pool", str(workdir / "pool.json"),
                            "--limit", "8")
        assert code == 0
        assert payload["result"]["value"] == 1  # nested thresholds on 4 pts
        assert payload["result"]["status"] == "exact"
        assert str(workdir / "space.json") in payload["manifest"]["inputs"]

    def test_vcdim_quadratic_formula_is_exact(self, tmp_path):
        """0 <= a*x^2 + b*x + c is affine in its three parameters: its VC
        dimension is at most 3, and the search over -3..3 reaches it."""
        (tmp_path / "space.json").write_text(json.dumps(
            {"kind": "formula-defined", "formula": "0 <= a*x*x + b*x + c",
             "objects": ["x"], "params": ["a", "b", "c"],
             "source": {"type": "sampled"}}))
        code, payload = run(tmp_path, "vcdim",
                            "--space", str(tmp_path / "space.json"),
                            "--pool=-3;-2;-1;0;1;2;3")
        assert code == 0
        assert payload["result"]["value"] == 3
        assert payload["result"]["status"] == "exact"

    def test_growth(self, workdir):
        code, payload = run(workdir, "growth",
                            "--space", str(workdir / "space.json"),
                            "--pool", str(workdir / "pool.json"), "--m", "2")
        assert code == 0
        assert payload["result"]["value"] == 3

    def test_nfl_const0(self, tmp_path):
        code, payload = run(tmp_path, "nfl", "--m", "1",
                            "--learner", "builtin:const0", "--space", "full")
        assert code == 0
        result = payload["result"]
        assert result["max_expected_error"] == "1"
        assert result["passed"] is True

    def test_nfl_budget_exit_code(self, tmp_path):
        code, _ = run(tmp_path, "nfl", "--m", "5",
                      "--learner", "builtin:const0", "--space", "full")
        assert code == 3

    def test_nfl_large_m_is_refused_before_the_construction(self, tmp_path,
                                                             capsys):
        """m = 30 without --allow-large exits 3 at once and writes no
        report: the refusal comes before the 2^60 labelings and their full
        class are built."""
        started = time.monotonic()
        code, payload = run(tmp_path, "nfl", "--m", "30")
        assert time.monotonic() - started < 1
        assert code == 3 and payload is None
        assert "m = 30 enumerates 60^30" in capsys.readouterr().err

    def test_nfl_file_learner(self, tmp_path):
        table = {
            "type": "table",
            "table": [[[[0, 1]], [1, 1]], [[[0, 0]], [0, 0]]],
            "default": [0, 1],
        }
        (tmp_path / "table.json").write_text(json.dumps(table))
        code, payload = run(tmp_path, "nfl", "--m", "1", "--learner",
                            "file:" + str(tmp_path / "table.json"),
                            "--space", "full")
        assert code == 0
        assert payload["result"]["passed"] is True
        assert str(tmp_path / "table.json") in payload["manifest"]["inputs"]

    def test_pac_sim_file_learner_is_digested(self, tmp_path):
        """``pac-sim`` lists a ``file:`` learner among its manifest inputs,
        with the digest of the file's bytes."""
        files = {
            "space.json": {"kind": "threshold-family"},
            "dist.json": {"support": [[1, 0], [2, 1]],
                          "weights": ["1/2", "1/2"]},
            "table.json": {"type": "table",
                           "table": [[[[1, 0]], "2"], [[[2, 1]], "3/2"]],
                           "default": "3"},
        }
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        code, payload = run(tmp_path, "pac-sim",
                            "--space", str(tmp_path / "space.json"),
                            "--dist", str(tmp_path / "dist.json"),
                            "--m", "1", "--eps", "0", "--exact", "--learner",
                            "file:" + str(tmp_path / "table.json"))
        assert code == 0
        assert payload["result"]["probability"] == "1"
        assert payload["manifest"]["inputs"] == {
            str(tmp_path / name): hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest()
            for name in files}

    def test_nfl_random_learner(self, tmp_path):
        code, payload = run(tmp_path, "nfl", "--m", "2",
                            "--learner", "random:3", "--space", "full")
        assert code == 0
        assert payload["result"]["passed"] is True

    def test_ucp_sim_deterministic(self, workdir):
        argv = ["ucp-sim", "--space", str(workdir / "space.json"),
                "--dist", str(workdir / "dist.json"), "--m", "6",
                "--eps", "0.4", "--trials", "120", "--seed", "7"]
        code1, payload1 = run(workdir, *argv)
        code2, payload2 = run(workdir, *argv)
        assert code1 == code2 == 0
        assert json.dumps(payload1["result"], sort_keys=True) == \
            json.dumps(payload2["result"], sort_keys=True)
        sweep = (workdir / "sweep.csv").read_text().splitlines()
        assert sweep[0].startswith("m,")
        assert len(sweep) == 2

    def test_ucp_sim_exact_and_sweep(self, workdir):
        code, payload = run(workdir, "ucp-sim",
                            "--space", str(workdir / "space.json"),
                            "--dist", str(workdir / "dist.json"),
                            "--m", "1,2", "--eps", "0.5", "--exact")
        assert code == 0
        assert isinstance(payload["result"], list)
        assert all(r["mode"] == "exact" for r in payload["result"])
        for r in payload["result"]:
            assert r["probability"] is not None

    def test_pac_sim(self, workdir):
        code, payload = run(workdir, "pac-sim",
                            "--space", str(workdir / "space.json"),
                            "--dist", str(workdir / "dist.json"),
                            "--m", "8", "--eps", "0.5",
                            "--trials", "60", "--learner", "builtin:sem")
        assert code == 0
        assert 0.0 <= payload["result"]["estimate"] <= 1.0

    def test_formula_eval(self, tmp_path):
        code, payload = run(tmp_path, "formula", "eval",
                            "--text", "(x < 0 -> y = 0) and (0 <= x -> y = x)",
                            "--objects", "x,y", "--x", "3,3")
        assert code == 0
        assert payload["result"]["value"] is True

    def test_formula_eval_float_backend_reads_rationals(self, tmp_path):
        code, payload = run(tmp_path, "formula", "eval", "--text", "exp(x) < p",
                            "--objects", "x", "--params", "p",
                            "--x", "1/3", "--w", "2")
        assert code == 0
        assert payload["result"] == {"value": True, "backend": "float"}

    def test_formula_space(self, tmp_path):
        code, payload = run(tmp_path, "formula", "space", "--text", "x != p",
                            "--objects", "x", "--params", "p",
                            "--pool", "1;2;3")
        assert code == 0
        assert payload["result"]["dichotomies"] == ["011", "101", "110", "111"]

    def test_formula_shatter(self, tmp_path):
        code, payload = run(tmp_path, "formula", "shatter", "--text", "p <= x",
                            "--objects", "x", "--params", "p",
                            "--instances", "1")
        assert code == 0
        assert payload["result"]["status"] == "shattered"

    def test_formula_shatter_closed_form_is_exact(self, tmp_path):
        code, payload = run(tmp_path, "formula", "shatter", "--text", "p <= x",
                            "--objects", "x", "--params", "p",
                            "--instances", "1;2")
        assert code == 0
        assert payload["result"] == {"status": "not-shattered",
                                     "witnesses": None}

    def test_formula_shatter_float_backend_has_no_closed_form(self,
                                                              tmp_path):
        """Doubles cannot tell 1/3 from a point 1/10^20 above it, so the
        float backend gets parameter search, not the exact threshold
        oracle, and reports that it found no witness of (0, 1)."""
        code, payload = run(
            tmp_path, "formula", "shatter", "--text", "w <= x", "--objects",
            "x", "--params", "w", "--backend", "float", "--instances",
            "1/3;100000000000000000001/300000000000000000000")
        assert code == 0
        assert payload["result"]["status"] == "not-found"

    def test_float_backend_oracle_is_not_exact(self, tmp_path, capsys):
        """1/10 + 1/5 = 3/10 is false in doubles, so the float table over
        one tuple lacks label 1, which the exact backend realizes: the
        float space claims no exact oracle, and the error operations that
        need one refuse it."""
        flags = ("--text", "x + b = a", "--objects", "x", "--params", "a,b",
                 "--params-list", "3/10,1/5", "--backend", "float")
        code, payload = run(tmp_path, "formula", "shatter", *flags,
                            "--instances", "1/10")
        assert code == 0
        assert payload["result"]["status"] == "not-found"
        code, payload = run(tmp_path, "formula", "space", *flags,
                            "--pool", "1/10")
        assert code == 0
        assert payload["result"]["oracle_exact"] is False
        assert payload["result"]["dichotomies"] == ["0"]
        space = {"kind": "formula-defined", "formula": "x + b = a",
                 "objects": ["x"], "params": ["a", "b"], "backend": "float",
                 "source": {"type": "explicit", "tuples": [["3/10", "1/5"]]}}
        (tmp_path / "space.json").write_text(json.dumps(space))
        dist = {"support": [[{"rat": "1/10"}, 1], [{"rat": "1/2"}, 0]],
                "weights": ["1/2", "1/2"]}
        (tmp_path / "dist.json").write_text(json.dumps(dist))
        common = ("--space", str(tmp_path / "space.json"), "--dist",
                  str(tmp_path / "dist.json"), "--m", "2", "--eps", "0.5",
                  "--exact")
        for argv in (("ucp-sim", *common),
                     ("pac-sim", *common, "--learner", "builtin:sem")):
            out = tmp_path / argv[0]
            out.mkdir()
            capsys.readouterr()
            assert run(out, *argv) == (2, None)
            assert "exact restriction oracle" in capsys.readouterr().err

    def test_formula_shatter_agrees_with_vcdim_over_finite_source(
            self, tmp_path):
        """--grid and --params-list define the whole parameter family: an
        instance set is shattered iff vcdim over the same source, with the
        set as its pool, finds it shattered."""
        formula = {"kind": "formula-defined", "formula": "x != p",
                   "objects": ["x"], "params": ["p"]}
        sources = [(("--grid", "1,2,3"),
                    {"type": "grid", "axes": [["1", "2", "3"]]}),
                   (("--params-list", "1;2;3"),
                    {"type": "explicit", "tuples": [["1"], ["2"], ["3"]]})]
        for option, source in sources:
            space = tmp_path / "space.json"
            space.write_text(json.dumps({**formula, "source": source}))
            for instances in ("2", "1;4", "1;2;3"):
                size = len(instances.split(";"))
                code, vc = run(tmp_path, "vcdim", "--space", str(space),
                               "--pool", instances)
                assert code == 0
                code, shatter = run(tmp_path, "formula", "shatter", "--text",
                                    "x != p", "--objects", "x", "--params",
                                    "p", "--instances", instances, *option)
                assert code == 0
                want = ("shattered" if vc["result"]["value"] == size
                        else "not-shattered")
                assert shatter["result"]["status"] == want, (option, instances)

    def test_formula_shatter_bad_instances_exit_2(self, tmp_path):
        for instances in ("1,2", "1;2;1"):
            code, _ = run(tmp_path, "formula", "shatter", "--text", "p <= x",
                          "--objects", "x", "--params", "p",
                          "--instances", instances)
            assert code == 2, instances

    def test_formula_shatter_witnesses_give_their_labelings(self, tmp_path):
        cases = [("p <= x", "p", "3", ()),
                 ("a <= x and x <= b", "a,b", "1;2", ()),
                 ("0 <= w * x + b", "w,b", "-1;2", ()),
                 ("x != p", "p", "2", ("--grid", "1,2,3")),
                 ("(a <= x and x <= b) or x = c", "a,b,c", "0;2", ())]
        for text, params, instances, option in cases:
            code, payload = run(tmp_path, "formula", "shatter", "--text",
                                text, "--objects", "x", "--params", params,
                                f"--instances={instances}", *option)
            assert code == 0 and payload["result"]["status"] == "shattered"
            predicate = compile_formula(
                parse_formula(text, ["x"], params.split(",")))
            xs = [F(v) for v in instances.split(";")]
            witnesses = payload["result"]["witnesses"]
            assert len(witnesses) == 2 ** len(xs)
            for labeling, w in witnesses.items():
                got = "".join("1" if predicate((x,), w) else "0"
                              for x in xs)
                assert got == labeling, (text, w)

    @pytest.mark.parametrize("text, params, instances, want", [
        ("0 <= w * x + b", "w,b", "-1;2",
         {"00": ["0", "-1"], "01": ["1", "-1/2"], "10": ["-1", "1/2"],
          "11": ["0", "0"]}),
        ("(a <= x and x <= b) or x = c", "a,b,c", "0;2",
         {"00": ["-1", "-1", "-1"], "01": ["-1", "-1", "2"],
          "10": ["-1", "-1", "0"], "11": ["-1", "0", "2"]})])
    def test_formula_shatter_witnesses_are_pinned(self, tmp_path, text,
                                                  params, instances, want):
        """The witnesses of an affine closed form (solved when read) and
        of parameter search, as the command has always written them."""
        code, payload = run(tmp_path, "formula", "shatter", "--text", text,
                            "--objects", "x", "--params", params,
                            f"--instances={instances}")
        assert code == 0
        assert payload["result"] == {"status": "shattered", "witnesses": want}

    def test_formula_space_requires_pool(self, tmp_path):
        code, _ = run(tmp_path, "formula", "space", "--text", "x != p",
                      "--objects", "x", "--params", "p")
        assert code == 2

    def test_formula_shatter_requires_instances(self, tmp_path):
        code, _ = run(tmp_path, "formula", "shatter", "--text", "p <= x",
                      "--objects", "x", "--params", "p")
        assert code == 2

    def test_vcdim_above_known_vc_is_a_bug_not_bad_input(self, tmp_path,
                                                         monkeypatch):
        """A search that shatters more points than the family's known VC
        dimension raises AssertionError; it does not exit 2."""
        monkeypatch.setattr(ThresholdSpace, "known_vc", lambda self: 0)
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"kind": "threshold-family"}))
        with pytest.raises(AssertionError, match="above the family's VC"):
            main(["vcdim", "--space", str(space), "--pool", "1;2;3",
                  "--out", str(tmp_path)])

    def test_unknown_subcommand_exits_2(self, tmp_path):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        assert main(["sauer", "--d", "2", "--m", "5", "--bogus"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "vcdim", "--space",
                      str(tmp_path / "nope.json"), "--pool", "1;2")
        assert code == 2

    def test_non_object_json_exits_2(self, tmp_path, capsys):
        """A space file, a parameter source or a file: learner that is a
        JSON array is bad input, not a crash."""
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "formula.json").write_text(json.dumps(
            {"kind": "formula-defined", "formula": "p <= x",
             "objects": ["x"], "params": ["p"], "source": [1, 2]}))
        cases = [
            ("vcdim", "--space", str(tmp_path / "list.json"), "--pool", "1;2"),
            ("vcdim", "--space", str(tmp_path / "formula.json"),
             "--pool", "1;2"),
            ("nfl", "--m", "1", "--learner",
             "file:" + str(tmp_path / "list.json")),
        ]
        for argv, what in zip(cases, ("a space", "a parameter source",
                                      "a learner")):
            code, _ = run(tmp_path, *argv)
            assert code == 2
            assert f"{what} must be a JSON object, got list" in \
                capsys.readouterr().err

    def test_missing_or_mistyped_field_exits_2_naming_it(self, workdir,
                                                         capsys):
        """A space, distribution, learner or pool file with a field that is
        absent or of the wrong JSON type is bad input, reported by name."""
        space, dist = str(workdir / "space.json"), str(workdir / "dist.json")
        formula = {"kind": "formula-defined", "formula": "p <= x",
                   "objects": ["x"], "params": ["p"]}
        cases = [
            ("space", {"kind": "halfspace-family"}, "dim"),
            ("space", {"kind": "halfspace-family", "dim": None}, "dim"),
            ("space", {"kind": "finite-explicit", "instances": [1],
                       "hypotheses": 5}, "hypotheses"),
            ("space", {**formula, "formula": 5}, "formula"),
            ("space", {**formula, "source": {"type": "sampled",
                                             "budget": [1]}}, "budget"),
            ("dist", {"weights": ["1"]}, "support"),
            ("dist", {"support": [[1, 1]], "weights": 1}, "weights"),
            ("learner", {"type": "builtin"}, "name"),
            ("learner", {"type": "table", "table": [5], "default": [0] * 4},
             "table"),
            ("pool", {"instances": 5}, "instances"),
        ]
        for what, obj, field in cases:
            bad = workdir / "bad.json"
            bad.write_text(json.dumps(obj))
            argv = {"space": ("vcdim", "--space", str(bad), "--pool", "1;2"),
                    "pool": ("vcdim", "--space", space, "--pool", str(bad)),
                    "dist": ("ucp-sim", "--space", space, "--dist", str(bad),
                             "--m", "2", "--eps", "0.5"),
                    "learner": ("pac-sim", "--space", space, "--dist", dist,
                                "--m", "2", "--eps", "0.5",
                                "--learner", f"file:{bad}")}[what]
            code, _ = run(workdir, *argv)
            assert code == 2, obj
            assert f"'{field}' field" in capsys.readouterr().err, obj

    def test_non_integral_or_non_bit_values_exit_2_naming_them(self, workdir,
                                                              capsys):
        """Integer fields and bits are not truncated: 2.7, 1.5 and a budget
        below 1 are bad input, reported by name; integral 2.0 is read as
        2."""
        space, dist = str(workdir / "space.json"), str(workdir / "dist.json")
        formula = {"kind": "formula-defined",
                   "formula": "not (a <= x and x <= b)",
                   "objects": ["x"], "params": ["a", "b"]}
        cases = [
            ("space", {"kind": "halfspace-family", "dim": 2.7}, "'dim'"),
            ("space", {"kind": "halfspace-family", "dim": "2"}, "'dim'"),
            ("space", {"kind": "finite-explicit", "instances": [1, 2],
                       "hypotheses": [[0, 1.5]]}, "'hypotheses'"),
            ("space", {"kind": "finite-explicit", "instances": [1, 2],
                       "hypotheses": [[0, 2]]}, "'hypotheses'"),
            ("space", {**formula, "source": {"type": "sampled",
                                             "budget": -5}}, "budget"),
            ("space", {**formula, "source": {"type": "sampled",
                                             "budget": 0}}, "budget"),
            ("space", {**formula, "source": {"type": "sampled",
                                             "budget": 10.5}}, "'budget'"),
            ("space", {**formula, "source": {"type": "sampled",
                                             "seed": 1.5}}, "'seed'"),
            ("dist", {"support": [[1, 1.5]], "weights": ["1"]}, "'support'"),
            ("learner", {"type": "table", "table": [],
                         "default": [1, 1, 0.5, 0]}, "'default'"),
        ]
        for what, obj, field in cases:
            bad = workdir / "bad.json"
            bad.write_text(json.dumps(obj))
            argv = {"space": ("vcdim", "--space", str(bad), "--pool", "1;2"),
                    "dist": ("ucp-sim", "--space", space, "--dist", str(bad),
                             "--m", "2", "--eps", "0.5"),
                    "learner": ("pac-sim", "--space", space, "--dist", dist,
                                "--m", "2", "--eps", "0.5",
                                "--learner", f"file:{bad}")}[what]
            code, _ = run(workdir, *argv)
            assert code == 2, obj
            assert field in capsys.readouterr().err, obj
        code, _ = run(workdir, "formula", "space", "--text", "a <= x",
                      "--objects", "x", "--params", "a", "--pool", "1;2",
                      "--budget", "0")
        assert code == 2
        assert "budget" in capsys.readouterr().err
        halfspace = workdir / "halfspace.json"
        halfspace.write_text('{"kind": "halfspace-family", "dim": 2.0}')
        code, payload = run(workdir, "vcdim", "--space", str(halfspace),
                            "--pool", "0,0;1,0;0,1")
        assert code == 0 and payload["result"]["value"] == 3

    def test_vcdim_budget_below_one_exits_2(self, workdir, capsys):
        """A node budget below 1 is bad input, in either spelling; it used
        to run no subset and report value 0 as a lower bound."""
        for budget in (("--budget", "0"), ("--budget=-3",)):
            code, payload = run(workdir, "vcdim", "--space",
                                str(workdir / "space.json"), "--pool",
                                "1;2;3", *budget)
            assert code == 2 and payload is None, budget
            assert "node budget must be >= 1" in capsys.readouterr().err
        code, payload = run(workdir, "vcdim", "--space",
                            str(workdir / "space.json"), "--pool", "1;2;3",
                            "--budget", "1")
        assert code == 0 and payload["result"]["nodes_used"] == 1

    def test_nfl_m_below_one_names_m(self, tmp_path, capsys):
        for m in (("--m", "0"), ("--m=-1",)):
            code, _ = run(tmp_path, "nfl", *m)
            assert code == 2, m
            err = capsys.readouterr().err
            assert "m must be >= 1" in err and "non-empty" not in err, m

    def test_internal_type_or_key_error_is_not_bad_input(self, workdir,
                                                         monkeypatch):
        """Only ValueError and the package's own errors mean bad input; a
        TypeError or KeyError from inside a computation propagates."""
        for error in (TypeError, KeyError):
            def broken(*args, **kwargs):
                raise error("internal")
            monkeypatch.setattr(vclab.cli, "vc_dimension", broken)
            with pytest.raises(error):
                main(["vcdim", "--space", str(workdir / "space.json"),
                      "--pool", "1;2", "--out", str(workdir)])

    def test_negative_pool_joined_with_equals(self, tmp_path):
        (tmp_path / "space.json").write_text(json.dumps(
            {"kind": "threshold-family"}))
        space = str(tmp_path / "space.json")
        code, payload = run(tmp_path, "vcdim", "--space", space,
                            "--pool=-3;-2;-1")
        assert code == 0
        assert payload["result"]["value"] == 1
        assert payload["result"]["status"] == "exact"
        # Given as a separate word, argparse takes the value for an option.
        assert run(tmp_path, "vcdim", "--space", space,
                   "--pool", "-3;-2;-1")[0] == 2

    def test_exact_budget_exits_3(self, workdir):
        big_dist = {
            "support": [[i, 1] for i in range(10)],
            "weights": ["1/10"] * 10,
        }
        (workdir / "big.json").write_text(json.dumps(big_dist))
        # 10 support entries, m = 20: C(29, 9) = 10,015,005 multisets.
        code, _ = run(workdir, "ucp-sim",
                      "--space", str(workdir / "space.json"),
                      "--dist", str(workdir / "big.json"),
                      "--m", "20", "--eps", "0.5", "--exact")
        assert code == 3

    def test_exact_budget_counts_ordered_states(self, workdir):
        # memorize depends on sample order, so exact mode enumerates 3^13
        # ordered tuples (over 10^6) where sem needs 105 multisets.
        argv = ["pac-sim", "--space", str(workdir / "space.json"),
                "--dist", str(workdir / "dist.json"), "--m", "13",
                "--eps", "0.5", "--exact"]
        code, _ = run(workdir, *argv, "--learner", "builtin:memorize")
        assert code == 3
        code, payload = run(workdir, *argv, "--learner", "builtin:sem")
        assert code == 0
        assert payload["result"]["mode"] == "exact"

    def test_exact_budget_refuses_large_m_on_tiny_support(self, workdir):
        # 2 entries at m = 75075 is only 75076 multisets, but too many
        # drawn samples in all; the refusal comes before any enumeration.
        two = {"support": [[1, 1], [2, 0]], "weights": ["1/2", "1/2"]}
        (workdir / "two.json").write_text(json.dumps(two))
        argv = ["--space", str(workdir / "space.json"),
                "--dist", str(workdir / "two.json"),
                "--m", "75075", "--eps", "0.1", "--exact"]
        started = time.monotonic()
        assert run(workdir, "ucp-sim", *argv)[0] == 3
        assert run(workdir, "pac-sim", *argv,
                   "--learner", "builtin:sem")[0] == 3
        assert run(workdir, "pac-sim", *argv,
                   "--learner", "builtin:memorize")[0] == 3
        assert time.monotonic() - started < 10

    def test_pool_files_are_digested(self, workdir):
        (workdir / "pool2.json").write_text(json.dumps([1, 2, 3]))
        space = str(workdir / "space.json")
        digests = []
        for pool in ("pool.json", "pool2.json"):
            pool = str(workdir / pool)
            for argv in (["vcdim", "--space", space, "--pool", pool],
                         ["growth", "--space", space, "--pool", pool,
                          "--m", "2"]):
                code, payload = run(workdir, *argv)
                assert code == 0
                inputs = payload["manifest"]["inputs"]
                assert set(inputs) == {space, pool}
                digests.append(inputs[pool])
        assert digests[0] == digests[1] != digests[2] == digests[3]
        code, payload = run(workdir, "vcdim", "--space", space,
                            "--pool", "1;2")
        assert code == 0
        assert set(payload["manifest"]["inputs"]) == {space}

    def test_nfl_instances_file_is_digested(self, tmp_path):
        (tmp_path / "inst.json").write_text(json.dumps(["a", "b"]))
        code, payload = run(tmp_path, "nfl", "--m", "1",
                            "--learner", "builtin:const0",
                            "--instances", str(tmp_path / "inst.json"))
        assert code == 0
        assert str(tmp_path / "inst.json") in payload["manifest"]["inputs"]

    def test_nfl_space_file(self, tmp_path):
        """``nfl --space FILE`` reads and digests a space that shatters the
        instances, and refuses, with exit 2, one that does not."""
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"kind": "full", "instances": [0, 1]}))
        code, payload = run(tmp_path, "nfl", "--m", "1", "--space", str(path))
        assert code == 0 and payload["result"]["passed"] is True
        assert payload["manifest"]["inputs"] == {str(path): sha256(path)}
        path.write_text(json.dumps({"kind": "threshold-family"}))
        assert run(tmp_path, "nfl", "--m", "1", "--space", str(path))[0] == 2

    def test_formula_parse_file(self, tmp_path):
        path = tmp_path / "formula.txt"
        path.write_text("(x < 0 -> y = 0) and (0 <= x -> y = x)\n")
        code, payload = run(tmp_path, "formula", "parse", "--file", str(path),
                            "--objects", "x,y")
        assert code == 0
        assert payload["result"]["round_trips"] is True
        assert payload["manifest"]["inputs"] == {str(path): sha256(path)}

    def test_builtin_learner_file_matches_the_builtin_reference(
            self, tmp_path):
        path = tmp_path / "sem.json"
        path.write_text(json.dumps({"type": "builtin", "name": "sem"}))
        code, by_file = run(tmp_path, "nfl", "--m", "2",
                            "--learner", "file:" + str(path))
        assert code == 0
        assert by_file["manifest"]["inputs"] == {str(path): sha256(path)}
        code, by_name = run(tmp_path, "nfl", "--m", "2",
                            "--learner", "builtin:sem")
        assert code == 0 and by_name["manifest"]["inputs"] == {}
        assert by_file["result"] == by_name["result"]

    @pytest.mark.parametrize("mode", [("--exact",), ("--trials", "40")],
                             ids=["exact", "monte-carlo"])
    def test_pac_sim_sweep_reads_a_file_learner_once(self, tmp_path,
                                                     monkeypatch, mode):
        """A sweep over m resolves ``--learner`` once, and each row is the
        run at that m alone."""
        files = {"space.json": {"kind": "threshold-family"},
                 "dist.json": {"support": [[1, 0], [2, 1], [3, 1]],
                               "weights": ["1/4", "1/4", "1/2"]},
                 "table.json": {"type": "table",
                                "table": [[[[1, 0]], "2"], [[[2, 1]], "3/2"]],
                                "default": "3"}}
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        reads = []
        text = vclab.cli.Inputs.text

        def counted(self, path):
            reads.append(Path(path).name)
            return text(self, path)
        monkeypatch.setattr(vclab.cli.Inputs, "text", counted)

        def pac(m):
            return run(tmp_path, "pac-sim",
                       "--space", str(tmp_path / "space.json"),
                       "--dist", str(tmp_path / "dist.json"),
                       "--m", m, "--eps", "0.25", *mode, "--learner",
                       "file:" + str(tmp_path / "table.json"))
        code, sweep = pac("1,2,3")
        assert code == 0
        assert sorted(reads) == sorted(files)
        for m, row in zip("123", sweep["result"], strict=True):
            code, single = pac(m)
            assert code == 0 and single["result"] == row
            assert single["manifest"]["inputs"] == sweep["manifest"]["inputs"]

    def test_inputs_hold_the_bytes_that_were_parsed(self, workdir,
                                                    monkeypatch):
        """A file rewritten while the run computes keeps, in the manifest,
        the digest of the bytes the run parsed."""
        space = workdir / "space.json"
        parsed = sha256(space)
        vc_dimension = vclab.cli.vc_dimension

        def rewriting(*args, **kwargs):
            space.write_text(json.dumps({"kind": "threshold-family"}))
            return vc_dimension(*args, **kwargs)
        monkeypatch.setattr(vclab.cli, "vc_dimension", rewriting)
        code, payload = run(workdir, "vcdim", "--space", str(space),
                            "--pool", "1;2")
        assert code == 0 and sha256(space) != parsed
        assert payload["manifest"]["inputs"] == {str(space): parsed}


# Input files, by name, for the subcommands that read files.
INPUT_FILES = {
    "space.json": {"instances": [1, 2, 3, 4], "hypotheses":
                   [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0]]},
    "dist.json": {"support": [[1, 1], [2, 0]], "weights": ["1/2", "1/2"]},
    "pool.json": [1, 2, 3],
    "pair.json": [0, 1],
    "full.json": {"kind": "full", "instances": [0, 1]},
    "sem.json": {"type": "builtin", "name": "sem"},
    "formula.txt": "x != p",
}
FORMULA = ("--file", "formula.txt", "--objects", "x", "--params", "p")


@pytest.mark.parametrize("argv", [
    ("vcdim", "--space", "space.json", "--pool", "pool.json"),
    ("growth", "--space", "space.json", "--pool", "pool.json", "--m", "2"),
    ("ucp-sim", "--space", "space.json", "--dist", "dist.json",
     "--m", "2", "--eps", "0.25", "--exact"),
    ("pac-sim", "--space", "space.json", "--dist", "dist.json",
     "--m", "2", "--eps", "0.25", "--exact", "--learner", "file:sem.json"),
    ("nfl", "--m", "1", "--instances", "pair.json", "--space", "full.json",
     "--learner", "file:sem.json"),
    ("formula", "parse", *FORMULA),
    ("formula", "eval", *FORMULA, "--x", "2", "--w", "2"),
    ("formula", "space", *FORMULA, "--pool", "pool.json"),
    ("formula", "shatter", *FORMULA, "--instances", "pair.json"),
], ids=lambda argv: "-".join(argv[:2 if argv[0] == "formula" else 1]))
def test_manifest_inputs_are_exactly_the_files_given(tmp_path, argv):
    for name, content in INPUT_FILES.items():
        (tmp_path / name).write_text(
            content if isinstance(content, str) else json.dumps(content))

    def path(arg):
        kind, colon, name = arg.rpartition(":")
        return kind + colon + str(tmp_path / name) if name in INPUT_FILES \
            else arg
    code, payload = run(tmp_path, *map(path, argv))
    assert code == 0
    assert payload["manifest"]["inputs"] == {
        str(tmp_path / name): sha256(tmp_path / name)
        for name in INPUT_FILES if any(name in a for a in argv)}


class TestParserReuse:
    """``main`` builds its parser once and parses every later argv with
    it; ``import vclab.cli`` builds none."""

    def sequence(self, workdir, capsys):
        space, pool = str(workdir / "space.json"), str(workdir / "pool.json")
        out = []
        for argv in (["vcdim", "--space", space, "--pool", pool],
                     ["vcdim", "--space", space, "--limit", "x"],
                     ["--version"],
                     ["growth", "--space", space, "--pool", pool,
                      "--m", "2"]):
            report = workdir / "report.json"
            report.unlink(missing_ok=True)
            code = main([*argv, "--out", str(workdir)])
            payload = (json.loads(report.read_text()) if report.exists()
                       else None)
            if payload is not None:
                del payload["manifest"]["duration_s"]
            out.append((code, capsys.readouterr(), payload))
        return out

    def test_one_parser_gives_the_fresh_parser_reports(self, workdir,
                                                       capsys, monkeypatch):
        built = []
        build = vclab.cli.build_parser

        def counting():
            built.append(1)
            return build()
        monkeypatch.setattr(vclab.cli, "build_parser", counting)
        vclab.cli._parser.cache_clear()
        reused = self.sequence(workdir, capsys)
        assert len(built) == 1
        with monkeypatch.context() as patched:
            patched.setattr(vclab.cli, "_parser", counting)
            fresh = self.sequence(workdir, capsys)
        assert len(built) == 5
        assert [code for code, _, _ in reused] == [0, 2, 0, 0]
        assert reused == fresh
        assert reused[0][2]["result"]["value"] == 1
        assert reused[3][2]["result"]["value"] == 3

    def test_import_builds_no_parser(self):
        child = ("import argparse\n"
                 "built = []\n"
                 "init = argparse.ArgumentParser.__init__\n"
                 "def counting(self, *args, **kwargs):\n"
                 "    built.append(1)\n"
                 "    init(self, *args, **kwargs)\n"
                 "argparse.ArgumentParser.__init__ = counting\n"
                 "import vclab.cli\n"
                 "print(len(built), vclab.cli._parser.cache_info().currsize)\n"
                 "vclab.cli.main(['--version'])\n"
                 "once = len(built)\n"
                 "vclab.cli.main(['--version'])\n"
                 "print(once > 0, len(built) == once)\n")
        src = str(Path(vclab.cli.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", child], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=60).stdout
        assert out.splitlines()[0] == "0 0"
        assert out.splitlines()[-1] == "True True"

    def test_import_generates_no_code(self):
        """No exec, eval or compile on behalf of a vclab module while
        ``vclab.cli`` is imported (a dataclass makes several per class),
        and no dataclasses, inspect or typing loaded.  A call counts for
        the module whose top level is running when it is made; the
        import system's own exec of each module's code does not count."""
        child = ("import builtins, sys\n"
                 "calls = []\n"
                 "def counted(real):\n"
                 "    def wrapper(*args, **kwargs):\n"
                 "        frame = sys._getframe(1)\n"
                 "        if not frame.f_code.co_filename.startswith(\n"
                 "                '<frozen importlib'):\n"
                 "            while frame.f_code.co_name != '<module>':\n"
                 "                frame = frame.f_back\n"
                 "            calls.append(frame.f_globals['__name__'])\n"
                 "        return real(*args, **kwargs)\n"
                 "    return wrapper\n"
                 "for name in ('exec', 'eval', 'compile'):\n"
                 "    real = getattr(builtins, name)\n"
                 "    setattr(builtins, name, counted(real))\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "import vclab.cli\n"
                 "print(sorted({c for c in calls\n"
                 "              if c.split('.')[0] == 'vclab'}))\n"
                 "print(sorted({'dataclasses', 'inspect', 'typing'}\n"
                 "             & set(sys.modules)))\n")
        src = str(Path(vclab.cli.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-I", "-S", "-c", child, src], check=True,
            capture_output=True, text=True, timeout=60).stdout
        assert out.splitlines() == ["[]", "[]"]


def write_files(tmp_path, files: dict) -> None:
    for name, content in files.items():
        (tmp_path / name).write_text(
            content if isinstance(content, str) else json.dumps(content))


@pytest.mark.parametrize("argv", [
    ("ucp-sim", "--space", "space.json", "--dist", "dist.json",
     "--m", ",", "--eps", "0.25"),
    ("pac-sim", "--space", "space.json", "--dist", "dist.json",
     "--m", ",", "--eps", "0.25", "--learner", "builtin:sem"),
    ("bounds", "--d", "1", "--eps", "0.5", "--delta", "0.5", "--csv",
     "--eps-grid", ","),
], ids=lambda argv: argv[0])
def test_empty_value_list_exits_2(tmp_path, capsys, argv):
    """A list option that parses to no value is bad input: no report and
    no sweep are written."""
    write_files(tmp_path, INPUT_FILES)
    argv = [str(tmp_path / a) if a in INPUT_FILES else a for a in argv]
    code, payload = run(tmp_path, *argv)
    assert code == 2 and payload is None
    assert not (tmp_path / "sweep.csv").exists()
    assert "empty value list ','" in capsys.readouterr().err


NON_FINITE = {
    "ucp-eps": ("ucp-sim", "--space", "space.json", "--dist", "dist.json",
                "--m", "2", "--eps=inf"),
    "pac-eps": ("pac-sim", "--space", "space.json", "--dist", "dist.json",
                "--m", "2", "--eps=1e400", "--learner", "builtin:sem"),
    "weight": ("ucp-sim", "--space", "space.json", "--dist", "inf-dist.json",
               "--m", "2", "--eps", "0.25"),
    "pool": ("vcdim", "--space", "space.json", "--pool", "inf-pool.json"),
}


@pytest.mark.parametrize("route", sorted(NON_FINITE))
def test_non_finite_number_exits_2(tmp_path, capsys, route):
    """An infinite eps, distribution weight or pool coordinate is bad
    input, not an ``OverflowError`` out of ``Fraction``."""
    write_files(tmp_path, {
        **INPUT_FILES,
        "inf-dist.json": '{"support": [[1, 1], [2, 0]], '
                         '"weights": [Infinity, "1/2"]}',
        "inf-pool.json": "[1, Infinity]"})
    argv = [str(tmp_path / a) if a.endswith(".json") else a
            for a in NON_FINITE[route]]
    code, payload = run(tmp_path, *argv)
    assert code == 2 and payload is None
    assert "inf is not a finite number" in capsys.readouterr().err


THRESHOLD_FILES = {
    "threshold.json": {"kind": "threshold-family"},
    "dist.json": {"support": [[1, 0], [2, 1]], "weights": ["1/2", "1/2"]}}


@pytest.mark.parametrize("exact", [False, True], ids=["mc", "exact"])
@pytest.mark.parametrize("command, probability", [("ucp-sim", "3/8"),
                                                  ("pac-sim", "1")])
def test_negative_eps_exits_2_and_zero_eps_runs(tmp_path, capsys, command,
                                                probability, exact):
    """A negative eps is bad input in either estimator and either mode; it
    used to run and report probability 0.  eps = 0 asks for no deviation:
    at m = 4 every threshold's sample error is its true error iff two
    draws are (1, 0), with probability C(4, 2) / 16, and sem's output has
    true error 0 on every sample."""
    write_files(tmp_path, THRESHOLD_FILES)
    argv = [command, "--space", str(tmp_path / "threshold.json"),
            "--dist", str(tmp_path / "dist.json"), "--m", "4",
            *(["--exact"] if exact else []),
            *(["--learner", "builtin:sem"] if command == "pac-sim" else [])]
    code, payload = run(tmp_path, *argv, "--eps=-0.5")
    assert code == 2 and payload is None
    assert "eps must be >= 0, got -1/2" in capsys.readouterr().err
    code, payload = run(tmp_path, *argv, "--eps=0")
    assert code == 0 and payload["result"]["eps"] == 0
    if exact:
        assert payload["result"]["probability"] == probability


@pytest.mark.parametrize("flag", ["--eps-grid", "--delta-grid"])
def test_bounds_grid_without_csv_exits_2(tmp_path, capsys, flag):
    """A grid only sets the sweep of --csv: without it the run is refused,
    and no report is written, instead of ignoring the grid."""
    code, payload = run(tmp_path, "bounds", "--d", "1", "--eps", "0.5",
                        "--delta", "0.5", flag, "0.25,0.5")
    assert code == 2 and payload is None
    assert not (tmp_path / "sweep.csv").exists()
    assert "--csv" in capsys.readouterr().err


QUADRATIC = ("formula", "space", "--text", "x*x <= p", "--objects", "x",
             "--params", "p", "--pool", "1;2")
BOUNDS_CSV = ("bounds", "--d", "1", "--eps", "0.5", "--delta", "0.5",
              "--csv")


@pytest.mark.parametrize("argv, expected", [
    ((*QUADRATIC, "--params-list", ""), "parameter list must be non-empty"),
    ((*QUADRATIC, "--grid", ""), "every grid axis needs at least one value"),
    ((*QUADRATIC, "--params-list", "1", "--grid", "5"),
     "argument --grid: not allowed with argument --params-list"),
    (("formula", "space", *FORMULA, "--text", "x <= p", "--pool", "1;2"),
     "argument --text: not allowed with argument --file"),
    (("nfl", "--m", "1", "--instances", ""), "empty instance list"),
    (("vcdim", "--space", "space.json", "--pool", ""), "empty instance list"),
    (("growth", "--space", "space.json", "--pool", "", "--m", "1"),
     "empty instance list"),
    ((*BOUNDS_CSV, "--eps-grid", ""), "empty value list ''"),
    ((*BOUNDS_CSV, "--delta-grid", ""), "empty value list ''"),
], ids=["params-list-empty", "grid-empty", "params-list-and-grid",
        "file-and-text", "nfl-instances-empty", "vcdim-pool-empty",
        "growth-pool-empty", "eps-grid-empty", "delta-grid-empty"])
def test_empty_or_conflicting_flags_exit_2(tmp_path, capsys, argv, expected):
    """An empty flag value is read as given, not as the flag left out, and
    two flags that each set one thing conflict: each run is bad input.
    These runs used to exit 0 on the sampled source, the default NFL
    instances or the one-point grid, or with the first of the two flags;
    an empty pool was read as the current directory."""
    write_files(tmp_path, INPUT_FILES)
    argv = [str(tmp_path / a) if a in INPUT_FILES else a for a in argv]
    code, payload = run(tmp_path, *argv)
    assert code == 2 and payload is None
    assert expected in capsys.readouterr().err


# Input files for the branches of input parsing that the tests above do not
# reach.
BRANCH_FILES = {
    "atoms.json": {"kind": "full", "instances": ["a", "b"]},
    "interval.json": {"kind": "interval-family"},
    "cosingleton.json": {"kind": "co-singleton-family"},
    "short.json": {"support": [[1, 1], [2, 0]], "weights": ["1"]},
    "bogus.json": {"kind": "formula-defined", "formula": "x != p",
                   "objects": ["x"], "params": ["p"],
                   "source": {"type": "bogus"}},
    "rat.json": [{"rat": "1/2", "x": 1}],
}


@pytest.mark.parametrize("argv, code, expected", [
    (("nfl", "--m", "1", "--learner", "foo:1"), 2,
     "learner reference 'foo:1' must be builtin:NAME, file:PATH, or "
     "random:SEED"),
    (("formula", "parse", "--objects", "x"), 2,
     "provide the formula via --text or --file"),
    (("vcdim", "--space", "atoms.json", "--pool", "a;;b"), 0,
     {"value": 2, "pool": ["a", "b"]}),
    (("vcdim", "--space", "atoms.json", "--pool", ";"), 2,
     "empty instance list"),
    (("vcdim", "--space", "interval.json", "--pool", "1;2;3"), 0,
     {"value": 2, "status": "exact"}),
    (("vcdim", "--space", "cosingleton.json", "--pool", "1;2;3"), 0,
     {"value": 1, "status": "exact"}),
    (("ucp-sim", "--space", "interval.json", "--dist", "short.json",
      "--m", "1", "--eps", "0.5"), 2,
     "support and weights must have equal length"),
    (("vcdim", "--space", "bogus.json", "--pool", "1;2"), 2,
     "unknown parameter source type 'bogus'"),
    (("nfl", "--m", "1", "--learner", "builtin:nope"), 2,
     "builtin learner 'nope' not available for a finite-explicit space; "
     "choose from ['const0', 'const1', 'memorize', 'sem']"),
    (("vcdim", "--space", "interval.json", "--pool", "rat.json"), 2,
     "a pool has a malformed 'instances' field: bad rational object "
     "{'rat': '1/2', 'x': 1}"),
], ids=["learner-reference", "formula-text", "pool-empty-entry", "pool-empty",
        "interval-family", "co-singleton-family", "dist-short-weights",
        "source-type", "builtin-learner", "rational-object"])
def test_input_branches(tmp_path, capsys, argv, code, expected):
    """Each input branch gives its exit code, and either the result's
    values or its error message."""
    write_files(tmp_path, BRANCH_FILES)
    argv = [str(tmp_path / a) if a in BRANCH_FILES else a for a in argv]
    got, payload = run(tmp_path, *argv)
    assert got == code
    if code == 0:
        assert {k: payload["result"][k] for k in expected} == expected
    else:
        assert payload is None
        assert f"error: {expected}" in capsys.readouterr().err


# Exact probabilities for m = 1, 2, 3, 4 on a 10-point threshold support
# with coprime-denominator weights, computed before exact mode moved to
# integer state masses and ``approximation_error`` to integer numerators.
EXACT_SUPPORT = {
    "support": [[-7, 0], [-3, 1], [0, 0], [{"rat": "1/3"}, 1], [1, 1],
                [2, 0], [{"rat": "5/2"}, 1], [4, 1], [9, 0], [12, 1]],
    "weights": ["1/7", "1/12", "1/5", "1/9", "1/20", "1/11", "1/13", "1/10",
                "1/8", "7159/360360"],
}
EXACT_PROBABILITIES = {
    ("pac-sim", "0.05"): ["1/9", "511/3564", "66107087/366949440",
                          "979464031583/4722639292800"],
    ("ucp-sim", "0.4"): ["0", "376/6435", "285125207/883396800",
                         "73275771008521/136431801792000"],
}


@pytest.mark.parametrize("command, eps", sorted(EXACT_PROBABILITIES))
def test_exact_probabilities_are_the_pinned_ones(tmp_path, command, eps):
    space, dist = tmp_path / "space.json", tmp_path / "dist.json"
    space.write_text(json.dumps({"kind": "threshold-family"}))
    dist.write_text(json.dumps(EXACT_SUPPORT))
    learner = ["--learner", "builtin:sem"] if command == "pac-sim" else []
    code, payload = run(tmp_path, command, "--space", str(space), "--dist",
                        str(dist), "--m", "1,2,3,4", "--eps", eps, "--exact",
                        *learner)
    assert code == 0
    assert [r["probability"] for r in payload["result"]] == \
        EXACT_PROBABILITIES[command, eps]


# Jobs on paths that no bench workload runs, and the sha256 of each one's
# ``result``, taken as perfbench takes it.  A fix of a wrong answer updates
# its pin.
DIGEST_FILES = {
    "halfspace2.json": {"kind": "halfspace-family", "dim": 2},
    "halfspace3.json": {"kind": "halfspace-family", "dim": 3},
    "lines.json": {"kind": "formula-defined",
                   "formula": "0 <= a*x + b*y - 1", "objects": ["x", "y"],
                   "params": ["a", "b"], "source": {"type": "sampled"}},
    "plane-dist.json": {"support": [[[0, 0], 1], [[2, 1], 0], [[1, 3], 1],
                                    [[3, 3], 0]],
                        "weights": ["1/4", "1/5", "1/3", "13/60"]},
    "interval-formula.json": {"kind": "formula-defined",
                              "formula": "b <= x and x <= a",
                              "objects": ["x"], "params": ["a", "b"],
                              "source": {"type": "sampled"}},
    "line-dist.json": {"support": [[-2, 0], [0, 1], [1, 1],
                                   [{"rat": "5/2"}, 0], [4, 1]],
                       "weights": ["1/6", "1/4", "1/5", "1/3", "1/20"]},
}
DIGEST_JOBS = {
    "formula-space": ("formula", "space", "--text", "a * x + b * y <= 1",
                      "--objects", "x,y", "--params", "a,b",
                      "--pool=-3,1/4;4,1/4;1/2,1;1,-4"),
    "growth-concurrent-lines": ("growth", "--space", "lines.json", "--pool",
                                "1,0;0,1;1/2,1/2", "--m", "3"),
    "growth-grid": ("growth", "--space", "halfspace3.json", "--pool",
                    "1,1,0;2,2,0;1,1,1;0,0,1;0,2,2;1,2,1;1,2,0;2,2,2;1,0,0;"
                    "2,0,2", "--m", "10"),
    "vcdim-halfspace": ("vcdim", "--space", "halfspace2.json", "--pool",
                        "0,0;3,1;1,4;2,2;1/2,1/3"),
    "pac-sim-halfspace": ("pac-sim", "--space", "halfspace2.json", "--dist",
                          "plane-dist.json", "--m", "1,2,3", "--eps", "0.1",
                          "--exact", "--learner", "builtin:sem"),
    "nfl": ("nfl", "--m", "2"),
    "pac-sim-affine-formula": ("pac-sim", "--space", "lines.json", "--dist",
                               "plane-dist.json", "--m", "1,2,3", "--eps",
                               "0.1", "--exact", "--learner", "builtin:sem"),
    "pac-sim-interval-formula": ("pac-sim", "--space",
                                 "interval-formula.json", "--dist",
                                 "line-dist.json", "--m", "1,2,3", "--eps",
                                 "0.1", "--exact", "--learner",
                                 "builtin:sem"),
    "formula-shatter-affine": ("formula", "shatter", "--text",
                               "0 <= a*x + b*y - 1", "--objects", "x,y",
                               "--params", "a,b", "--instances",
                               "2,1;-1,3"),
}
RESULT_DIGESTS = {
    "formula-space":
        "20b9e535f248e8f8325381e2d7dbf03be2993efd6e41a734dcb7a434f23cbed5",
    "growth-concurrent-lines":
        "67a1169b92f56d863d9d549793b55838ce27b251703e1f0e41ce506f2a64418f",
    "growth-grid":
        "8085273ff8c85a7025aaf0fffee141b6b3d4bba1f7f941656c809889bc97a37e",
    "vcdim-halfspace":
        "5279c06183dcc0a6e230d1b039de4c366c70a262947a8da160383cc79d141bd3",
    "pac-sim-halfspace":
        "601411fd493fc993fecef352de83d71e4c23fd906c3e83b2a9b6c682f6c23a47",
    "nfl": "1e91e101ca0febcd77112fb59d96c099d4836b89bcddc31287f1bea8e605d4c8",
    "pac-sim-affine-formula":
        "c7864152449e65fcebd02ae2ed1540eb2c118086ee1b0013a2c591208bf6957c",
    "pac-sim-interval-formula":
        "62b5568394daeb0a896c8aa2085ab10df41768ae668f18b6f1fe622257866257",
    "formula-shatter-affine":
        "81dd4a896c86ccc0c25bde408e982813151a06805a8b2515b0a1cc03df34fe67",
}


def test_result_digests_are_the_pinned_ones(tmp_path):
    write_files(tmp_path, DIGEST_FILES)
    digests = {}
    for name, argv in DIGEST_JOBS.items():
        argv = [str(tmp_path / a) if a in DIGEST_FILES else a for a in argv]
        code, payload = run(tmp_path, *argv)
        assert code == 0, name
        digests[name] = hashlib.sha256(json.dumps(
            payload["result"], sort_keys=True,
            separators=(",", ":")).encode()).hexdigest()
    assert digests == RESULT_DIGESTS
