"""CLI surface and experiment harness."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import fairdiv.cli
import fairdiv.experiment as exp
from fairdiv import (generate, load_instance, max_welfare, run_solve_ef1,
                     run_solve_half_mms, save_instance)
from fairdiv.cli import build_parser, main
from fairdiv.errors import ParseError
from fairdiv.experiment import (BOUND_COLUMNS, ExperimentConfig,
                                _build_instance, _instance_jobs, _solver_row,
                                run_experiment)
from fairdiv.model import instance_from_json, instance_to_json

from conftest import diagonal

# The sha256 of the README example sweep's CSV, recorded by the benchmark.
EXPECTED_SWEEP = Path(__file__).parent.parent / "perfbench" / "expected.json"

# The example config in the README.
README_CONFIG = {
    "seed": 42,
    "solvers": ["ef1", "half-mms"],
    "epsilon": "0",
    "enum_cap": 20000000,
    "mms_state_cap": 1000000000,
    "jobs": 1,
    "trace": False,
    "families": [
        {"family": "ef1-unscaled", "n": [2, 3, 4, 5, 6]},
        {"family": "mms-scaled-sqrt", "n": [4, 9, 16]},
        {"family": "supermodular", "n": [3], "epsilon": "1/100"},
        {"family": "random", "distribution": "dirichlet-scaled",
         "n": [4], "m": [8], "count": 3},
    ],
}

# The adversarial families that read no epsilon, and so refuse one.
EPSILON_FREE = ("ef1-unscaled", "mms-scaled-sqrt", "prop1-unscaled",
                "prop1-scaled")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCli:
    def test_gen_and_check_roundtrip(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        alloc = tmp_path / "a.json"
        code, _ = run_cli(capsys, "gen", "--family", "ef1-unscaled",
                          "--n", "4", "-o", str(inst))
        assert code == 0
        code, solved = run_cli(capsys, "solve", "--alg", "ef1",
                               "--instance", str(inst), "-o", str(alloc))
        assert code == 0
        assert solved["welfare"] == "19/4"
        code, verdict = run_cli(capsys, "check", "--property", "ef1",
                                "--instance", str(inst),
                                "--allocation", str(alloc))
        assert code == 0 and verdict["holds"]

    def test_check_failure_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run_cli(capsys, "gen", "--family", "ef1-unscaled", "--n", "3",
                "-o", str(inst))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bundles": [[1, 2, 3], [], []]}))
        code, verdict = run_cli(capsys, "check", "--property", "ef1",
                                "--instance", str(inst),
                                "--allocation", str(bad))
        assert code == 1 and not verdict["holds"]

    def test_check_rejects_non_list_bundles(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run_cli(capsys, "gen", "--family", "ef1-unscaled", "--n", "2",
                "-o", str(inst))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bundles": 5}))
        code = main(["check", "--property", "ef1", "--instance", str(inst),
                     "--allocation", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: bundles must be a list, got 5\n"

    def test_mms_subcommand(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run_cli(capsys, "gen", "--family", "mms-scaled-sqrt", "--n", "4",
                "-o", str(inst))
        code, out = run_cli(capsys, "mms", "--instance", str(inst))
        assert code == 0
        assert out["mms"] == ["0", "0", "1/4", "1/4"]

    def test_mms_check_property(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        alloc = tmp_path / "a.json"
        run_cli(capsys, "gen", "--family", "mms-unscaled", "--n", "3",
                "--epsilon", "1/10", "-o", str(inst))
        run_cli(capsys, "solve", "--alg", "half-mms", "--instance", str(inst),
                "-o", str(alloc))
        code, verdict = run_cli(capsys, "check", "--property", "mms",
                                "--alpha", "1/2", "--instance", str(inst),
                                "--allocation", str(alloc))
        assert code == 0 and verdict["holds"]
        # --alpha defaults to 1/2.
        assert run_cli(capsys, "check", "--property", "mms", "--instance",
                       str(inst), "--allocation", str(alloc)) == (0, verdict)

    def test_prop1_check_property(self, tmp_path, capsys):
        # The EF1 solve is Prop1 on an additive instance; one bundle of
        # every good leaves agent 2 short of her share.
        inst = tmp_path / "i.json"
        alloc = tmp_path / "a.json"
        run_cli(capsys, "gen", "--family", "prop1-unscaled", "--n", "3",
                "-o", str(inst))
        run_cli(capsys, "solve", "--alg", "ef1", "--instance", str(inst),
                "-o", str(alloc))
        code, verdict = run_cli(capsys, "check", "--property", "prop1",
                                "--instance", str(inst),
                                "--allocation", str(alloc))
        assert code == 0 and verdict["holds"]
        assert sorted(verdict["certificate"]) == ["1", "2", "3"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bundles": [[1, 2, 3, 4], [], []]}))
        code, verdict = run_cli(capsys, "check", "--property", "prop1",
                                "--instance", str(inst),
                                "--allocation", str(bad))
        assert code == 1 and not verdict["holds"]
        assert verdict["property"] == "prop1"
        assert verdict["witness"]["agent"] == 2

    def test_pof_subcommand(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run_cli(capsys, "gen", "--family", "ef1-unscaled", "--n", "4",
                "-o", str(inst))
        code, out = run_cli(capsys, "pof", "--instance", str(inst),
                            "--property", "ef1")
        assert code == 0
        assert out["price"] == "64/19"

    def test_pof_infinite(self, tmp_path, capsys):
        # Both agents value both goods at 1, so MMS = 1 and no allocation
        # gives each agent 2 * MMS.
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({
            "n": 2, "m": 2, "scaled": False,
            "valuations": [{"kind": "additive", "values": ["1", "1"]}] * 2}))
        code = main(["pof", "--instance", str(inst), "--property", "mms",
                     "--alpha", "2"])
        assert code == 0
        assert capsys.readouterr().out == (
            '{\n  "opt": "2",\n  "price": "infinite",\n'
            '  "price_dec": "inf",\n  "property": "mms"\n}\n')

    @pytest.mark.parametrize("command", ["check", "pof"])
    def test_negative_alpha_rejected(self, tmp_path, capsys, command):
        # Every MMS requirement would be negative, so any allocation, even
        # the empty one, would pass. Alpha is rejected before any oracle
        # runs, also on an instance past the MMS and enumeration caps.
        for n, gen in [(2, ["--family", "ef1-unscaled"]),
                       (8, ["--family", "random", "--distribution",
                            "dirichlet-scaled", "--m", "32"])]:
            inst = tmp_path / f"i{n}.json"
            alloc = tmp_path / f"a{n}.json"
            run_cli(capsys, "gen", *gen, "--n", str(n), "-o", str(inst))
            alloc.write_text(json.dumps({"bundles": [[]] * n}))
            files = {"check": ["--allocation", str(alloc)]}
            code = main([command, "--property", "mms", "--alpha", "-1",
                         "--instance", str(inst), *files.get(command, [])])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.splitlines() == [
                "error: alpha -1 is negative"]

    def test_half_mms_epsilon_outside_half_rejected(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        run_cli(capsys, "gen", "--family", "random", "--distribution",
                "dirichlet-scaled", "--n", "4", "--m", "8", "--seed", "1",
                "-o", str(path))
        code = main(["solve", "--alg", "half-mms", "--epsilon", "5",
                     "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert lines == ["error: epsilon 5 outside [0, 1/2)"]

    def test_rescale(self, tmp_path, capsys):
        src = tmp_path / "u.json"
        dst = tmp_path / "s.json"
        run_cli(capsys, "gen", "--family", "random", "--n", "2", "--m", "3",
                "--seed", "4", "-o", str(src))
        code, _ = run_cli(capsys, "rescale", "--instance", str(src),
                          "-o", str(dst))
        assert code == 0
        from fairdiv import load_instance
        assert load_instance(dst).scaled

    def test_random_gen_with_trace_solve(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        run_cli(capsys, "gen", "--family", "random", "--distribution",
                "dirichlet-scaled", "--n", "4", "--m", "8", "--seed", "0",
                "-o", str(path))
        inst = load_instance(path)
        assert inst == generate("random", 4, 8,
                                distribution="dirichlet-scaled", seed=0)
        code, out = run_cli(capsys, "solve", "--alg", "ef1", "--trace",
                            "--instance", str(path))
        assert code == 0
        run = run_solve_ef1(inst)
        assert out["allocation"] == [[g + 1 for g in sorted(b)]
                                     for b in run.allocation.bundles]
        assert run.high_run.iterations >= 1
        assert out["trace"] == [e.to_json() for e in run.high_run.trace]
        for event in out["trace"]:
            assert set(event) == {"phase", "agent", "bundle", "label"}
            assert event["phase"] == "prefix" and event["label"] == ""
            assert 1 <= event["agent"] <= inst.n
            assert event["bundle"] and all(1 <= g <= inst.m
                                           for g in event["bundle"])

    def test_solve_with_supplied_reference(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        ref = tmp_path / "ref.json"
        run_cli(capsys, "gen", "--family", "random", "--distribution",
                "dirichlet-scaled", "--n", "3", "--m", "5", "--seed", "2",
                "-o", str(inst))
        # The exact optimum written back as the user-supplied reference.
        run_cli(capsys, "solve", "--alg", "ef1", "--instance", str(inst),
                "-o", str(ref))
        from fairdiv import load_instance, max_welfare, save_allocation
        opt_alloc, _ = max_welfare(load_instance(inst))
        save_allocation(opt_alloc, ref)
        code, out = run_cli(capsys, "solve", "--alg", "ef1",
                            "--instance", str(inst),
                            "--reference", str(ref))
        assert code == 0 and "welfare" in out

    def test_ef1_solve_of_explicit_instance_over_the_cap(self, tmp_path,
                                                         capsys):
        # 11^11 allocations exceed the enumeration cap, so the scaled
        # instance's reference must be supplied; a complete one is trusted.
        inst = tmp_path / "i.json"
        ref = tmp_path / "ref.json"
        alloc = tmp_path / "a.json"
        run_cli(capsys, "gen", "--family", "supermodular", "--n", "11",
                "--epsilon", "1/100", "-o", str(inst))
        code = main(["solve", "--alg", "ef1", "--instance", str(inst)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: explicit instance over the "
                                "enumeration cap and no supplied reference "
                                "allocation\n")
        ref.write_text(json.dumps({"bundles": [[g] for g in range(1, 12)]}))
        code, out = run_cli(capsys, "solve", "--alg", "ef1", "--instance",
                            str(inst), "--reference", str(ref), "-o",
                            str(alloc))
        assert code == 0 and out["branch"] in ("abs", "high")
        code, out = run_cli(capsys, "check", "--property", "ef1",
                            "--instance", str(inst), "--allocation",
                            str(alloc))
        assert code == 0 and out["holds"]

    # Each refused option: exit 2, nothing on stdout, one error line.
    @pytest.mark.parametrize("argv, error", [
        (["gen", "--family", "supermodular", "--n", "3", "--epsilon",
          "0.01"], "not a rational: "),
        (["solve", "--alg", "half-mms", "--epsilon", "1e-1"],
         "not a rational: "),
        (["mms", "--epsilon", "+1/10"], "not a rational: "),
        (["check", "--property", "mms", "--alpha", "0.5"], "not a rational: "),
        (["pof", "--property", "mms", "--alpha", " 1/2"], "not a rational: "),
        (["gen", "--family", "ef1-unscaled", "--n", "2", "--m", "9"],
         "ef1-unscaled takes no m"),
        (["gen", "--family", "mms-scaled-sqrt", "--n", "4", "--distribution",
          "dirichlet-scaled"], "mms-scaled-sqrt takes no distribution"),
        (["gen", "--family", "random", "--n", "2", "--m", "3", "--epsilon",
          "1/10"], "random takes no epsilon"),
        (["gen", "--family", "random-subadditive", "--n", "2", "--m", "3",
          "--epsilon", "1/10"], "random-subadditive takes no epsilon"),
        (["gen", "--family", "random-subadditive", "--n", "2", "--m", "3",
          "--distribution", "uniform-rational"],
         "random-subadditive takes no distribution"),
        (["gen", "--family", "ef1-unscaled", "--n", "2", "--seed", "5"],
         "ef1-unscaled takes no seed"),
        (["gen", "--family", "supermodular", "--n", "3", "--epsilon",
          "1/100", "--seed", "0"], "supermodular takes no seed"),
        (["gen", "--family", "ef1-unscaled", "--n", "2", "--seed", "-1"],
         "ef1-unscaled takes no seed"),
        (["gen", "--family", "random", "--n", "2", "--m", "3", "--seed",
          "-1"], "need seed >= 0, got -1"),
        (["gen", "--family", "random-subadditive", "--n", "2", "--m", "3",
          "--seed", "-5"], "need seed >= 0, got -5"),
        (["gen", "--family", "nosuch", "--n", "2"],
         "unknown family 'nosuch'; expected one of ("),
        (["check", "--property", "prop1", "--alpha", "-5"],
         "property prop1 takes no --alpha"),
        (["check", "--property", "ef1", "--alpha", "1/3"],
         "property ef1 takes no --alpha"),
        (["pof", "--property", "ef1", "--alpha", "-1"],
         "property ef1 takes no --alpha"),
        (["pof", "--property", "prop1", "--alpha", "-1"],
         "property prop1 takes no --alpha"),
        (["solve", "--alg", "half-mms", "--reference", "/nonexistent.json"],
         "algorithm half-mms takes no --reference"),
        (["solve", "--alg", "ef1", "--epsilon", "1/10"],
         "algorithm ef1 takes no --epsilon"),
        (["solve", "--alg", "half-mms", "--epsilon", ""], "not a rational: "),
        (["mms", "--epsilon", ""], "not a rational: "),
        (["gen", "--family", "random", "--n", "2", "--m", "2", "--epsilon",
          ""], "not a rational: "),
        (["solve", "--alg", "ef1", "--reference", ""], "cannot read : "),
        *[(["gen", "--family", family, "--n", "4", "--epsilon", "1/3"],
           f"{family} takes no epsilon") for family in EPSILON_FREE],
    ], ids=["gen-epsilon", "solve-epsilon", "mms-epsilon", "check-alpha",
            "pof-alpha", "gen-adversarial-m", "gen-adversarial-distribution",
            "gen-random-epsilon", "gen-subadditive-epsilon",
            "gen-subadditive-distribution", "gen-adversarial-seed",
            "gen-adversarial-seed-zero", "gen-adversarial-negative-seed",
            "gen-random-negative-seed", "gen-subadditive-negative-seed",
            "gen-unknown-family",
            "check-prop1-alpha", "check-ef1-alpha", "pof-ef1-alpha",
            "pof-prop1-alpha", "solve-half-mms-reference",
            "solve-ef1-epsilon", "solve-empty-epsilon", "mms-empty-epsilon",
            "gen-random-empty-epsilon", "solve-empty-reference",
            *[f"gen-{family}-epsilon" for family in EPSILON_FREE]])
    def test_non_strict_rational_option_rejected(self, tmp_path, capsys,
                                                 argv, error):
        inst = tmp_path / "i.json"
        alloc = tmp_path / "a.json"
        run_cli(capsys, "gen", "--family", "ef1-unscaled", "--n", "2",
                "-o", str(inst))
        alloc.write_text(json.dumps({"bundles": [[1], [2]]}))
        files = {"gen": ["-o", str(tmp_path / "g.json")],
                 "check": ["--instance", str(inst),
                           "--allocation", str(alloc)]}
        code = main(argv + files.get(argv[0], ["--instance", str(inst)]))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: " + error)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("family", [
        ["random", "--distribution", "dirichlet-scaled"],
        ["random-subadditive"]])
    def test_random_gen_seed_defaults_to_zero(self, capsys, family):
        gen = ["gen", "--family", *family, "--n", "3", "--m", "5"]
        assert main(gen) == 0
        unseeded = capsys.readouterr().out
        assert main(gen + ["--seed", "0"]) == 0
        assert capsys.readouterr().out == unseeded
        assert main(gen + ["--seed", "1"]) == 0
        assert capsys.readouterr().out != unseeded

    def test_outputs_are_json_dumps_text(self, tmp_path, capsys):
        # Every command's stdout and file, as `json.dumps(indent=2,
        # sort_keys=True)` writes it.
        inst, alloc, sub = (tmp_path / name for name in
                            ("i.json", "a.json", "s.json"))
        commands = [
            ["gen", "--family", "random", "--distribution",
             "dirichlet-scaled", "--n", "4", "--m", "8", "--seed", "1",
             "-o", str(inst)],
            ["gen", "--family", "random-subadditive", "--n", "3", "--m", "5",
             "-o", str(sub)],
            ["gen", "--family", "mms-scaled-sqrt", "--n", "9"],
            ["solve", "--alg", "ef1", "--instance", str(inst), "--trace"],
            ["solve", "--alg", "half-mms", "--instance", str(inst),
             "-o", str(alloc)],
            ["check", "--property", "ef1", "--instance", str(inst),
             "--allocation", str(alloc)],
            ["check", "--property", "prop1", "--instance", str(inst),
             "--allocation", str(alloc)],
            ["check", "--property", "mms", "--instance", str(inst),
             "--allocation", str(alloc)],
            ["mms", "--instance", str(inst), "--epsilon", "1/10"],
            ["pof", "--instance", str(sub), "--property", "ef1"],
        ]
        for argv in commands:
            assert main(argv) in (0, 1)
            texts = [capsys.readouterr().out]
            texts += [path.read_text() for path in (inst, alloc, sub)
                      if path.exists()]
            for text in texts:
                assert text == json.dumps(json.loads(text), indent=2,
                                          sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", ["gen", "solve", "rescale",
                                         "experiment"])
    def test_write_failure_exits_2(self, tmp_path, capsys, command):
        # A target in a missing directory, or under a regular file.
        inst, config = tmp_path / "i.json", tmp_path / "c.json"
        run_cli(capsys, "gen", "--family", "ef1-unscaled", "--n", "2",
                "-o", str(inst))
        config.write_text(json.dumps({"families": [
            {"family": "ef1-unscaled", "n": [2]}]}))
        missing = str(tmp_path / "missing" / "x.json")
        argv = {"gen": ["gen", "--family", "ef1-unscaled", "--n", "2",
                        "-o", missing],
                "solve": ["solve", "--alg", "ef1", "--instance", str(inst),
                          "-o", missing],
                "rescale": ["rescale", "--instance", str(inst),
                            "-o", missing],
                "experiment": ["experiment", "--config", str(config),
                               "-o", str(inst / "report")]}[command]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "missing").exists()

    def test_error_reported_cleanly(self, tmp_path, capsys):
        code = main(["gen", "--family", "prop1-scaled", "--n", "5",
                     "-o", str(tmp_path / "x.json")])
        assert code == 2

    def test_gen_refuses_explicit_goods_over_cap(self, capsys):
        code = main(["gen", "--family", "random-subadditive", "--n", "2",
                     "--m", "21"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "exceeds the cap of 20" in lines[0]


class TestRepeatedMain:
    """`main` reuses one parser; no call may see another call's options."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_trace_does_not_carry_over(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        save_instance(diagonal(36), path)
        solve = ["solve", "--alg", "half-mms", "--instance", str(path)]
        code, traced = run_cli(capsys, *solve, "--trace")
        assert code == 0 and traced["trace"]
        code, plain = run_cli(capsys, *solve)
        assert code == 0 and "trace" not in plain
        del traced["trace"]
        assert plain == traced

    def test_bad_argument_then_valid_check(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        alloc = tmp_path / "a.json"
        run_cli(capsys, "gen", "--family", "ef1-unscaled", "--n", "3",
                "-o", str(inst))
        alloc.write_text(json.dumps({"bundles": [[1], [2], [3]]}))
        check = ["check", "--property", "ef1", "--instance", str(inst),
                 "--allocation", str(alloc)]
        assert main(check) == 0
        alone = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alg", "bogus", "--instance", str(inst)])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(check) == 0
        assert capsys.readouterr().out == alone

    def test_default_epsilon_comes_back(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "i.json"
        save_instance(generate("random", 4, 8,
                               distribution="dirichlet-scaled", seed=1), path)
        seen = []

        def spy(inst, epsilon):
            seen.append(epsilon)
            return run_solve_half_mms(inst, epsilon=epsilon)

        monkeypatch.setattr(fairdiv.cli, "run_solve_half_mms", spy)
        solve = ["solve", "--alg", "half-mms", "--instance", str(path)]
        assert run_cli(capsys, *solve, "--epsilon", "1/10")[0] == 0
        assert run_cli(capsys, *solve)[0] == 0
        assert seen == [Fraction(1, 10), Fraction(0)]
        mms = ["mms", "--instance", str(path)]
        assert run_cli(capsys, *mms, "--epsilon", "1/10")[1]["epsilon"] \
            == "1/10"
        assert run_cli(capsys, *mms)[1]["epsilon"] == "0"


def test_cli_import_leaves_out_the_process_pool():
    # A one-shot `solve` or `check` never runs the sweep's process pool, so
    # importing the CLI must not load `multiprocessing`.
    src = str(Path(fairdiv.cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, fairdiv.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent', 'fairdiv.experiment'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


class TestExperiment:
    CONFIG = {
        "seed": 7,
        "solvers": ["ef1", "half-mms"],
        "families": [
            {"family": "ef1-unscaled", "n": [2, 3, 4]},
            {"family": "supermodular", "n": [3], "epsilon": "1/100"},
            {"family": "random", "distribution": "dirichlet-scaled",
             "n": [3], "m": [5], "count": 2},
        ],
    }

    def test_report_shape_and_bounds(self, tmp_path):
        report = run_experiment(self.CONFIG, outdir=tmp_path / "r")
        assert len(report.rows) == 12
        for row in report.rows:
            for col in BOUND_COLUMNS:
                assert row[col] in ("pass", "n/a", "skipped")
            # Every passing cell but the two fairness verdicts has a
            # margin, and each margin is at least 1.
            assert set(row["margins"]) == {
                col for col in BOUND_COLUMNS if row[col] == "pass"} - {
                "ef1_holds", "half_mms_holds"}
            for margin in row["margins"].values():
                assert margin == "inf" or Fraction(margin) >= 1
        assert (tmp_path / "r" / "results.csv").exists()
        assert (tmp_path / "r" / "results.json").exists()

    def test_price_column_weakly_increasing_on_gap_family(self, tmp_path):
        report = run_experiment({
            "seed": 1, "solvers": ["ef1"],
            "families": [{"family": "ef1-unscaled", "n": [2, 3, 4, 5, 6]}],
        })
        prices = [Fraction(r["price_ratio"]) for r in report.rows]
        assert all(a <= b for a, b in zip(prices, prices[1:]))
        for n, price in zip((2, 3, 4, 5, 6), prices):
            assert price >= Fraction(n * n, n + 1)

    def test_block_family_constrained_cell_capped_or_skipped(self):
        report = run_experiment({
            "seed": 2, "solvers": ["half-mms"],
            "families": [{"family": "mms-scaled-sqrt", "n": [4, 9, 16]}],
        })
        by_n = {r["n"]: r for r in report.rows}
        assert Fraction(by_n[4]["constrained_welfare"]) <= 2
        assert by_n[9]["constrained_welfare"] == "skipped"
        assert by_n[16]["constrained_welfare"] == "skipped"
        # Bound-only mode still checks the theorem inequalities.
        assert by_n[16]["welfare_vs_opt_15sqrt"] == "pass"

    def test_block_family_sqrt_margins(self):
        # (16*(2 - 1/sqrt n))^2 and (15*(2 - 1/sqrt n))^2: the solvers' exact
        # squared margins n*(c*SW)^2/OPT^2 on the block family.
        report = run_experiment({
            "seed": 2, "solvers": ["ef1", "half-mms"],
            "families": [{"family": "mms-scaled-sqrt", "n": [4, 9, 16]}],
        })
        margins = {(r["n"], col): r["margins"][col] for r in report.rows
                   for col in r["margins"] if "_opt_" in col}
        assert margins == {
            (4, "welfare_vs_opt_16sqrt"): "576",
            (9, "welfare_vs_opt_16sqrt"): "6400/9",
            (16, "welfare_vs_opt_16sqrt"): "784",
            (4, "welfare_vs_opt_15sqrt"): "2025/4",
            (9, "welfare_vs_opt_15sqrt"): "625",
            (16, "welfare_vs_opt_15sqrt"): "11025/16"}

    def test_mixed_additive_and_subadditive_in_bound_scope(self):
        # Additive valuations are subadditive, so an additive agent beside a
        # subadditive table keeps the EF1 welfare bounds in scope.
        inst = instance_from_json({
            "n": 2, "m": 3, "scaled": True, "valuations": [
                {"kind": "additive", "values": ["1/2", "1/4", "1/4"]},
                {"kind": "explicit", "subadditive": True, "table": {
                    "1": "1/2", "2": "1/2", "3": "1/2", "1,2": "3/4",
                    "1,3": "3/4", "2,3": "3/4", "1,2,3": "1"}}]})
        row = _solver_row("mixed", inst, "ef1", ExperimentConfig.from_json({}),
                          max_welfare(inst)[1],
                          sum(map(inst.total_value, range(inst.n))))
        assert row["welfare_vs_total_2n"] == "pass"
        assert row["welfare_vs_opt_16sqrt"] == "pass"

    def test_one_instance_alive_at_a_time(self, monkeypatch):
        build, alive = exp._build_instance, []

        def tracked(job, seed):
            gc.collect()
            assert [ref for ref in alive if ref() is not None] == []
            ident, inst = build(job, seed)
            alive.append(weakref.ref(inst))
            return ident, inst

        monkeypatch.setattr(exp, "_build_instance", tracked)
        assert len(run_experiment(self.CONFIG).rows) == 12
        assert len(alive) == 6

    def test_determinism_byte_identical_csv(self, tmp_path):
        a = run_experiment(self.CONFIG, outdir=tmp_path / "a")
        b = run_experiment(self.CONFIG, outdir=tmp_path / "b")
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
            (tmp_path / "b" / "results.csv").read_bytes()

    def test_empty_family_list(self, tmp_path):
        report = run_experiment({"seed": 0, "families": []},
                                outdir=tmp_path / "e")
        assert report.rows == []
        assert (tmp_path / "e" / "results.csv").read_text().strip() != ""

    def test_infeasible_cells_marked_skipped(self):
        # Low caps force the constrained-opt column to skip, never vanish.
        # On the explicit family OPT itself is beyond the cap.
        report = run_experiment({
            "seed": 0, "solvers": ["ef1"], "enum_cap": 10,
            "families": [{"family": "ef1-unscaled", "n": [4]},
                         {"family": "random-subadditive", "n": [2],
                          "m": [4], "count": 1}],
        })
        for row in report.rows:
            assert row["constrained_welfare"] == "skipped"
            assert row["price_ratio"] == "skipped"
        assert report.rows[0]["opt"] == "16"
        assert report.rows[1]["opt"] == "skipped"

    def test_solver_mismatch_marked_skipped(self):
        # half-mms on an explicit (subadditive) instance is out of scope.
        report = run_experiment({
            "seed": 0, "solvers": ["half-mms"],
            "families": [{"family": "random-subadditive",
                          "n": [2], "m": [3], "count": 1}],
        })
        assert report.rows[0]["welfare"] == "skipped"

    def test_trace_files_written(self, tmp_path):
        # Two instances, one whose EF1 high loop records no step and one
        # that records three; half-mms takes its absolute branch on both,
        # so those rows carry no high trace.
        config = ExperimentConfig.from_json({
            "seed": 3, "solvers": ["ef1", "half-mms"], "trace": True,
            "families": [{"family": "random",
                          "distribution": "dirichlet-scaled",
                          "n": [4], "m": [8], "count": 2}],
        })
        report = run_experiment(config, outdir=tmp_path / "t")
        insts = [_build_instance(job, config.seed)[1]
                 for job in _instance_jobs(config)]
        steps = 0
        for row, (inst, solver) in zip(report.rows, [
                (inst, s) for inst in insts for s in config.solvers]):
            assert row["solver"] == solver
            blob = json.loads((tmp_path / "t" / row["trace_path"]).read_text())
            run = (run_solve_ef1(inst) if solver == "ef1"
                   else run_solve_half_mms(inst))
            assert blob["branch"] == run.branch
            if run.high_run is None:
                assert "high_trace" not in blob
                continue
            assert blob["high_trace"] == [e.to_json()
                                          for e in run.high_run.trace]
            for event in blob["high_trace"]:
                assert 1 <= event["agent"] <= inst.n
                assert all(1 <= g <= inst.m for g in event["bundle"])
            steps += len(blob["high_trace"])
        assert len(report.rows) == 4 and steps == 3

    def test_cli_experiment(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code = main(["experiment", "--config", str(cfg),
                     "-o", str(tmp_path / "out")])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "results.csv").exists()

    def test_bound_violation_aborts_with_row_and_trace(self, monkeypatch):
        # The welfare bounds are proven, so a violation can only mean an
        # implementation bug; simulate one and confirm the run aborts with
        # the offending row and trace attached rather than emitting it.
        from fairdiv.fairness import FairnessVerdict

        monkeypatch.setattr(
            exp, "is_ef1",
            lambda inst, alloc: FairnessVerdict(holds=False, prop="ef1",
                                                witness={"agent": 1}))
        with pytest.raises(exp.BoundViolation) as err:
            run_experiment({
                "seed": 0, "solvers": ["ef1"],
                "families": [{"family": "ef1-unscaled", "n": [2]}],
            })
        assert err.value.row["instance_id"] == "ef1-unscaled-n2"
        assert err.value.trace is not None

    @pytest.mark.parametrize("column", BOUND_COLUMNS)
    def test_each_bound_violation_aborts(self, column, monkeypatch):
        # Each entry, forced false on a row where it applies (a scaled
        # instance for EF1; OPT > 5*sqrt(n) takes half-MMS's high branch).
        def failing(check):
            def forced(facts):
                sides = check(facts)
                return (sides[0], 0, 1) if isinstance(sides, tuple) else False
            return forced

        bounds = tuple(b._replace(check=failing(b.check))
                       if b.column == column else b for b in exp.BOUNDS)
        monkeypatch.setattr(exp, "BOUNDS", bounds)
        solver = next(b.solver for b in bounds if b.column == column)
        ident, inst = (("dirichlet", generate("random", 4, 8,
                                              distribution="dirichlet-scaled",
                                              seed=1)) if solver == "ef1"
            else ("diagonal", diagonal(26)))
        with pytest.raises(exp.BoundViolation) as err:
            _solver_row(ident, inst, solver, ExperimentConfig.from_json({}),
                        max_welfare(inst)[1],
                        sum(map(inst.total_value, range(inst.n))))
        assert str(err.value) == (f"theorem inequality {column} failed on "
                                  f"{ident} (solver {solver})")
        assert err.value.row["instance_id"] == ident
        assert err.value.row[column] == "n/a"
        assert err.value.trace["branch"]

    def test_readme_sweep_csv_matches_recorded_sha256(self, tmp_path):
        recorded = json.loads(EXPECTED_SWEEP.read_text())["pof-sweep"]
        run_experiment(dict(README_CONFIG, seed=recorded["seed"]),
                       outdir=tmp_path)
        csv_bytes = (tmp_path / "results.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == \
            recorded["csv_sha256"]
        # The report's JSON, rendered directly, is `json.dumps`' text.
        text = (tmp_path / "results.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"

    @pytest.mark.parametrize("change", [
        {"trace": "false"}, {"trace": 0}, {"seed": 4.7}, {"seed": "7"},
        {"seed": True}, {"jobs": "2"}, {"enum_cap": 1e6},
        {"mms_state_cap": None}, {"epsilon": "0.1"},
        {"families": [{"family": "ef1-unscaled", "n": [2.0]}]},
        {"families": [{"family": "ef1-unscaled", "n": "2"}]},
        {"families": [{"family": "random", "n": [2], "m": ["3"]}]},
        {"families": [{"family": "random", "n": [2], "m": [3],
                       "count": True}]},
        {"families": ["ef1-unscaled"]},
        {"solvers": 5}, {"solvers": "ef1"},
        {"epsilon": "1/2"}, {"epsilon": "-1/10"},
        {"families": [{"family": "random", "distribution": "bogus",
                       "n": [2], "m": [3]}]},
        {"families": [{"family": "random", "distribution": 5,
                       "n": [2], "m": [3]}]},
        {"families": [{"family": "random", "n": [0], "m": [3]}]},
        {"families": [{"family": "random", "n": [2], "m": [0]}]},
        {"families": [{"family": "random", "n": [2], "m": [-1]}]},
        {"families": [{"family": "ef1-unscaled", "n": [0]}]},
        {"families": [{"family": "supermodular", "n": [3],
                       "epsilon": "2"}]},
        {"families": [{"family": "supermodular", "n": [3]}]},
        {"families": [{"family": "supermodular", "n": [1],
                       "epsilon": "1/100"}]},
        {"families": [{"family": "prop1-scaled", "n": [3]}]},
        {"families": [{"family": "mms-unscaled", "n": [3]}]},
        {"families": [{"family": "random-subadditive", "n": [2],
                       "m": [21]}]},
        {"families": [{"family": "supermodular", "n": [21],
                       "epsilon": "1/100"}]},
        {"jobs": 0}, {"jobs": -1}, {"enum_cap": -1}, {"mms_state_cap": -1},
        {"families": [{"family": "random", "n": [2], "m": [3],
                       "count": 0}]},
        {"families": [{"family": "random", "n": [2], "m": [3],
                       "count": -2}]},
        {"solver": ["ef1"]}, {"Seed": 1},
        {"families": [{"family": "ef1-unscaled", "n": [2], "m": [9]}]},
        {"families": [{"family": "ef1-unscaled", "n": [2], "count": 2}]},
        {"families": [{"family": "mms-scaled-sqrt", "n": [4],
                       "distribution": "uniform-rational"}]},
        {"families": [{"family": "random", "n": [2], "m": [3],
                       "epsilon": "1/10"}]},
        {"families": [{"family": "random-subadditive", "n": [2], "m": [3],
                       "distribution": "uniform-rational"}]},
        {"families": [{"family": "random", "n": [2], "m": [3], "cout": 2}]},
        {"families": [{"family": "ef1-unscaled"}]},
        {"families": [{"family": "random", "n": [4]}]},
        {"families": [{"family": "ef1-unscaled", "n": []}]},
        {"families": [{"family": "random", "n": [4], "m": []}]},
        {"families": [{"family": ["random"], "n": [4], "m": [3]}]},
        *[{"families": [{"family": family, "n": [4], "epsilon": "1/3"}]}
          for family in EPSILON_FREE],
    ], ids=["trace-string", "trace-int", "seed-float", "seed-string",
            "seed-bool", "jobs-string", "enum-cap-float", "mms-cap-null",
            "epsilon-decimal", "family-n-float", "family-n-string",
            "family-m-string", "family-count-bool", "family-string",
            "solvers-int", "solvers-string", "epsilon-half",
            "epsilon-negative", "distribution-bogus", "distribution-int",
            "random-n-zero", "random-m-zero", "random-m-negative",
            "ef1-unscaled-n-zero", "supermodular-epsilon-two",
            "supermodular-no-epsilon", "supermodular-n-one",
            "prop1-scaled-n-not-square", "mms-unscaled-no-epsilon",
            "subadditive-m-over-cap", "supermodular-n-over-cap",
            "jobs-zero", "jobs-negative", "enum-cap-negative",
            "mms-cap-negative", "family-count-zero",
            "family-count-negative", "unknown-key-solver", "unknown-key-case",
            "adversarial-m", "adversarial-count", "adversarial-distribution",
            "random-epsilon", "subadditive-distribution", "family-key-typo",
            "family-no-n", "random-no-m", "family-n-empty", "random-m-empty",
            "family-name-list",
            *[f"{family}-epsilon" for family in EPSILON_FREE]])
    def test_config_rejects_wrong_json_types(self, change):
        with pytest.raises(ParseError):
            ExperimentConfig.from_json(dict(self.CONFIG, **change))

    @pytest.mark.parametrize("data, error", [
        ([], "experiment config must be a JSON object"),
        ({"solvers": ["ef1", "ef2"]}, "unknown solver 'ef2'; expected "),
        ({"families": {"family": "random"}}, "'families' must be a list")],
        ids=["not-an-object", "unknown-solver", "families-not-a-list"])
    def test_config_refusal_names_the_fault(self, data, error):
        with pytest.raises(ParseError, match=f"^{error}"):
            ExperimentConfig.from_json(data)

    def test_row_ids_and_instances_pinned(self):
        # One config holding every family: adversarial with and without
        # epsilon, `random` by its default distribution and by a named one,
        # and `random-subadditive`. Each row id, and a sha256 prefix of its
        # instance's JSON, as the per-family dispatch wrote them.
        config = ExperimentConfig.from_json({"seed": 7, "families": [
            {"family": "ef1-unscaled", "n": [2, 3]},
            {"family": "mms-unscaled", "n": [3], "epsilon": "1/3"},
            {"family": "mms-scaled-sqrt", "n": [4]},
            {"family": "prop1-unscaled", "n": [2]},
            {"family": "prop1-scaled", "n": [4]},
            {"family": "supermodular", "n": [3], "epsilon": "1/100"},
            {"family": "random", "n": [2], "m": [3, 4], "count": 2},
            {"family": "random", "distribution": "dirichlet-scaled",
             "n": [3], "m": [5]},
            {"family": "random-subadditive", "n": [2], "m": [3],
             "count": 2}]})
        rows = []
        for job in _instance_jobs(config):
            ident, inst = _build_instance(job, config.seed)
            text = json.dumps(instance_to_json(inst), sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()
            rows.append((ident, digest[:12]))
        assert rows == [
            ("ef1-unscaled-n2", "5b8748909492"),
            ("ef1-unscaled-n3", "c46d71905032"),
            ("mms-unscaled-n3-e1_3", "741ba9907949"),
            ("mms-scaled-sqrt-n4", "6e2adf8424de"),
            ("prop1-unscaled-n2", "6cf0df6f8bb0"),
            ("prop1-scaled-n4", "d5d8ec8461dd"),
            ("supermodular-n3-e1_100", "4fb8bd88511d"),
            ("random-uniform-rational-n2-m3-i0", "4fdaa20d218b"),
            ("random-uniform-rational-n2-m3-i1", "7aef8f7b7542"),
            ("random-uniform-rational-n2-m4-i0", "22e75e231e68"),
            ("random-uniform-rational-n2-m4-i1", "acc4e6356dce"),
            ("random-dirichlet-scaled-n3-m5-i0", "3cc47e76bc4b"),
            ("random-subadditive-n2-m3-i0", "ac2f25c452eb"),
            ("random-subadditive-n2-m3-i1", "393f55ecc031")]

    def test_cli_experiment_rejects_coerced_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, trace="false")))
        code = main(["experiment", "--config", str(cfg),
                     "-o", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "'trace' must be true or false" in captured.err
        assert not (tmp_path / "out").exists()

    def test_worker_pool_matches_inline(self, tmp_path):
        seq = run_experiment(self.CONFIG)
        par = run_experiment(dict(self.CONFIG, jobs=2))
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]
        assert strip(seq.rows) == strip(par.rows)
