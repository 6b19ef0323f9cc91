import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opertail import LiouvilleParams
from opertail.cli import _BLOCK_ROWS, _write_csv, main


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


TESTBED = {"a": [1.0, 1.0], "g": {"type": "inverted_dirichlet", "theta": 3.0}}


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestEval:
    def test_tail_density_points(self, tmp_path, capsys):
        cfg = {"distribution": TESTBED,
               "task": {"evaluator": "liouville_copula_tail_density",
                        "points": [[1.0, 1.0], [1.0, 2.0]]}}
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "eval.csv")
        assert float(rows[0]["value"]) == pytest.approx(0.25, rel=1e-12)
        assert float(rows[1]["value"]) == pytest.approx(2.0 * 1.5 ** -3 * 0.25,
                                                        rel=1e-12)
        # 17 significant digits are preserved in the file
        assert rows[0]["value"] == "0.25"
        assert "liouville_copula_tail_density" not in rows[0]  # header columns
        assert rows[0]["normalization"]

    def test_exponent_function(self, tmp_path):
        cfg = {"distribution": TESTBED,
               "task": {"evaluator": "exponent_function",
                        "points": [[1.0, 1.0]]}}
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "eval.csv")
        assert float(rows[0]["value"]) == pytest.approx(1.5, abs=1e-6)

    def test_grid_expansion(self, tmp_path):
        cfg = {"distribution": TESTBED,
               "task": {"evaluator": "joint_density",
                        "grid": {"start": 0.5, "stop": 2.0, "num": 3}}}
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "eval.csv")
        assert len(rows) == 9
        for row in rows:
            x, y = float(row["w1"]), float(row["w2"])
            assert float(row["value"]) == pytest.approx(
                2.0 * (1 + x + y) ** -3.0, rel=1e-12)

    def test_csv_fields_are_17g(self, tmp_path):
        cfg = {"distribution": TESTBED,
               "task": {"evaluator": "limiting_density",
                        "points": [[1.0, 1.0], [0.1, 1.0 / 3.0], [2.5, 1e-9]]}}
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert lines[0] == "w1,w2,value,formula,normalization"
        assert len(lines) == 4
        for line in lines[1:]:
            *nums, formula, note = line.split(",")
            assert nums == [f"{float(v):.17g}" for v in nums]
            assert (formula, note) == ("operator-limit", "c_f carried in the limit form")
        assert lines[2].startswith("0.10000000000000001,0.33333333333333331,")

    @pytest.mark.parametrize("task,field", [
        ({"points": [["a", 1.0]]}, "'points'"),
        ({"points": "abc"}, "'points'"),
        ({"points": [[1.0, 1.0], [1.0, [2.0]]]}, "'points'"),
        ({"points": []}, "'points'"),
        ({"grid": {"num": "x"}}, "'grid.num'"),
        ({"grid": {"num": 0}}, "'grid.num'"),
        ({"grid": {"num": 2.5}}, "'grid.num'"),
        ({"evaluator": "marginal_density", "margin": 5, "points": [[1.0]]}, "'margin'"),
        ({"grid": [1, 2]}, "'grid'"),
        ({"grid": {"start": None}}, "'grid.start'"),
        ({"grid": {"stop": [1]}}, "'grid.stop'"),
        ({"grid": {"start": "x"}}, "'grid.start'"),
        ({"points": [[-1.0, 1.0]]}, "'points'"),
        ({"evaluator": "liouville_copula_tail_density", "points": [[-1.0, 1.0]]},
         "'points'"),
        ({"evaluator": "copula_density", "points": [[1.5, 0.5]]}, "'points'"),
        ({"evaluator": "exponent_function", "points": [[0.0, 0.0]]}, "'points'"),
    ], ids=["non-numeric", "string", "ragged", "empty", "num-x", "num-0", "num-2.5",
            "margin-5", "grid-list", "start-null", "stop-list", "start-x",
            "joint-negative", "tail-negative", "copula-outside", "exponent-zero"])
    def test_bad_input_exit_2(self, tmp_path, capsys, task, field):
        cfg = {"distribution": TESTBED, "task": {"evaluator": "joint_density", **task}}
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()

    def test_unknown_evaluator_exit_2(self, tmp_path, capsys):
        cfg = {"distribution": TESTBED, "task": {"evaluator": "mystery",
                                                 "points": [[1.0, 1.0]]}}
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "mystery" in capsys.readouterr().err


class TestConfigErrors:
    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["eval", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["eval", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_field_named(self, tmp_path, capsys):
        rc = main(["eval", "--config", write_config(tmp_path, {"task": {}}),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "'distribution'" in capsys.readouterr().err

    def test_integrability_violation_exit_2(self, tmp_path, capsys):
        cfg = {"distribution": {"a": [1.0, 1.0],
                                "g": {"type": "inverted_dirichlet",
                                      "theta": 1.5}},
               "task": {"evaluator": "joint_density", "points": [[1.0, 1.0]]}}
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "integrability violated" in capsys.readouterr().err

    def test_divergent_integral_exit_3(self, tmp_path, capsys):
        # a rapidly varying driver cannot produce the operator limit
        cfg = {"distribution": {"a": [1.0, 1.0], "g": {"type": "rapid"}},
               "task": {"evaluator": "limiting_density",
                        "points": [[1.0, 1.0]]}}
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "not operator-regularly varying" in capsys.readouterr().err


class TestSample:
    def test_deterministic_output(self, tmp_path):
        cfg = {"distribution": TESTBED, "seed": 42, "task": {"n": 200}}
        path = write_config(tmp_path, cfg)
        main(["sample", "--config", path, "--out", str(tmp_path / "a")])
        main(["sample", "--config", path, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "samples.csv").read_bytes()
        b = (tmp_path / "b" / "samples.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()
        assert header[0].startswith("# seed=42")
        assert header[1] == "x1,x2"
        assert len(header) == 202

    def test_csv_bytes_match_17g_rows(self, tmp_path):
        cfg = {"distribution": TESTBED, "seed": 5, "task": {"n": 300}}
        main(["sample", "--config", write_config(tmp_path, cfg),
              "--out", str(tmp_path)])
        p = LiouvilleParams.from_dict(TESTBED)
        want = "".join([f"# seed=5 params={json.dumps(p.to_dict())}\n", "x1,x2\n"]
                       + [",".join(f"{v:.17g}" for v in row) + "\n"
                          for row in p.sample(300, 5)])
        assert (tmp_path / "samples.csv").read_bytes() == want.encode()

    def test_csv_bytes_match_17g_rows_over_blocks(self, tmp_path):
        dist = {"a": [0.5, 1.0, 2.0], "g": {"type": "inverted_dirichlet", "theta": 4.0}}
        n = 10_000  # more than two writer blocks
        cfg = {"distribution": dist, "seed": 8, "task": {"n": n}}
        assert main(["sample", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        p = LiouvilleParams.from_dict(dist)
        want = "".join([f"# seed=8 params={json.dumps(p.to_dict())}\n", "x1,x2,x3\n"]
                       + [",".join(f"{v:.17g}" for v in row) + "\n"
                          for row in p.sample(n, 8)])
        assert (tmp_path / "samples.csv").read_bytes() == want.encode()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = {"distribution": TESTBED, "seed": 1, "task": {"n": 100}}
        path = write_config(tmp_path, cfg)
        main(["sample", "--config", path, "--out", str(tmp_path / "a"),
              "--seed", "2"])
        main(["sample", "--config", path, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "samples.csv").read_bytes() != \
            (tmp_path / "b" / "samples.csv").read_bytes()

    @pytest.mark.parametrize("n", ["abc", 0, 2.5])
    def test_bad_n_exit_2(self, tmp_path, capsys, n):
        cfg = {"distribution": TESTBED, "seed": 1, "task": {"n": n}}
        rc = main(["sample", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "'n'" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    def test_missing_seed_exit_2(self, tmp_path, capsys):
        cfg = {"distribution": TESTBED, "task": {"n": 10}}
        rc = main(["sample", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_sample_median(self, tmp_path):
        cfg = {"distribution": TESTBED, "seed": 3, "task": {"n": 50000}}
        main(["sample", "--config", write_config(tmp_path, cfg),
              "--out", str(tmp_path)])
        x = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=2)
        np.testing.assert_allclose(np.median(x, axis=0), [1.0, 1.0], atol=0.05)


def _savetxt_bytes(tmp_path, header_lines, body, text=()):
    """What np.savetxt writes for the same header and row format: the oracle."""
    ncol = 1 if np.ndim(body) == 1 else np.shape(body)[1]
    path = tmp_path / "oracle.csv"
    np.savetxt(path, body, fmt=",".join(["%.17g"] * ncol + list(text)),
               delimiter=",", header="\n".join(header_lines), comments="")
    return path.read_bytes()


def _awkward_values(rng, size):
    """Random magnitudes in [1e-300, 1e300] of either sign, mixed with
    subnormals, signed zeros, infinities and integral floats."""
    special = np.array([5e-324, -5e-324, 2.2e-310, -1e-320, 0.0, -0.0,
                        np.inf, -np.inf, 1.0, -7.0, 2.0 ** 53, 1e15, 1e22, 3e300])
    x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
    pick = rng.random(size) < 0.2
    x[pick] = rng.choice(special, pick.sum())
    x.ravel()[:len(special)] = special[:x.size]
    return x


class TestWriteCsv:
    """``_write_csv`` writes the bytes of ``np.savetxt``, block by block."""

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 1])
    def test_bytes_match_savetxt(self, tmp_path, n):
        body = _awkward_values(np.random.default_rng(n), (n, 3))
        header = ["# seed=1 params={}", "x1,x2,x3"]
        _write_csv(tmp_path / "out.csv", header, body)
        assert (tmp_path / "out.csv").read_bytes() == _savetxt_bytes(tmp_path, header, body)

    def test_one_dimensional_body_is_one_column(self, tmp_path):
        body = _awkward_values(np.random.default_rng(0), _BLOCK_ROWS + 1)
        _write_csv(tmp_path / "out.csv", ["x"], body)
        data = (tmp_path / "out.csv").read_bytes()
        assert data == _savetxt_bytes(tmp_path, ["x"], body)
        assert data.count(b",") == 0

    def test_text_columns_match_savetxt(self, tmp_path):
        body = _awkward_values(np.random.default_rng(1), (2 * _BLOCK_ROWS + 5, 3))
        header = ["w1,w2,value,formula,normalization"]
        text = ("operator-limit", "c_f carried in the limit form")
        _write_csv(tmp_path / "out.csv", header, body, text)
        assert (tmp_path / "out.csv").read_bytes() == \
            _savetxt_bytes(tmp_path, header, body, text)

    def test_nan_raises_before_the_file_is_opened(self, tmp_path):
        body = np.ones((_BLOCK_ROWS + 2, 2))
        body[-1, 1] = np.nan
        with pytest.raises(ArithmeticError, match=f"row {_BLOCK_ROWS + 2} "):
            _write_csv(tmp_path / "out.csv", ["x1,x2"], body)
        assert not (tmp_path / "out.csv").exists()


class TestVerify:
    def test_passing_suite(self, tmp_path, capsys):
        cfg = {"task": {"suite": "quasihom"}}
        rc = main(["verify", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_suite_with_params(self, tmp_path):
        cfg = {"task": {"suite": "orthant-mc",
                        "params": {"n": 100000, "t": 50.0}}}
        rc = main(["verify", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path), "--seed", "19"])
        assert rc == 0

    def test_karamata_suite_passes(self, tmp_path):
        cfg = {"task": {"suite": "karamata"}}
        rc = main(["verify", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True

    def test_unknown_suite_param_exit_2(self, tmp_path, capsys):
        cfg = {"task": {"suite": "quasihom", "params": {"foo": 1}}}
        rc = main(["verify", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "foo" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("params", ["x", ["x"]], ids=["string", "list"])
    def test_params_not_object_exit_2(self, tmp_path, capsys, params):
        cfg = {"task": {"suite": "quasihom", "params": params}}
        rc = main(["verify", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "'params'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_unknown_suite_exit_2(self, tmp_path, capsys):
        cfg = {"task": {"suite": "nonexistent"}}
        rc = main(["verify", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_unknown_suite_with_seed_exit_2(self, tmp_path, capsys):
        cfg = {"task": {"suite": "nonexistent"}}
        rc = main(["verify", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path), "--seed", "3"])
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", [["quasihom"], {"name": "quasihom"}, 3])
    def test_suite_not_a_string_exit_2(self, tmp_path, capsys, suite):
        cfg = {"task": {"suite": suite}}
        rc = main(["verify", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path), "--seed", "3"])
        assert rc == 2
        assert "'suite'" in capsys.readouterr().err

    def test_seed_flag_equals_seed_param(self, tmp_path):
        flag, param = tmp_path / "flag", tmp_path / "param"
        cfg = {"task": {"suite": "transform-roundtrip"}}
        assert main(["verify", "--config", write_config(tmp_path, cfg),
                     "--out", str(flag), "--seed", "5"]) == 0
        cfg = {"task": {"suite": "transform-roundtrip", "params": {"seed": 5}}}
        assert main(["verify", "--config", write_config(tmp_path, cfg),
                     "--out", str(param)]) == 0
        assert (flag / "report.json").read_bytes() == (param / "report.json").read_bytes()

    def test_seed_flag_ignored_by_seedless_suite(self, tmp_path):
        cfg = {"task": {"suite": "quasihom"}}
        assert main(["verify", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path), "--seed", "5"]) == 0


class TestExitContract:
    """Exit 2 for bad input, 3 for numerical trouble, 1 only for a failed check."""

    @pytest.mark.parametrize("command,cfg,extra,code", [
        ("eval", 5, [], 2),
        ("eval", None, [], 2),
        ("eval", {"distribution": TESTBED, "task": 5}, [], 2),
        ("eval", {"distribution": {"a": [1.0, 1.0], "g": [1]},
                  "task": {"evaluator": "joint_density", "points": [[1.0, 1.0]]}}, [], 2),
        ("verify", {"task": {"suite": "orthant-mc",
                             "params": {"n": 1e5, "t": 50.0, "seed": 19}}}, [], 0),
        ("verify", {"task": {"suite": "marginal-hill",
                             "params": {"n": 2000.0, "k": 100}}}, [], None),
        ("verify", {"task": {"suite": "marginal-hill", "params": {"k": "x"}}}, [], 2),
        ("verify", {"task": {"suite": "transform-roundtrip",
                             "params": {"seed": 1.5}}}, [], 2),
        ("sample", {"distribution": TESTBED, "seed": "x", "task": {"n": 10}}, [], 2),
        ("sample", {"distribution": TESTBED, "seed": -3, "task": {"n": 10}}, [], 2),
        ("sample", {"distribution": TESTBED, "task": {"n": 10}}, ["--seed", "-3"], 2),
        ("sample", {"distribution": TESTBED, "seed": 1.5, "task": {"n": 10}}, [], 2),
        ("eval", {"distribution": TESTBED, "exponent": {"eigenvalues": [1.0, 1.0, 1.0]},
                  "task": {"evaluator": "limiting_density", "points": [[1.0, 1.0]]}},
         [], 2),
        ("eval", {"distribution": TESTBED, "exponent": {"eigenvalues": [1.0, 1.0, 1.0]},
                  "task": {"evaluator": "liouville_copula_tail_density",
                           "points": [[1.0, 1.0]]}}, [], 2),
        ("verify", {"task": {"suite": "orthant-mc",
                             "params": {"n": 100000, "t": 1e200}}}, [], 3),
        ("verify", {"task": {"suite": "orthant-mc",
                             "params": {"n": 100000, "t": 1e-300}}}, [], 3),
        # a_C(0, 1e20) is 1e20; the cubature gives 3.3e-11, error estimate 6.2e-11
        ("eval", {"distribution": TESTBED,
                  "task": {"evaluator": "exponent_function", "points": [[0.0, 1e20]]}},
         [], 3),
    ], ids=["config-5", "config-null", "task-5", "g-list", "orthant-n-float",
            "hill-n-float", "hill-k-x", "roundtrip-seed-1.5", "seed-x", "seed-neg",
            "seed-flag-neg", "seed-1.5", "limit-3-eigenvalues", "tail-3-eigenvalues",
            "orthant-t-1e200", "orthant-t-1e-300", "exponent-0-1e20"])
    def test_exit_code(self, tmp_path, capsys, command, cfg, extra, code):
        out = tmp_path / "out"
        rc = main([command, "--config", write_config(tmp_path, cfg),
                   "--out", str(out)] + extra)
        if code is None:  # runs: a report, whichever way the check went
            assert rc in (0, 1) and (out / "report.json").exists()
        else:
            assert rc == code
        if code in (2, 3):
            assert capsys.readouterr().err
            assert not any(out.iterdir())

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        cfg = {"distribution": TESTBED, "seed": 1, "task": {"n": 10}}
        rc = main(["sample", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        assert "'--out'" in capsys.readouterr().err
        assert out.read_text() == ""

    @pytest.mark.parametrize("command,cfg,name", [
        ("sample", {"distribution": TESTBED, "seed": 1, "task": {"n": 10}}, "samples.csv"),
        ("eval", {"distribution": TESTBED,
                  "task": {"evaluator": "joint_density", "points": [[1.0, 1.0]]}},
         "eval.csv"),
        ("verify", {"task": {"suite": "karamata"}}, "report.json"),
    ], ids=["sample", "eval", "verify"])
    def test_output_file_is_a_directory_exit_2(self, tmp_path, capsys, command, cfg,
                                               name):
        (tmp_path / "out" / name).mkdir(parents=True)
        rc = main([command, "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'--out'" in capsys.readouterr().err
        assert not any((tmp_path / "out" / name).iterdir())

    @pytest.mark.parametrize("exponent", [{}, {"eigenvalue": [1.0, 1.0]}])
    def test_exponent_without_eigenvalues_exit_2(self, tmp_path, capsys, exponent):
        cfg = {"distribution": TESTBED, "exponent": exponent,
               "task": {"evaluator": "limiting_density", "points": [[1.0, 1.0]]}}
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "missing required field 'eigenvalues'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg", [
        ("eval", {"distribution": TESTBED,
                  "task": {"evaluator": "liouville_copula_tail_density",
                           "points": [[1.0, 1.0], [1.44e-178, 2.0]]}}),
        ("eval", {"distribution": TESTBED,
                  "task": {"evaluator": "liouville_copula_tail_density",
                           "points": [[292.0, 1e-300]]}}),
        ("sample", {"distribution": {"a": [1e-300, 1e-300],
                                     "g": {"type": "inverted_dirichlet", "theta": 3.0}},
                    "seed": 1, "task": {"n": 5}}),
    ], ids=["tail-tiny-w1", "tail-tiny-w2", "sample-tiny-shapes"])
    def test_nan_result_exit_3(self, tmp_path, capsys, command, cfg):
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning):  # numpy reports the 0/0 or inf*0 behind the NaN
            rc = main([command, "--config", write_config(tmp_path, cfg),
                       "--out", str(out)])
        assert rc == 3
        assert "NaN" in capsys.readouterr().err
        assert not any(out.iterdir())


# Valid configs whose one-field mutations stay cheap: short point lists, small
# n, and no suite slower than a second (mixed-derivative, exponent-consistency).
_VALID = [
    ("eval", {"distribution": TESTBED, "exponent": {"eigenvalues": [1.0, 1.0]},
              "task": {"evaluator": "liouville_copula_tail_density",
                       "points": [[1.0, 1.0], [0.5, 2.0]]}}),
    ("eval", {"distribution": TESTBED,
              "task": {"evaluator": "joint_density",
                       "grid": {"start": 0.5, "stop": 2.0, "num": 3}}}),
    ("eval", {"distribution": TESTBED,
              "task": {"evaluator": "marginal_density", "margin": 1,
                       "points": [[0.5], [2.0]]}}),
    ("sample", {"distribution": TESTBED, "seed": 3, "task": {"n": 50}}),
    ("verify", {"task": {"suite": "transform-roundtrip", "params": {"seed": 0}}}),
    ("verify", {"task": {"suite": "empirical-vs-closed", "params": {"dim": 2}}}),
    ("verify", {"task": {"suite": "orthant-mc",
                         "params": {"n": 100000, "t": 50.0, "seed": 19}}}),
    ("verify", {"task": {"suite": "marginal-hill",
                         "params": {"n": 2000, "k": 100, "seed": 11}}}),
]

# names the configs use, so that a mutation can reach another valid branch
_NAMES = st.sampled_from(["joint_density", "limiting_density", "marginal_density",
                          "copula_density", "exponent_function", "quasihom",
                          "karamata", "orthant-mc", "rapid", "generic_rv",
                          "inverted_dirichlet", "type", "theta", "beta", "points",
                          "grid", "n", "t", "k", "seed", "dim", "eigenvalues"])
# numbers are capped so that no n or grid.num asks for a huge array
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 300) | _NAMES | st.text(max_size=4)
    | st.floats(-1e3, 1e3) | st.sampled_from([math.nan, math.inf, -math.inf, 1e-300]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_NAMES | st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _paths(value, path=()):
    """Every path into ``value``: the root, each object field, each list item."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutated(cfg, path, value):
    if not path:
        return value
    cfg = json.loads(json.dumps(cfg))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return cfg


@st.composite
def _mutations(draw):
    command, cfg = draw(st.sampled_from(_VALID))
    path = draw(st.sampled_from(list(_paths(cfg))))
    return command, _mutated(cfg, path, draw(_JSON))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_mutations())
def test_one_field_mutation_exits_cleanly(mutation):
    command, cfg = mutation
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc = main([command, "--config", write_config(Path(tmp), cfg), "--out", str(out)])
        assert rc in (0, 1, 2, 3)
        if rc == 1:
            assert json.loads((out / "report.json").read_text())["passed"] is False
