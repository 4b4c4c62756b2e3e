import json
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from dinfnichols.classify import REPORT_SCHEMA
from dinfnichols import cli
from dinfnichols.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_alambda_reports(capsys):
    code, out = run_cli(capsys, "alambda", "--lambda", "2", "--report", "simples")
    assert code == 0
    data = json.loads(out)
    labels = [s["label"] for s in data["simple_modules"]]
    assert labels == ["slam+", "slam-"]
    assert all(s["axiom_pass"] and s["irreducible"] for s in data["simple_modules"])
    code, out = run_cli(capsys, "alambda", "--lambda", "3", "--report", "simples")
    data = json.loads(out)
    assert all(not s["axiom_pass"] for s in data["simple_modules"])
    code, out = run_cli(capsys, "alambda", "--lambda", "0", "--report", "structure")
    data = json.loads(out)
    assert data["basis_products"]["h*h"] == "(-1)"
    assert "corners" in data and "idempotents" in data


def test_braiding_text_and_json(capsys):
    code, out = run_cli(capsys, "braiding", "--family", "g-class",
                        "--rep", "sign", "--window", "3")
    assert code == 0
    assert "c(a0 (x) a0) = (-1) a0 (x) a0" in out
    code, out = run_cli(capsys, "braiding", "--family", "h-class",
                        "--n", "1", "--a", "-1", "--format", "json")
    data = json.loads(out)
    assert {e["coeff"] for e in data["entries"]} == {"-1"}
    code, out = run_cli(capsys, "braiding", "--family", "one-class",
                        "--rep", "slam+", "--lambda", "2")
    assert code == 0 and "c(v1 (x) v1) = (1) v1 (x) v1" in out


def test_braiding_requires_params(capsys):
    with pytest.raises(SystemExit):
        main(["braiding", "--family", "h-class"])
    with pytest.raises(SystemExit):
        main(["braiding", "--family", "one-class", "--rep", "slam+"])


def test_nichols_csv(capsys):
    code, out = run_cli(capsys, "nichols", "--family", "h-class",
                        "--n", "1", "--a", "-1", "--max-degree", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dim"
    assert lines[1:7] == ["0,1", "1,2", "2,1", "3,0", "4,0", "5,0"]
    verdict = json.loads(lines[7])
    assert verdict["growth"] == {"kind": "TerminatesAt", "value": 3}


def test_nichols_rejects_infinite(capsys):
    with pytest.raises(SystemExit):
        main(["nichols", "--family", "g-class", "--rep", "sign"])


def test_nichols_rejects_a_space_between_digits(capsys):
    # "1 2" is refused, not run as a = 12
    with pytest.raises(SystemExit, match="h-class: space between digits"):
        main(["nichols", "--family", "h-class", "--a", "1 2"])


def test_nichols_rejects_past_cap(capsys):
    with pytest.raises(SystemExit, match="exceeds the degree cap 8"):
        main(["nichols", "--family", "h-class", "--a", "2", "--max-degree", "9"])


def test_nichols_rejects_degree_below_growth_fit(capsys):
    for degree in ("2", "0"):
        with pytest.raises(SystemExit, match="below 3"):
            main(["nichols", "--family", "h-class", "--a", "2",
                  "--max-degree", degree])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,message", [
    (["--family", "h-class", "--a", "1/0"], "zero denominator"),
    (["--family", "h-class", "--a", "0"], "a must be nonzero"),
    (["--family", "h-class", "--a", "2", "--n", "0"], "n must be >= 1"),
    (["--family", "one-class", "--rep", "slam+", "--lambda", "1/0"],
     "zero denominator"),
    (["--family", "one-class", "--rep", "s0-", "--lambda", "2"],
     "no candidate s0- at lambda=2"),
    (["--family", "one-class", "--rep", "slam-", "--lambda", "3"],
     "candidate slam- at lambda=3 fails module axioms: g h g != h^-1"),
    (["--family", "one-class", "--rep", "bogus", "--lambda", "2"],
     "one-class requires --rep s0+|s0-|slam+|slam-"),
])
def test_bad_family_parameters_exit_with_message(argv, message):
    for command in ("braiding", "nichols"):
        with pytest.raises(SystemExit, match=re.escape(message)):
            main([command] + argv)


def test_window_below_one_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["braiding", "--family", "g-class", "--rep", "sign", "--window", "0"])
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "tables", "--window", "0"])
    assert "must be >= 1" in capsys.readouterr().err


FULL_USAGE = "usage: dinfnichols [-h] {alambda,braiding,nichols,classify,verify} ...\n"


@pytest.mark.parametrize("argv", [
    ["alambda", "--lambda", "2", "--report", "simples"],
    ["braiding", "--family", "g-class", "--rep", "sign", "--window", "1"],
    ["nichols", "--family", "h-class", "--a=-1", "--max-degree", "3"],
    ["classify", "--format", "csv"],
    ["verify", "--suite", "tables", "--window", "1"],
])
def test_known_subcommand_runs_and_prints_its_help(capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: dinfnichols {argv[0]} [-h]")


def test_parser_is_built_once():
    # in a fresh process the first call builds the top-level parser and its
    # five subcommands' parsers; later calls build none, error exits included
    script = """
import argparse, contextlib, io, sys
from dinfnichols.cli import main
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
per_call = []
for argv in (["classify", "--format", "csv"], ["verify", "--window", "0"],
             ["alambda", "--lambda", "2"], ["--help"],
             ["nichols", "--family", "h-class", "--a", "2"]):
    before = len(built)
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
        main(argv)
    per_call.append(len(built) - before)
print(per_call)
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[6, 0, 0, 0, 0]\n"


def test_one_parser_carries_nothing_between_calls(capsys):
    # a later call that leaves an option out reads its default, not the
    # value an earlier call set; an error exit in between changes nothing
    braiding = ["braiding", "--family", "h-class", "--a", "2", "--format", "json"]
    nichols = ["nichols", "--family", "h-class", "--a", "2"]
    code, out = run_cli(capsys, *braiding, "--window", "2")
    assert code == 0 and json.loads(out)["window"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--window", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = run_cli(capsys, *braiding)
    assert code == 0 and json.loads(out)["window"] == 4
    code, out = run_cli(capsys, *nichols, "--max-degree", "4")
    assert code == 0 and len(out.splitlines()) == 5 + 2
    code, out = run_cli(capsys, *nichols)
    assert code == 0 and len(out.splitlines()) == 7 + 2
    assert run_cli(capsys, "braiding", "--family", "g-class", "--rep", "sign")[0] == 0
    with pytest.raises(SystemExit, match=re.escape("g-class requires --rep sign|eps")):
        main(["braiding", "--family", "g-class"])


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'alambda', "
                "'braiding', 'nichols', 'classify', 'verify')"),
    (["--zeta-order", "3", "nichols"], "argument command: invalid choice: '3' (choose "
                                       "from 'alambda', 'braiding', 'nichols', "
                                       "'classify', 'verify')"),
    (["nichols", "--family", "h-class", "--a", "2", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["verify", "--window", "0"], "--window must be >= 1"),
    (["classify", "--zeta-order", "0"], "--zeta-order must be >= 1"),
])
def test_top_level_errors_list_every_subcommand(capsys, argv, message):
    # every message that prints the top-level usage lists all five subcommands
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"{FULL_USAGE}dinfnichols: error: {message}\n"
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"{FULL_USAGE}\nYetter-Drinfeld modules")


def test_alambda_bad_lambda_exits_with_message(capsys):
    with pytest.raises(SystemExit, match="alambda: zero denominator"):
        main(["alambda", "--lambda", "1/0"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("grid,message", [
    ({"n": [0], "a": ["1"], "lambda": ["0"]}, "n must be >= 1"),
    ({"n": [1], "a": ["0"], "lambda": ["0"]}, "a must be nonzero"),
    ({"n": [1], "a": ["1/0"], "lambda": ["0"]}, "zero denominator"),
    ({"n": [1], "lambda": ["0"]}, "keys n, a, lambda"),
    ([1, 2], "keys n, a, lambda"),
    ({"n": ["1"], "a": ["1"], "lambda": ["0"]}, "n must be a list of integers"),
    ({"n": [1], "a": [2], "lambda": ["0"]}, "a must be a list of scalar strings"),
    ("{not json", "is not JSON"),
    (None, "No such file"),
])
def test_classify_bad_grid_exits_with_message(tmp_path, capsys, grid, message):
    grid_file = tmp_path / "grid.json"
    if grid is not None:
        grid_file.write_text(grid if isinstance(grid, str) else json.dumps(grid))
    with pytest.raises(SystemExit, match=message):
        main(["classify", "--grid", str(grid_file)])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["alambda", "--lambda", "2"],
    ["classify"],
    ["verify", "--suite", "tables"],
    ["braiding", "--family", "g-class", "--rep", "sign"],
    ["nichols", "--family", "h-class", "--a", "2"],
])
def test_zeta_order_below_one_rejected(capsys, argv):
    for order in ("0", "-3"):
        with pytest.raises(SystemExit):
            main(argv + ["--zeta-order", order])
        assert "--zeta-order must be >= 1" in capsys.readouterr().err


def test_classify_default_report_matches_golden(capsys):
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / \
        "classify-default.json"
    code, out = run_cli(capsys, "classify", "--all", "--format", "json")
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("order,optimized,seed", [
    pytest.param("12", False, "0", id="12"),
    pytest.param("5", False, "0", id="5"),
    pytest.param("12", True, "0", id="12-O"),
    pytest.param("12", False, "3", id="12-seed3"),
    pytest.param("8", False, "0", id="8"),
    pytest.param("8", True, "0", id="8-O"),
])
def test_verify_output_matches_pinned(capsys, order, optimized, seed):
    # every check line of the four suites, byte for byte; under python -O
    # too, so that no reported check can hide in an assert; no suite
    # samples, so another seed prints the same bytes
    pinned = Path(__file__).resolve().parent / "golden" / f"verify-w3-s0-z{order}.txt"
    argv = ["verify", "--suite", "all", "--window", "3", "--seed", seed, "--zeta-order", order]
    if optimized:
        r = subprocess.run([sys.executable, "-O", "-B", "-m", "dinfnichols.cli", *argv],
                           capture_output=True, text=True)
        code, out = r.returncode, r.stdout
    else:
        code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == pinned.read_text()


@pytest.mark.parametrize("suite", ["braid", "yd", "tables", "alambda"])
def test_verify_window8_suite_matches_pinned(capsys, suite):
    # the window and seed the benchmark runs, byte for byte
    pinned = Path(__file__).resolve().parent / "golden" / f"verify-{suite}-w8-s0-z12.txt"
    code, out = run_cli(capsys, "verify", "--suite", suite, "--window", "8", "--seed", "0")
    assert code == 0
    assert out == pinned.read_text()


@pytest.mark.parametrize("suite", ["braid", "yd", "tables", "alambda", "all"])
def test_verify_yd_and_tables_do_not_depend_on_window(capsys, suite):
    # every suite is proven for all indices or finite; --window changes no line
    outs = {run_cli(capsys, "verify", "--suite", suite, "--window", w) for w in ("1", "3", "8")}
    assert len(outs) == 1 and outs.pop()[0] == 0


def test_verify_corrupt_table_fails_without_traceback(capsys, monkeypatch):
    # g*g = g makes the idempotent verification raise inside the suite
    from dinfnichols import repn

    real = repn._basis_product_table

    def corrupted(lam):
        table = dict(real(lam))
        table[1, 1] = ((1, None, False),)
        return table

    monkeypatch.setattr(repn, "_basis_product_table", corrupted)
    code, out = run_cli(capsys, "verify", "--suite", "alambda", "--window", "3")
    lines = out.splitlines()
    assert code == 1
    assert len(lines) == 34 and lines[-1] == "8/33 checks passed"
    assert sum(line.startswith("[FAIL] ") for line in lines) == 25


def test_classify_json_schema_and_formats(tmp_path, capsys):
    grid = {"n": [1], "a": ["1", "-1", "2"], "lambda": ["0", "2"]}
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(grid))
    code, out = run_cli(capsys, "classify", "--all", "--grid", str(grid_file),
                        "--format", "json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    code, out = run_cli(capsys, "classify", "--all", "--grid", str(grid_file),
                        "--format", "csv")
    assert out.splitlines()[0] == "family,params,support,verdict,gk,rule"
    code, out = run_cli(capsys, "classify", "--all", "--grid", str(grid_file))
    assert "reference entries: 5" in out


def test_verify_suites_pass(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "tables", "--window", "4")
    assert code == 0
    assert "FAIL" not in out
    code, out = run_cli(capsys, "verify", "--suite", "alambda", "--seed", "3")
    assert code == 0


def test_cli_entrypoint_subprocess(tmp_path):
    # byte stability of the classification report across processes
    grid = {"n": [1], "a": ["1", "-1"], "lambda": ["0"]}
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(grid))
    cmd = [sys.executable, "-m", "dinfnichols.cli", "classify", "--all",
           "--grid", str(grid_file), "--format", "json"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, check=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert r1.stdout == r2.stdout
    report = json.loads(r1.stdout)
    assert report["theorem_comparison"]["paper_entries"] == 5


def test_cli_import_loads_neither_numpy_nor_jsonschema():
    # numpy serves only the float rank oracle and jsonschema only the tests;
    # either would add its import time to every CLI call
    script = ("import sys, dinfnichols.cli\n"
              "print(sorted({'numpy', 'jsonschema'} & set(sys.modules)))\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
