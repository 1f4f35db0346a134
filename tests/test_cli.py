import json
import math
from pathlib import Path

import pytest

from shiftmaxent import (bernoulli_table, load_table, table_from_json,
                         table_to_json)
from shiftmaxent.cli import run

GOLDEN = Path(__file__).parent / "golden"


def test_check_feasible(capsys):
    code = run(["check", "--a", "1/2,1/4,1/8", "--tail", "constant"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("feasible")


def test_check_infeasible(capsys):
    code = run(["check", "--a", "1/2,0.45,0.1"])
    out = capsys.readouterr().out.strip()
    assert code == 1
    assert out == "infeasible at j=1, d=-0.3"


def test_check_monotone_infeasible(capsys):
    code = run(["check", "--a", "0.3,0.5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "j=1" in out


def test_entropy_geometric(capsys):
    code = run(["entropy", "--geometric", "1/2", "--terms", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.693147" in out
    assert "exact" in out
    value = float(out.splitlines()[1].split("=")[1])
    assert abs(value - math.log(2)) <= 1e-12


def test_entropy_bits_flag(capsys):
    code = run(["entropy", "--geometric", "1/2", "--terms", "60", "--bits"])
    out = capsys.readouterr().out
    assert code == 0
    assert "entropy=1.000000 bits" in out


def test_entropy_infeasible_exit(capsys):
    code = run(["entropy", "--a", "1/2,0.45,0.1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "infeasible" in err


def test_build_round_trip(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    code = run(["build", "--a", "1/2,1/4", "--depth", "4",
                "--out", str(out_file)])
    assert code == 0
    table = load_table(out_file)
    assert table.mode == "exact"
    assert table.prob("00") == 0.25
    from shiftmaxent import validate
    assert validate(table).ok


def test_build_stdout_deterministic(capsys):
    run(["build", "--geometric", "1/2", "--terms", "6", "--depth", "3"])
    first = capsys.readouterr().out
    run(["build", "--geometric", "1/2", "--terms", "6", "--depth", "3"])
    second = capsys.readouterr().out
    assert first == second
    table = table_from_json(json.loads(first))
    assert table == bernoulli_table("1/2", 3)


@pytest.mark.parametrize("spec, golden", [
    (["--a", "1/2,1/5,1/10"], "build_exact_d3.json"),
    ({"a": [0.5, 0.3, 0.15, 0.05], "tail": "affine"}, "build_float_d3.json"),
])
def test_build_output_is_pinned(tmp_path, capsys, spec, golden):
    if isinstance(spec, dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        spec = ["--spec", str(path)]
    assert run(["build", *spec, "--depth", "3"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def _sample_table_file(tmp_path, obj):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    return run(["sample", "--table", str(path), "--length", "10"])


def test_sample_nan_table_exits_one(tmp_path, capsys):
    obj = table_to_json(bernoulli_table(0.5, 2))
    for level in obj["levels"]:
        level["probs"] = [math.nan] * len(level["probs"])
    assert _sample_table_file(tmp_path, obj) == 1
    assert "non-finite" in capsys.readouterr().err


def _null_mass(obj):
    obj["levels"][1]["probs"][0] = None


def _level_without_n(obj):
    del obj["levels"][1]["n"]


def _level_as_list(obj):
    obj["levels"][1] = obj["levels"][1]["probs"]


def _levels_not_a_list(obj):
    obj["levels"] = 5


@pytest.mark.parametrize("mangle", [_null_mass, _level_without_n,
                                    _level_as_list, _levels_not_a_list])
def test_sample_malformed_table_exits_one(tmp_path, capsys, mangle):
    obj = table_to_json(bernoulli_table(0.5, 2))
    mangle(obj)
    assert _sample_table_file(tmp_path, obj) == 1
    assert "malformed table JSON" in capsys.readouterr().err


def test_optimize_summary_line(tmp_path, capsys):
    constraints = [{"word": "00", "lo": 0, "hi": 0}]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(constraints))
    code = run(["optimize", "--constraints", str(path), "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("objective=0.481211825")
    assert "status=optimal" in summary
    assert "kkt=" in summary


def test_optimize_infeasible_exit(tmp_path, capsys):
    constraints = [{"word": "0", "lo": 0.3, "hi": 0.3},
                   {"word": "00", "lo": 0.4, "hi": 0.4}]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(constraints))
    code = run(["optimize", "--constraints", str(path), "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status=infeasible" in out


def test_compare(capsys):
    code = run(["compare", "--a", "1/2,0", "--depth", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max_cylinder_deviation" in out
    assert "status=optimal" in out


def test_sample_freq_estimate_pipeline(tmp_path, capsys):
    samples_file = tmp_path / "samples.txt"
    code = run(["sample", "--geometric", "1/2", "--terms", "6", "--depth", "3",
                "--length", "2000", "--count", "50", "--seed", "9",
                "--out", str(samples_file)])
    assert code == 0
    lines = samples_file.read_text().splitlines()
    assert len(lines) == 50
    assert set(lines[0]) <= {"0", "1"}
    assert len(lines[0]) == 2000

    code = run(["freq", "--sample", str(samples_file), "--words", "0,01",
                "--targets", "1/2,1/4"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "word,horizon,average,target,deviation"
    assert rows[1].startswith("0,2000,")
    assert rows[2].startswith("01,2000,")

    code = run(["estimate", "--samples", str(samples_file),
                "--n", "8", "--delta", "0.2"])
    out = capsys.readouterr().out
    assert code == 0
    values = {}
    for line in out.strip().splitlines():
        if line.startswith(("word_count_entropy=", "katok_entropy=")):
            key, _, val = line.partition("=")
            values[key] = float(val)
    katok = values["katok_entropy"]
    wc = values["word_count_entropy"]
    assert katok <= wc + 1e-12
    assert abs(wc - math.log(2)) <= 0.1


def test_sample_determinism(tmp_path):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["sample", "--a", "1/2", "--length", "500", "--count", "3",
            "--seed", "4"]
    assert run(args + ["--out", str(f1)]) == 0
    assert run(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_generic(capsys):
    code = run(["generic", "--length", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "01001100011100001111\n"


def test_unknown_flag_exits_one(capsys):
    code = run(["check", "--a", "1/2", "--bogus"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_bad_number_reports_token(capsys):
    code = run(["check", "--a", "1/2,oops"])
    err = capsys.readouterr().err
    assert code == 1
    assert "oops" in err


def test_spec_file_input(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"a": ["1/2", "1/4"], "tail": "constant"}))
    code = run(["check", "--spec", str(spec_file)])
    assert code == 0


def test_exactly_one_spec_source(capsys):
    code = run(["check", "--a", "1/2", "--geometric", "1/2"])
    assert code == 1
