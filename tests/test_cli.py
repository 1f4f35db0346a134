import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest

import shiftmaxent
from shiftmaxent import (bernoulli_table, estimators, load_table,
                         table_from_json, table_to_json)
from shiftmaxent.cli import run

GOLDEN = Path(__file__).parent / "golden"
_TABLE = str(GOLDEN / "build_exact_d3.json")


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


def test_check_negative_upto_exits_one(capsys):
    code = run(["check", "--a", "1/2", "--upto", "-4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "upto" in captured.err


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


def test_entropy_bad_depth_prints_nothing(capsys):
    code = run(["entropy", "--a", "1/2", "--depth", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "depth" in captured.err


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


_AFFINE = {"a": [0.5, 0.3, 0.15, 0.05], "tail": "affine"}


def _spec_argv(tmp_path, spec):
    """Spec flags; a dict spec goes through a --spec file."""
    if isinstance(spec, dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        spec = ["--spec", str(path)]
    return spec


@pytest.mark.parametrize("spec, golden", [
    (["--a", "1/2,1/5,1/10"], "build_exact_d3.json"),
    (_AFFINE, "build_float_d3.json"),
])
def test_build_output_is_pinned(tmp_path, capsys, spec, golden):
    assert run(["build", *_spec_argv(tmp_path, spec), "--depth", "3"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


# sha256 of `build` stdout as written when every exact cell was a
# Fraction object; integer numerators must write the same bytes.
_DEEP_BUILD_SHA256 = {
    ("43/48,13/16,3/4,11/16,31/48", "constant", 14):
        "5623f5313038b83bbe56a0e99fbc0c25134b14ba5966ae95b4554c2dc7c25ac0",
    ("43/48,13/16,3/4,11/16,31/48", "constant", 16):
        "2aecb020e8e2221d6019d1793c75c3ae68fae00bea82222e7697e6ec12ef7437",
    ("1/2,3/10,3/20,1/20", "affine", 14):
        "f2d639988ea56775f1bf0eecbaef4bd47aec4b69bd5594a4a6b6fae5e50d0d76",
    ("1/2,3/10,3/20,1/20", "affine", 16):
        "3ca22e9599cde0f96f8ba080043466bc4c75220a60b7a23c4998dd2309b3a776",
}


@pytest.mark.parametrize("a, tail, depth", sorted(_DEEP_BUILD_SHA256))
def test_deep_exact_build_output_is_pinned(capsys, a, tail, depth):
    assert run(["build", "--a", a, "--tail", tail, "--depth", str(depth)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == _DEEP_BUILD_SHA256[a, tail, depth]


# sha256 of float `build` stdout, of the affine spec above, and of a
# float `optimize --out` file, as written by json.dumps(..., indent=2).
_DEEP_FLOAT_BUILD_SHA256 = {
    14: "d3269bf150cd60437a16ebb24c3f679f319dde14bba94c92a5e431058255a95e",
    16: "201fd2b9c85a1c73e0c4be27ddc994cb4f5973b14dc5dfdf4fb8ddc66acdb5a8",
}
# The optimize file is the depth-2 solve of {"00": 0} extended to depth 5.
_OPTIMIZE_OUT_SHA256 = \
    "6a0d854e201ed7995eec6bdbf959fbb04944e7402e1efefd90b59bb78e4cdc0b"


@pytest.mark.parametrize("depth", sorted(_DEEP_FLOAT_BUILD_SHA256))
def test_deep_float_build_output_is_pinned(tmp_path, capsys, depth):
    assert run(["build", *_spec_argv(tmp_path, _AFFINE), "--depth", str(depth)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == _DEEP_FLOAT_BUILD_SHA256[depth]


def test_optimize_out_file_is_pinned(tmp_path, capsys):
    constraints, out = tmp_path / "c.json", tmp_path / "table.json"
    constraints.write_text(json.dumps([{"word": "00", "lo": 0, "hi": 0}]))
    assert run(["optimize", "--constraints", str(constraints), "--depth", "5",
                "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _OPTIMIZE_OUT_SHA256


@pytest.mark.parametrize("spec, depth, length, golden", [
    (["--a", "1/2"], 1, 200, "sample_bernoulli_d1.txt"),
    (["--a", "1/2,1/5,1/10"], 3, 200, "sample_exact_d3.txt"),
    (_AFFINE, 8, 200, "sample_float_d8.txt"),
    (["--a", "1/2,1/5,1/10"], 6, 4, "sample_short_d6.txt"),
])
def test_sample_output_is_pinned(tmp_path, capsys, spec, depth, length, golden):
    # --count 3 covers the seeds 123456789 ^ i of the default seed.
    assert run(["sample", *_spec_argv(tmp_path, spec), "--depth", str(depth),
                "--length", str(length), "--count", "3"]) == 0
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


def _fractional_depth(obj):
    obj["depth"] = 2.9


def _fractional_n(obj):
    obj["levels"][1]["n"] = 1.2


def _infinite_depth(obj):
    obj["depth"] = math.inf


def _bool_mass(obj):
    obj["levels"][1]["probs"][0] = True


def _huge_int_mass(obj):
    obj["levels"][1]["probs"][0] = 10 ** 400


_MALFORMED_DETAIL = {
    _bool_mass: "cannot read True as a mass",
    _huge_int_mass: "integer division result too large for a float",
}


@pytest.mark.parametrize("mangle", [_null_mass, _level_without_n,
                                    _level_as_list, _levels_not_a_list,
                                    _fractional_depth, _fractional_n,
                                    _infinite_depth, _bool_mass,
                                    _huge_int_mass])
def test_sample_malformed_table_exits_one(tmp_path, capsys, mangle):
    obj = table_to_json(bernoulli_table(0.5, 2))
    mangle(obj)
    assert _sample_table_file(tmp_path, obj) == 1
    err = capsys.readouterr().err
    assert "malformed table JSON" in err
    if mangle in _MALFORMED_DETAIL:
        assert err == f"error: malformed table JSON: {_MALFORMED_DETAIL[mangle]}\n"


def _exact_mass(text):
    def mangle(obj):
        obj["levels"][2]["probs"][1] = text
    return mangle


def _exact_level_too_long(obj):
    obj["levels"][2]["probs"].append("1/4")


@pytest.mark.parametrize("mangle", [_exact_mass("1/0"), _exact_mass("abc"),
                                    _exact_mass("nan"), _exact_level_too_long])
def test_sample_malformed_exact_table_exits_one(tmp_path, capsys, mangle):
    obj = table_to_json(bernoulli_table(Fraction(1, 2), 2))
    mangle(obj)
    assert _sample_table_file(tmp_path, obj) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_exact_table_masses_read_in_any_fraction_spelling(tmp_path, capsys):
    table = bernoulli_table(Fraction(1, 2), 2)
    obj = table_to_json(table)
    obj["levels"][2]["probs"][:2] = ["2/8", "0.25"]
    assert table_from_json(obj) == table
    assert _sample_table_file(tmp_path, obj) == 0
    respelled = capsys.readouterr().out
    assert _sample_table_file(tmp_path, table_to_json(table)) == 0
    assert capsys.readouterr().out == respelled


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


def test_estimate_counts_the_windows_once(tmp_path, capsys, monkeypatch):
    calls = []
    word_counts = estimators._word_counts

    def counting(samples, n):
        calls.append(n)
        return word_counts(samples, n)

    monkeypatch.setattr(estimators, "_word_counts", counting)
    code = run(["estimate", "--samples", _two_orbits(tmp_path), "--n", "3",
                "--delta", "0.2"])
    assert code == 0
    assert "katok_entropy=" in capsys.readouterr().out
    assert calls == [3]


def _two_orbits(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("0110100110010110\n1001011001101001\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["estimate", "--n", "2", "--delta", "1.5", "--samples"],
    ["freq", "--words", ",", "--sample"],
    ["freq", "--words", "0", "--line", "-1", "--sample"],
    ["freq", "--words", "0", "--line", "-3", "--sample"],
    ["freq", "--words", "0", "--horizon", "3", "--targets", "2", "--sample"],
    # a table file leaves nothing for the spec flags to do
    ["sample", "--length", "4", "--table", _TABLE, "--a", "9/10"],
    ["sample", "--length", "4", "--table", _TABLE, "--spec"],
    ["sample", "--length", "4", "--table", _TABLE, "--geometric", "1/2"],
    ["sample", "--length", "4", "--table", _TABLE, "--depth", "6"],
    ["sample", "--length", "4", "--table", _TABLE, "--tail", "affine"],
    ["sample", "--length", "4", "--table", _TABLE, "--terms", "9"],
    # --tail shapes only --a, and --terms only --geometric
    ["check", "--tail", "affine", "--spec"],
    ["check", "--a", "1/2,1/4", "--terms", "3"],
    ["check", "--geometric", "1/2", "--tail", "affine"],
    # the horizon may not pass the end of the sample, and each word gets one row
    ["freq", "--words", "0", "--horizon", "100", "--sample"],
    ["freq", "--words", "0,0", "--sample"],
])
def test_rejected_input_prints_nothing(tmp_path, capsys, argv):
    if argv[-1] == "--spec":
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"a": ["1/2", "1/4"]}))
        argv = argv + [str(spec_file)]
    elif argv[-1].startswith("--"):   # the last flag names a file
        argv = argv + [_two_orbits(tmp_path)]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


def _bound_file(lo):
    def argv(tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"word": "0", "lo": lo, "hi": 1}]))
        return ["optimize", "--depth", "2", "--constraints", str(path)]
    return argv


def _table_file(p, mass):
    def argv(tmp_path):
        obj = table_to_json(bernoulli_table(p, 2))
        obj["levels"][0]["probs"][0] = mass   # in place of p_empty = 1
        path = tmp_path / "table.json"
        path.write_text(json.dumps(obj))
        return ["sample", "--length", "10", "--table", str(path)]
    return argv


def _spec_file(spec):
    def argv(tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return ["check", "--spec", str(path)]
    return argv


# Every mass read from outside goes through one parser: a zero
# denominator, a bool or a value beyond the float range is bad input.
@pytest.mark.parametrize("argv", [
    lambda tmp_path: ["check", "--a", "1/0"],
    lambda tmp_path: ["check", "--geometric", "1/0"],
    lambda tmp_path: ["freq", "--words", "0", "--targets", "1/0",
                      "--sample", _two_orbits(tmp_path)],
    _bound_file("1/0"),
    _table_file("1/2", "1/0"),
    _bound_file(True),
    _bound_file("1e400"),
    lambda tmp_path: ["freq", "--words", "0", "--targets", "1e400",
                      "--sample", _two_orbits(tmp_path)],
    _table_file(0.5, True),
    _spec_file({"a": [True]}),
    # "a" must be a list, not a string or an object read as one
    _spec_file({"a": "1"}),
    _spec_file({"a": {"1/2": 0}}),
    _spec_file({"a": "05"}),
], ids=["check-a", "check-geometric", "freq-targets", "optimize-bound",
        "table-mass", "optimize-bound-bool", "optimize-bound-huge",
        "freq-targets-huge", "float-table-mass-bool", "spec-value-bool",
        "spec-a-string", "spec-a-object", "spec-a-digits"])
def test_zero_denominator_is_bad_input(tmp_path, capsys, argv):
    code = run(argv(tmp_path))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


_NO_SOLVE_PIPELINE = """
import json, sys
from pathlib import Path
import shiftmaxent
from shiftmaxent import cli
tmp = Path(sys.argv[1])
table, orbits = str(tmp / "table.json"), str(tmp / "orbits.txt")
codes = [cli.run(argv) for argv in (
    ["check", "--a", "1/2,1/4"],
    ["build", "--a", "1/2,1/4", "--depth", "4", "--out", table],
    ["sample", "--table", table, "--length", "64", "--count", "2",
     "--out", orbits],
    ["freq", "--sample", orbits, "--words", "0,11",
     "--out", str(tmp / "freq.csv")],
    ["estimate", "--samples", orbits, "--n", "2", "--delta", "0.5"],
    ["generic", "--length", "32", "--out", str(tmp / "generic.txt")],
    ["entropy", "--a", "1/2,1/4", "--depth", "5"],
)]
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
status = shiftmaxent.solve(2, {"00": 0.0}).status
after = "scipy.optimize" in sys.modules
print(json.dumps({"codes": codes, "before": before, "status": status,
                  "after": after}))
"""


def test_commands_without_a_solve_never_import_scipy(tmp_path):
    src = Path(shiftmaxent.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SOLVE_PIPELINE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 7
    assert report["before"] == []
    assert report["status"] == "optimal"
    assert report["after"]


def test_parser_reuse_leaks_no_state(capsys):
    spec = ["--a", "1/2", "--depth", "2"]
    assert run(["sample", *spec, "--count", "3"]) == 1
    assert capsys.readouterr().out == ""
    assert run(["sample", *spec, "--length", "5", "--count", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert run(["sample", *spec, "--length", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    builds = []
    for _ in range(2):
        assert run(["build", "--a", "1/2,1/4", "--depth", "3"]) == 0
        builds.append(capsys.readouterr().out)
    assert builds[0] != ""
    assert builds[0] == builds[1]
