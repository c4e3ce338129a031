import csv
import dataclasses
import enum
import io
import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitdisc import cli
from slitdisc.cli import build_parser, main, to_jsonable
from slitdisc.qcmap import BeltramiData


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_counterexample_canonical_record(capsys):
    record = run_json(capsys, ["counterexample", "--alpha", "2/3"])
    chain = record["results"]["chain"]
    assert record["results"]["succeeds"] is True
    assert chain["alpha"] == "2/3"
    assert chain["source"] == {"r": "1/8", "t": "1/32"}
    assert chain["image"] == {"r": "1/2", "t": "1/32"}
    assert chain["source_classification"] == "ExhaustiveHenceComplete"
    assert chain["image_classification"] == "NotComplete"
    assert chain["qc_constant"] == "3"
    assert chain["beltrami_ratio"] == "1/2"
    assert chain["t_interval"] == ["1/64", "1/16"]
    assert record["config"]["alpha"] == "2/3"
    prov = record["provenance"]
    assert prov["tool"] == "slitdisc" and prov["seed"] == 0 and "timestamp_utc" in prov


def test_output_deterministic_modulo_timestamp(capsys):
    a = run_json(capsys, ["classify", "--r", "1/5", "--t", "1/100"])
    b = run_json(capsys, ["classify", "--r", "1/5", "--t", "1/100"])
    a["provenance"].pop("timestamp_utc")
    b["provenance"].pop("timestamp_utc")
    assert a == b


def test_classify_record(capsys):
    record = run_json(capsys, ["classify", "--r", "1/5", "--t", "1/625"])
    rep = record["results"]["report"]
    assert rep["classification"] == "NotComplete"
    assert rep["ratio_n1"] == "1"
    assert any("ratio = 1" in f for f in rep["flags"])
    assert rep["exhaustive_test"] == {"boundary_warning": False, "result": False}


def test_capacity_family_arc_log_domain(capsys):
    record = run_json(capsys, ["capacity", "--shape", "family-arc"])
    # defaults r=1/8, t=1/32, k=1: log cap = log(1/8) - 32
    assert record["results"]["closed_form_log"] == math.log(0.125) - 32.0
    assert record["results"]["family"]["r"] == "1/8"


def test_capacity_serializes_minus_inf(capsys):
    record = run_json(capsys, ["capacity", "--shape", "family-arc", "--k", "210"])
    assert record["results"]["closed_form_log"] == "-inf"


def test_capacity_circle_with_fekete_oracle(capsys):
    record = run_json(capsys, ["capacity", "--shape", "circle", "--radius", "1.0", "--fekete-n", "12"])
    res = record["results"]
    assert res["closed_form_log"] == 0.0
    assert abs(res["fekete_log"]) < 1e-6
    assert res["fekete_n"] == 12


def test_gamma_analytic_record(capsys):
    record = run_json(capsys, ["gamma", "--r", "1/5", "--t", "1/100"])
    res = record["results"]
    assert res["ratio"] == "1/4"
    rep = res["report"]
    assert rep["verdict"] == "Finite"
    assert rep["truncation"]["converged"] is True
    assert rep["value"] == pytest.approx(5.405120739404772, rel=1e-9)
    assert rep["lower_sum"] < rep["upper_sum"]
    assert rep["shell_terms"][0][0] == 1  # first shell index


def test_gamma_analytic_past_radius_underflow(capsys):
    # the finite tail runs past k = 275, where the shell radius 2r^(k+1) underflows
    rep = run_json(capsys, ["gamma", "--r", "1/15", "--t", "1/56250", "--n", "1"])["results"]["report"]
    assert rep["verdict"] == "Finite"
    assert rep["truncation"]["converged"] is True and rep["truncation"]["k_stop"] > 275


def test_gamma_numeric_path(capsys):
    record = run_json(capsys, ["gamma", "--r", "1/5", "--t", "1/100", "--numeric", "--kmax", "25"])
    rep = record["results"]["report"]
    assert rep["verdict"] == "Finite"
    assert rep["truncation"]["mode"] == "numeric-quadrature"
    assert 0.0 < rep["lower_sum"] <= rep["upper_sum"]


def test_phase_diagram_csv_exact_cells(capsys):
    code = main(
        [
            "phase-diagram",
            "--format",
            "csv",
            "--r-min",
            "1/10",
            "--r-max",
            "3/10",
            "--r-steps",
            "3",
            "--t-min",
            "1/100",
            "--t-max",
            "1/4",
            "--t-steps",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "t", "verdict", "ratio_n0", "ratio_n1"]
    assert len(rows) == 1 + 9
    # first cell: r = 1/10, t = 1/100 = r^2, inclusive boundary
    assert rows[1][:3] == ["1/10", "1/100", "ExhaustiveHenceComplete"]
    assert rows[1][3] == "1"
    # the middle grid point is exactly the rational midpoint
    assert rows[5][0] == "1/5"


def test_qc_record(capsys):
    record = run_json(capsys, ["qc", "--alpha", "2/3", "--r", "1/8"])
    res = record["results"]
    assert res["L"] == "3"
    assert res["image"]["r"] == "1/2"
    assert res["image_flags"]
    fz = res["beltrami"]["f_z"]
    assert fz["im"] == 0.0 and fz["re"] > 0.0


def test_kernel_record(capsys):
    record = run_json(capsys, ["kernel", "--z", "0.5", "--max-degree", "30"])
    est = record["results"]["estimate"]
    assert est["kernel"] == pytest.approx(1.0 / (math.pi * 0.5625), rel=1e-9)
    assert est["metric"] == pytest.approx(2.0 / 0.5625, rel=1e-9)
    assert est["basis_size"] == 31


def test_kernel_path_length(capsys):
    record = run_json(
        capsys, ["kernel", "--max-degree", "30", "--z", "0.1", "--path", "0", "0.5", "--samples", "65"]
    )
    got = record["results"]["path_length"]
    assert got == pytest.approx(math.sqrt(2.0) * math.atanh(0.5), rel=1e-4)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "record.json"
    code = main(["classify", "--r", "1/5", "--t", "1/100", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    record = json.loads(target.read_text())
    assert record["results"]["report"]["classification"] == "Unknown"


def test_module_errors_exit_one(capsys):
    code = main(["classify", "--r", "2", "--t", "1/32"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:")
    code = main(["gamma", "--r", "1/5", "--t", "3/10", "--z", "0.9", "--kmax", "30"])
    err = capsys.readouterr().err
    assert code == 1 and "error:" in err


def test_argparse_misuse_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["classify"])  # missing --r/--t
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "slitdisc" in capsys.readouterr().out


def test_to_jsonable_projections():
    from fractions import Fraction

    assert to_jsonable(Fraction(3, 7)) == "3/7"
    assert to_jsonable(float("inf")) == "inf"
    assert to_jsonable(float("-inf")) == "-inf"
    assert to_jsonable(float("nan")) == "nan"
    assert to_jsonable(1 + 2j) == {"im": 2.0, "re": 1.0}
    assert to_jsonable((1, [2.5, None])) == [1, [2.5, None]]


def dumps(obj) -> str:
    """The record encoding main uses."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2)


def test_to_jsonable_pinned_encodings():
    assert dumps(np.float64(0.1)) == "0.1"
    assert [dumps(np.float64(x)) for x in ("inf", "-inf", "nan")] == ['"inf"', '"-inf"', '"nan"']
    assert dumps([True, 1, False, 0]) == "[\n  true,\n  1,\n  false,\n  0\n]"

    class Colour(enum.Enum):
        RED = "red"

    assert dumps({"c": Colour.RED}) == '{\n  "c": "red"\n}'
    beltrami = BeltramiData(f_z=2 + 0j, f_zbar=-0.5j, ratio=Fraction(1, 4))
    assert json.loads(dumps(beltrami)) == {
        "f_z": {"im": 0.0, "re": 2.0},
        "f_zbar": {"im": -0.5, "re": -0.0},
        "ratio": "1/4",
    }

    @dataclasses.dataclass(frozen=True)
    class Inner:
        x: float
        flag: bool

    @dataclasses.dataclass(frozen=True)
    class Outer:
        inner: Inner
        terms: tuple

    nested = Outer(Inner(float("-inf"), True), ((1, 0.5), (2, Fraction(3, 2))))
    assert json.loads(dumps(nested)) == {"inner": {"flag": True, "x": "-inf"}, "terms": [[1, 0.5], [2, "3/2"]]}
    assert dumps(((1, 2.5), (3,))) == "[\n  [\n    1,\n    2.5\n  ],\n  [\n    3\n  ]\n]"


_finite_trees = st.recursive(
    st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=20,
)


@given(_finite_trees)
def test_to_jsonable_finite_floats_round_trip(tree):
    back = json.loads(dumps(tree))
    assert back == tree
    assert json.dumps(back, sort_keys=True) == json.dumps(tree, sort_keys=True)  # signed zeros too


# ---------------------------------------------------------------------------
# one parser per process


def _strip_timestamp(text: str) -> str:
    stripped, count = re.subn(r'"timestamp_utc": "[^"]*"', '"timestamp_utc": ""', text)
    assert count == 1
    return stripped


def test_cached_parser_records_match_first_runs(capsys):
    build_parser.cache_clear()
    argvs = {
        "classify": ["classify", "--r", "1/5", "--t", "1/100"],
        "kernel-path": ["kernel", "--max-degree", "10", "--z", "0.1", "--path", "0", "0.5", "--samples", "17"],
        "kernel": ["kernel", "--max-degree", "10", "--z", "0.1"],
        "gamma": ["gamma", "--r", "1/5", "--t", "1/100", "--n", "1"],
        "phase-diagram": ["phase-diagram", "--r-steps", "2", "--t-steps", "2"],
    }

    def record(name):
        assert main(argvs[name]) == 0
        return _strip_timestamp(capsys.readouterr().out)

    first = {name: record(name) for name in argvs}
    assert build_parser() is build_parser()
    for name in ("kernel", "classify", "kernel-path", "kernel", "phase-diagram", "gamma", "kernel-path", "classify"):
        assert record(name) == first[name], name
    assert json.loads(first["kernel"])["config"]["path"] is None
    assert json.loads(first["kernel-path"])["config"]["path"] == ["0", "0.5"]


def test_main_looks_up_command_by_name(monkeypatch, capsys):
    # a cmd_* function rebound after the parser is built still runs
    run_json(capsys, ["classify", "--r", "1/5", "--t", "1/100"])
    seen = []

    def replacement(args):
        seen.append((args.r, args.t))
        return {"replaced": True}

    monkeypatch.setattr(cli, "cmd_classify", replacement)
    record = run_json(capsys, ["classify", "--r", "1/7", "--t", "1/50"])
    assert seen == [("1/7", "1/50")]
    assert record["results"] == {"replaced": True}
    assert record["config"] == {"command": "classify", "format": "json", "kmax": 200, "r": "1/7", "seed": 0, "t": "1/50"}


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_command_lines() -> list[list[str]]:
    """argv of every `slitdisc ...` line in README's sh blocks, continuations joined."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("slitdisc "):
                lines.append(shlex.split(line)[1:])
    return lines


def test_readme_command_lines_run(capsys):
    commands = readme_command_lines()
    assert len(commands) >= 10 and any("--numeric" in argv for argv in commands)
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), argv
        else:
            assert "results" in json.loads(out), argv
