import argparse
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
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from shell_reference import sandwich_sums

from slitdisc import cli
from slitdisc.cli import build_parser, main, to_jsonable
from slitdisc.geometry import ParamRT
from slitdisc.numerics import parse_number
from slitdisc.qcmap import BeltramiData
from slitdisc.wiener import threshold_report


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
    assert prov["tool"] == "slitdisc" and "timestamp_utc" in prov and "seed" not in prov


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


def test_capacity_fekete_refuses_a_piece_too_short_for_its_pair_weights(capsys):
    # 1/d^2 of 8 points on a 1e-200 segment overflows: the closed form answers
    assert main(["capacity", "--shape", "segment", "--length", "1e-200", "--fekete-n", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "use the closed-form capacity path" in captured.err


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
    # the finite tail runs past k = 275, where the shell radius 2r^(k+1)
    # underflows; the record's bracket holds the 50-digit sums of all shells
    rep = run_json(capsys, ["gamma", "--r", "1/15", "--t", "1/56250", "--n", "1"])["results"]["report"]
    assert rep["verdict"] == "Finite"
    assert rep["truncation"]["converged"] is True
    lower, upper = sandwich_sums(Fraction(1, 15), Fraction(1, 56250), 1)
    assert rep["lower_sum"] <= lower and upper <= rep["upper_sum"]


def test_gamma_t_below_the_double_range(capsys):
    # float(t) is 0.0; the logs come from the Fraction
    rep = run_json(capsys, ["gamma", "--r", "1/5", "--t", f"1/{10**400}", "--n", "0"])["results"]["report"]
    assert rep["verdict"] == "Finite"
    assert rep["truncation"]["converged"] is True
    assert rep["shell_terms_log"][0][0] == 1 and math.isfinite(rep["shell_terms_log"][0][2])


T_BELOW_THE_DOUBLE_RANGE = f"1/{10**400}"  # float(t) is 0.0


def test_gamma_numeric_t_below_the_double_range(capsys):
    # every arc is degenerate, a point of capacity 0: h vanishes on every cell
    argv = ["gamma", "--r", "1/5", "--t", T_BELOW_THE_DOUBLE_RANGE, "--numeric"]
    rep = run_json(capsys, argv)["results"]["report"]
    assert rep["verdict"] == "Finite" and rep["truncation"]["cells"] == 336
    assert rep["lower_sum"] == rep["upper_sum"] == 0.0


def test_capacity_family_arc_t_below_the_double_range(capsys):
    argv = ["capacity", "--shape", "family-arc", "--r", "1/5", "--t", T_BELOW_THE_DOUBLE_RANGE]
    assert run_json(capsys, argv)["results"]["closed_form_log"] == "-inf"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--r", "1e-80", "--t", "0.1"],
        ["gamma", "--r", "1e-80", "--t", "0.1", "--n", "1"],
        ["phase-diagram", "--r-min", "1e-80", "--r-max", "1e-80"],
    ],
    ids=["classify", "gamma", "phase-diagram"],
)
def test_float_ratio_past_the_double_range(capsys, argv):
    # t / r^4 is about 1e319: shown as inf, and r^2 <= t decides the verdict
    results = run_json(capsys, argv)["results"]
    if argv[0] == "classify":
        assert results["report"]["classification"] == "ExhaustiveHenceComplete"
        assert results["report"]["ratio_n1"] == "inf"
    elif argv[0] == "gamma":
        assert results["report"]["verdict"] == "Divergent" and results["ratio"] == "inf"
    else:
        assert len(results["rows"]) == 50 * 50
        assert {row["verdict"] for row in results["rows"]} == {"ExhaustiveHenceComplete"}
        assert {row["ratio_n1"] for row in results["rows"]} == {"inf"}


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


def _cmd_phase_diagram_per_cell(args):
    """The sweep as it ran before the row path, one threshold_report a cell:
    the reference the row path must match byte for byte."""
    r_min, r_max = parse_number(args.r_min), parse_number(args.r_max)
    t_min, t_max = parse_number(args.t_min), parse_number(args.t_max)
    if not (0 < r_min <= r_max < 1 and 0 < t_min <= t_max < Fraction(1, 2)):
        raise ValueError("grid bounds must satisfy 0 < r < 1 and 0 < t < 1/2")
    rows = []
    ts = [t_min + (t_max - t_min) * Fraction(j, max(args.t_steps - 1, 1)) for j in range(args.t_steps)]
    for i in range(args.r_steps):
        r = r_min + (r_max - r_min) * Fraction(i, max(args.r_steps - 1, 1))
        for t in ts:
            rep = threshold_report(ParamRT(r, t))
            rows.append(
                {"r": r, "t": t, "verdict": rep.classification.value, "ratio_n0": rep.ratio_n0, "ratio_n1": rep.ratio_n1}
            )
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["r", "t", "verdict", "ratio_n0", "ratio_n1"])
        for row in rows:
            writer.writerow([cli._csv_cell(row[k]) for k in ("r", "t", "verdict", "ratio_n0", "ratio_n1")])
        return {"rows": rows}, buf.getvalue()
    return {"rows": rows}, None


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "grid",
    [
        [],
        ["--r-min", "0.05", "--r-max", "0.45", "--t-min", "0.01", "--t-max", "0.49", "--r-steps", "21", "--t-steps", "31"],
        ["--r-min", "1/10", "--r-max", "0.3", "--t-min", "0.0001", "--t-max", "9/100", "--r-steps", "21", "--t-steps", "31"],
        ["--r-min", "0.1", "--r-max", "0.3", "--t-min", "1/10000", "--t-max", "9/100", "--r-steps", "21", "--t-steps", "31"],
    ],
    ids=["default-50x50", "float", "mixed-float-t", "mixed-exact-t"],
)
def test_phase_diagram_matches_per_cell_sweep(capsys, monkeypatch, grid, fmt):
    argv = ["phase-diagram", "--format", fmt, *grid]

    def record():
        assert main(argv) == 0
        out = capsys.readouterr().out
        return out if fmt == "csv" else _strip_timestamp(out)

    rows = record()
    monkeypatch.setattr(cli, "cmd_phase_diagram", _cmd_phase_diagram_per_cell)
    assert record() == rows


@pytest.mark.parametrize("option, steps", [("--r-steps", "0"), ("--t-steps", "-3")])
def test_phase_diagram_rejects_step_counts_below_one(capsys, option, steps):
    code = main(["phase-diagram", option, steps])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {option} must be at least 1, got {steps}\n"


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


def test_kernel_high_degree_needs_no_angular_grid(capsys):
    # degree 130 with the default 512 angular points: the moments are radial
    # only, so nothing bounds the degree by the angular count
    est = run_json(capsys, ["kernel", "--max-degree", "130", "--z", "0.5"])["results"]["estimate"]
    assert est["basis_size"] == 131
    assert est["kernel"] == pytest.approx(1.0 / (math.pi * 0.5625), rel=1e-12)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--shape", "segment", "--length", "inf"],
        ["--shape", "segment", "--length", "nan"],
        ["--shape", "circle", "--radius", "inf"],
        ["--shape", "disc", "--radius", "nan"],
        ["--shape", "arc", "--radius", "inf", "--half-width", "0.5"],
    ],
    ids=["segment-inf", "segment-nan", "circle-inf", "disc-nan", "arc-inf"],
)
def test_capacity_rejects_non_finite_shapes(capsys, argv):
    code = main(["capacity", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["qc", "--alpha", "2/3", "--t", "1/16"], "--t"),
        (["kernel", "--inner-radius", "1/3", "--max-degree", "3"], "--inner-radius"),
        (["kernel", "--domain", "punctured", "--inner-radius=1/2", "--max-degree", "3"], "--inner-radius"),
        (["capacity", "--shape", "circle", "--r", "1/5"], "--r"),
        (["capacity", "--shape", "segment", "--t", "1/32"], "--t"),
        (["capacity", "--shape", "arc", "--half-width", "0.5", "--k", "2"], "--k"),
    ],
    ids=["qc-t", "kernel-disc", "kernel-punctured", "capacity-r", "capacity-t", "capacity-k"],
)
def test_option_the_command_would_not_read_exits_one(capsys, argv, option):
    # named even at its default value: the command line named it
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {option} is read only with " + {
        "qc": "--r",
        "kernel": "--domain annulus",
        "capacity": "--shape family-arc",
    }[argv[0]] + "\n"


def test_options_read_under_their_condition_echo_as_before(capsys):
    record = run_json(capsys, ["capacity", "--shape", "family-arc", "--r", "1/5", "--t", "1/100", "--k", "2"])
    assert record["results"]["family"] == {"k": 2, "r": "1/5", "t": "1/100"}
    assert "given" not in record["config"] and record["config"]["k"] == 2
    record = run_json(capsys, ["qc", "--alpha", "2/3", "--r", "1/8", "--t", "1/16"])
    assert record["config"] == {"alpha": "2/3", "command": "qc", "r": "1/8", "t": "1/16", "z": "0.25"}
    assert record["results"]["source"] == {"r": "1/8", "t": "1/16"}


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
    """The stdlib reference encoding, which to_json_text reproduces byte for byte."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2)


def test_to_jsonable_pinned_encodings():
    assert dumps(np.float64(0.1)) == "0.1"
    assert [dumps(np.float64(x)) for x in ("inf", "-inf", "nan")] == ['"inf"', '"-inf"', '"nan"']
    assert dumps([True, 1, False, 0]) == "[\n  true,\n  1,\n  false,\n  0\n]"

    class Colour(enum.Enum):
        RED = "red"

    assert dumps({"c": Colour.RED}) == '{\n  "c": "red"\n}'
    # enum mixins by their str or int content, a NamedTuple by its fields
    assert [dumps(x) for x in (_Colour.RED, _Level.HUGE, _Plain.PAIR)] == ['"red"', str(2**70), "[\n  1,\n  2.5\n]"]
    assert json.loads(dumps(_Pair(1, Fraction(1, 2)))) == {"a": 1, "b": "1/2"}
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
# the one-walk writer against the stdlib encoding


class _Colour(str, enum.Enum):
    RED = "red"
    ESCAPED = 'q"\\\n\u00e9\U0001f600'


class _Level(int, enum.Enum):
    LOW = 1
    HUGE = 2**70


class _Plain(enum.Enum):
    A = "a"
    PAIR = (1, 2.5)


@dataclasses.dataclass(frozen=True)
class _Inner:
    x: object
    label: str


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    items: tuple


class _Pair(NamedTuple):
    a: object
    b: object


_enums = st.sampled_from([*_Colour, *_Level, *_Plain])
_leaves = (
    st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e300, math.inf, -math.inf, math.nan])
    | st.integers(-(2**100), 2**100)
    | st.booleans()
    | st.none()
    | st.text()
    | st.fractions()
    | st.complex_numbers()
    | st.floats().map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | _enums
)
_keys = st.text(max_size=3) | st.integers(-3, 3) | st.floats() | st.booleans() | st.none() | st.fractions() | _enums


def _containers(kids):
    inner = st.builds(_Inner, kids, st.text(max_size=3))
    return (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_keys, kids, max_size=4)
        | inner
        | st.builds(_Outer, inner, st.lists(kids, max_size=3).map(tuple))
        | st.builds(_Pair, kids, kids)
    )


@given(st.recursive(_leaves, _containers, max_leaves=25))
@example({1: "a", "1": "b", 1.5: [], "x": {}})
@example({"1": "b", 1: "a"})
@example([(), {}, [[]], _Pair(-0.0, np.float64("nan"))])
def test_to_json_text_is_the_stdlib_encoding(tree):
    assert cli.to_json_text(tree) == dumps(tree)


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
    assert record["config"] == {"command": "classify", "r": "1/7", "t": "1/50"}


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


def test_readme_records_are_the_stdlib_encoding(capsys, monkeypatch):
    records = []
    writer = cli.to_json_text

    def spy(record):
        records.append(record)
        return writer(record)

    monkeypatch.setattr(cli, "to_json_text", spy)
    for argv in readme_command_lines():
        records.clear()
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if "csv" in argv:
            assert not records, argv
        else:
            assert len(records) == 1 and out == dumps(records[0]) + "\n", argv


def test_readme_csv_excerpt_is_the_leading_output(capsys):
    # the text block after the phase-diagram command: its lines before "..."
    excerpt = re.search(r"Rational inputs are parsed exactly.*?```text\n(.*?)```", README.read_text(), re.S).group(1)
    head = excerpt.split("...\n")[0].splitlines()
    (argv,) = [argv for argv in readme_command_lines() if argv[0] == "phase-diagram"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(head) >= 3 and out[: len(head)] == head


# argvs that together reach every option of each subcommand
ARGVS_BY_COMMAND = {
    "capacity": [
        ["capacity", "--shape", "circle", "--fekete-n", "8", "--seed", "1"],
        ["capacity", "--shape", "arc", "--half-width", "1.0", "--equilibrium-m", "16"],
        ["capacity", "--shape", "segment"],
        ["capacity", "--shape", "disc"],
        ["capacity", "--shape", "family-arc"],
    ],
    "gamma": [["gamma", "--r", "1/5", "--t", "1/100", "--numeric", "--kmax", "25"]],
    "classify": [["classify", "--r", "1/5", "--t", "1/100"]],
    "phase-diagram": [["phase-diagram", "--r-steps", "2", "--t-steps", "2", "--format", "csv"]],
    "qc": [["qc", "--alpha", "2/3", "--r", "1/8"]],
    "kernel": [
        ["kernel", "--domain", "annulus", "--max-degree", "5", "--min-degree", "-3", "--z", "0.7"]
        + ["--radial-order", "16", "--angular-points", "8", "--path", "0.6", "0.7", "--samples", "9"]
    ],
    "counterexample": [["counterexample"]],
}


class _ReadRecorder:
    """An argparse Namespace that records which attributes are read."""

    def __init__(self, namespace: argparse.Namespace, read: set[str]):
        self._namespace, self._read = namespace, read

    def __getattr__(self, name):
        self._read.add(name)
        return getattr(self._namespace, name)


def test_no_dead_cli_option():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(ARGVS_BY_COMMAND) == set(subparsers.choices)
    for command, argvs in ARGVS_BY_COMMAND.items():
        dests, read = set(), set()
        for argv in argvs:
            namespace = build_parser().parse_args(argv)
            dests |= set(vars(namespace))
            getattr(cli, "cmd_" + command.replace("-", "_"))(_ReadRecorder(namespace, read))
        assert dests - {"command", "out"} - read == set(), command


def readme_python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_python_blocks_run(capsys):
    blocks = readme_python_blocks()
    assert len(blocks) >= 3
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
