"""Command-line behavior: reports, formats, determinism, error records."""

import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orbitscope
from orbitscope import cli, errors
from orbitscope.cli import _structured_error, main
from orbitscope.groups import close_generators
from orbitscope.invariants import molien_series

Z2_LINE = [[["-1"]]]
Z2_PLANE = [[["-1", "0"], ["0", "-1"]]]
D4 = [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "-1"]]]
SHEAR = [[["1", "1"], ["0", "1"]]]
# the signed permutations of R^4: a transposition, a 4-cycle, a sign flip
B4 = [
    [["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"]],
    [["-1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
]


def write_spec(tmp_path, name, gens, **extra):
    doc = {"name": name, "generators": gens, **extra}
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def error_code(err: str) -> str:
    return json.loads(err)["error"]["code"]


def test_group_report(tmp_path, capsys):
    spec = write_spec(tmp_path, "d4", D4)
    rc, out, err = run(capsys, ["group", "--spec", spec])
    assert rc == 0 and err == ""
    assert "order 8" in out
    assert "cayley table closed: yes" in out
    assert "subgroups: 10 in 8 conjugacy classes" in out


def test_b4_group_and_strata(tmp_path, capsys):
    # extending every subgroup of B4 (order 384) takes 344949 closures,
    # past the default cap; one subgroup per class, extended by one cyclic
    # subgroup per orbit of its normalizer, takes 7720
    spec = write_spec(tmp_path, "b4", B4)
    rc, out, err = run(capsys, ["group", "--spec", spec])
    assert rc == 0 and err == ""
    assert "order 384" in out
    assert "subgroups: 1659 in 193 conjugacy classes" in out
    rc, _, err = run(capsys, ["strata", "--spec", spec])
    assert rc == 0 and err == ""


def test_group_non_closing(tmp_path, capsys):
    spec = write_spec(tmp_path, "shear", SHEAR, max_order=300)
    rc, out, err = run(capsys, ["group", "--spec", spec])
    assert rc == 1
    assert error_code(err) == "groups.OrderCapExceeded"


def test_group_singular_generator(tmp_path, capsys):
    spec = write_spec(tmp_path, "singular", [[["1", "0"], ["0", "0"]]])
    rc, _, err = run(capsys, ["group", "--spec", spec])
    assert rc == 1
    assert error_code(err) == "groups.NonInvertibleGenerator"


def _error_classes():
    found, todo = [], [errors.OrbitscopeError]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_error_code_names_its_layer(cls, capsys):
    # the layer is a real orbitscope module that uses the class, never errors
    assert cls.layer != "errors"
    module = importlib.import_module(f"orbitscope.{cls.layer}")
    assert cls.__name__ in inspect.getsource(module)
    _structured_error(cls("boom"))
    assert error_code(capsys.readouterr().err) == f"{cls.layer}.{cls.__name__}"


@pytest.mark.parametrize(
    "command", [["invariants"], ["landau"], ["reduce"], ["flow", "--x0", "0.3"]],
    ids=lambda c: c[0],
)
def test_basis_without_generators(tmp_path, capsys, command):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    rc, _, err = run(capsys, [command[0], "--spec", spec, "--degree-cap", "1", *command[1:]])
    assert rc == 1
    assert error_code(err) == "invariants.CapTooLow"


SHARED_FLAGS = {"--help", "--spec", "--out", "--format"}
MODEL_FLAGS = {"--degree-cap", "--ell", "--param"}
COMMAND_FLAGS = {
    "group": set(),
    "invariants": {"--degree-cap", "--relation-cap"},
    "strata": set(),
    "landau": MODEL_FLAGS | {"--sweep", "--seed", "--tol"},
    "reduce": MODEL_FLAGS,
    "flow": MODEL_FLAGS | {"--tol", "--x0", "--t-end", "--dt"},
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_help_lists_only_the_flags_the_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z0-9-]+", capsys.readouterr().out))
    assert listed == SHARED_FLAGS | COMMAND_FLAGS[command]


@pytest.mark.parametrize("argv", [
    ["strata", "--seed", "3"],
    ["group", "--ell", "4"],
    ["flow", "--x0", "0.1,0.2", "--sweep", "a1:0:1:3"],
    ["reduce", "--tol", "1e-9"],
    ["reduce", "--seed", "3"],
], ids=["strata-seed", "group-ell", "flow-sweep", "reduce-tol", "reduce-seed"])
def test_unread_flag_is_a_usage_error(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, "d4", D4)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--spec", spec, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unread_flag_gets_the_subcommand_usage(tmp_path, capsys):
    spec = write_spec(tmp_path, "d4", D4)
    with pytest.raises(SystemExit) as exc:
        main(["strata", "--spec", spec, "--seed", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: orbitscope strata")
    assert "orbitscope strata: error: unrecognized arguments: --seed 3" in err


@pytest.mark.parametrize("spec, flags", [
    ("d4", ["--degree-cap", "3"]),          # one generator: a truncated basis
    ("o-rot", ["--relation-cap", "10"]),    # 4 generators in R^3, relation at degree 18
], ids=["d4-degree-cap", "o-rot-relation-cap"])
def test_uncertified_basis_is_not_coregular(capsys, spec, flags):
    path = str(Path(__file__).resolve().parent / "golden" / "specs" / f"{spec}.json")
    argv = ["invariants", "--spec", path, *flags]
    rc, out, _ = run(capsys, [*argv, "--format", "json"])
    assert rc == 0
    report = json.loads(out)["report"]
    assert report["relations"] == []
    assert report["coregular"] is False
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert "(coregular)" not in out
    assert "relations (0):" in out


def test_readme_invariants_example(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("$ orbitscope invariants --spec z2r2.json\n", 1)[1]
    example = block.split("```", 1)[0].splitlines()
    spec = write_spec(tmp_path, "z2r2", Z2_PLANE)
    rc, out, _ = run(capsys, ["invariants", "--spec", spec])
    assert rc == 0
    assert [l[0] for l in example[:3]] == ["#"] * 3
    assert out.splitlines()[3:] == example[3:]


def test_missing_spec_file(tmp_path, capsys):
    rc, _, err = run(capsys, ["group", "--spec", str(tmp_path / "nope.json")])
    assert rc == 1
    assert error_code(err) == "cli.SpecParseError"


def test_spec_bad_max_order(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2line", Z2_LINE, max_order="abc")
    rc, _, err = run(capsys, ["group", "--spec", spec])
    assert rc == 1
    assert error_code(err) == "cli.SpecParseError"


@pytest.mark.parametrize("name", [0, False, [], 1, None, "", "z2"])
def test_spec_name_is_a_string_or_null(tmp_path, capsys, name):
    # null and "" label the reports with the file's stem; any other
    # non-string name is an error, falsy or not
    p = tmp_path / "stem.json"
    p.write_text(json.dumps({"name": name, "generators": Z2_LINE}))
    rc, out, err = run(capsys, ["group", "--spec", str(p)])
    if name is None or isinstance(name, str):
        assert rc == 0 and f"\ngroup {name or 'stem'}: order 2," in out
    else:
        assert rc == 1 and error_code(err) == "cli.SpecParseError"


def test_malformed_spec(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    rc, _, err = run(capsys, ["group", "--spec", str(p)])
    assert rc == 1
    assert error_code(err) == "cli.SpecParseError"


def test_float_entries_rejected(tmp_path, capsys):
    p = tmp_path / "float.json"
    p.write_text(json.dumps({"generators": [[[-1.0]]]}))
    rc, _, err = run(capsys, ["group", "--spec", str(p)])
    assert rc == 1
    assert error_code(err) == "cli.SpecParseError"


@pytest.mark.parametrize("gens, argv", [
    (3, ["group"]),
    ([3], ["group"]),
    ([[3]], ["group"]),
    ([[["1/0"]]], ["group"]),
    (Z2_LINE, ["landau", "--param", "a1=1/0"]),
    (Z2_LINE, ["landau", "--sweep", "a1:1/0:1:5"]),
    (Z2_LINE, ["invariants", "--degree-cap", "-3"]),
    (Z2_LINE, ["flow", "--x0", "0.1", "--t-end", "1e300", "--dt", "1e-300"]),
    (Z2_LINE, ["flow", "--x0", "0.1", "--t-end", "1e9", "--dt", "1e-9"]),
    (Z2_LINE, ["invariants", "--relation-cap", "-1"]),
    (Z2_LINE, ["landau", "--seed=-1"]),
    (Z2_LINE, ["landau", "--sweep", "a1:-1:1:10001"]),
], ids=["generators-int", "generator-int", "row-int", "entry-1/0", "param-1/0",
        "sweep-1/0", "degree-cap-negative", "flow-step-overflow", "flow-too-many-steps",
        "relation-cap-negative", "seed-negative", "sweep-too-many-steps"])
def test_bad_input_is_one_error_record(tmp_path, capsys, gens, argv):
    spec = write_spec(tmp_path, "bad", gens)
    rc, out, err = run(capsys, [argv[0], "--spec", spec, *argv[1:]])
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert error_code(err) == "cli.SpecParseError"


def test_invariants_z2_plane_text(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2r2", Z2_PLANE)
    rc, out, _ = run(capsys, ["invariants", "--spec", spec])
    assert rc == 0
    assert "degrees [2, 2, 2]" in out
    assert "J1 = x1^2" in out and "J2 = x2^2" in out and "J3 = x1*x2" in out
    assert "J1*J2 - J3^2 = 0" in out


def test_invariants_json_matches_library(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2r2", Z2_PLANE)
    rc, out, _ = run(capsys, ["invariants", "--spec", spec, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    rep = close_generators(
        [tuple(tuple(int(e) for e in row) for row in Z2_PLANE[0])], name="z2r2"
    )
    assert doc["report"]["molien"] == list(molien_series(rep, 8).coefficients)
    assert doc["report"]["degrees"] == [2, 2, 2]
    assert doc["config"]["seed"] == 0
    assert doc["config"]["version"]


def test_strata_report(tmp_path, capsys):
    spec = write_spec(tmp_path, "d4", D4)
    rc, out, _ = run(capsys, ["strata", "--spec", spec])
    assert rc == 0
    assert "principal: T0" in out
    assert "guaranteed critical rays: 2" in out
    assert "direction (1, 0)" in out and "direction (1, 1)" in out


def test_landau_sweep_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    rc, out, _ = run(
        capsys,
        ["landau", "--spec", spec, "--ell", "4", "--param", "a2=1",
         "--sweep", "a1:-1:1:21", "--format", "csv"],
    )
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("a1,symmetry,min_value")
    data = [l.split(",") for l in lines[1:]]
    assert len(data) == 21
    by_a = {row[0]: row[1] for row in data}
    assert by_a["-1.0"] == "T0"      # broken phase
    assert by_a["0.0"] == "T1"       # symmetric phase from the flip on
    assert by_a["1.0"] == "T1"


def test_landau_point_mode(tmp_path, capsys):
    spec = write_spec(tmp_path, "d4", D4)
    rc, out, _ = run(
        capsys,
        ["landau", "--spec", spec, "--param", "a1=-1", "--param", "a2=1",
         "--param", "a3=1/2", "--format", "json"],
    )
    assert rc == 0
    doc = json.loads(out)
    points = doc["report"]["critical_points"]
    assert points
    best = points[0]
    assert best["symmetry"] == "T1"       # axis phase at c = +1/2
    assert abs(float(best["value"]) + 0.25) < 0.1


def test_landau_unknown_param(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    rc, _, err = run(
        capsys, ["landau", "--spec", spec, "--ell", "4", "--param", "zz=1"]
    )
    assert rc == 1
    assert error_code(err) == "landau.UnknownParameter"


def test_reduce_text_mentions_everything(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    rc, text, _ = run(capsys, ["reduce", "--spec", spec, "--ell", "6"])
    assert rc == 0
    assert "degree 4" in text and "degree 6" in text
    assert "J1^3" in text and "J1^2" in text


def test_reduce_report(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    rc, out, _ = run(
        capsys,
        ["reduce", "--spec", spec, "--ell", "6", "--param", "a2=1",
         "--param", "a3=3/10", "--format", "json"],
    )
    assert rc == 0
    doc = json.loads(out)
    rep = doc["report"]
    assert rep["removed"] == [{"degree": 6, "monomial": [3]}]
    assert [g["degree"] for g in rep["generators"]] == [4, 6]
    assert float(rep["verification"]["min_slope"]) >= 7.0


@pytest.mark.parametrize("spec, ell, slope", [("s4-std", 4, 5), ("z2xz2", 5, 6)])
def test_reduce_passes_the_exact_oracle(capsys, spec, ell, slope):
    # the exact residual starts one degree past the truncation, which a
    # float slope fit over the scales 1 to 1/8 read as 4.948 and 5.984
    path = Path(__file__).parent / "golden" / "specs" / f"{spec}.json"
    rc, out, err = run(capsys, ["reduce", "--spec", str(path), f"--ell={ell}", "--format", "json"])
    assert rc == 0 and err == ""
    verification = json.loads(out)["report"]["verification"]
    assert verification["min_slope"] == str(slope)
    assert verification["required"] == slope


def test_pole_at_the_parameter_point_is_an_error_record(capsys):
    # the degree-4 generator's coefficient (-1/4*a4)/(a2 + a1) has a pole at
    # a2 = -a1 = 1/2, where the report evaluates it
    path = Path(__file__).parent / "golden" / "specs" / "z2xz2.json"
    rc, out, err = run(capsys, ["reduce", "--spec", str(path), "--ell", "4", "--param", "a2=1/2"])
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert error_code(err) == "params.ParameterPole"


@pytest.mark.parametrize("command", [
    ["reduce"], ["landau"], ["flow", "--x0", "0.1"],
], ids=lambda c: c[0])
def test_ell_below_two_is_an_input_error(tmp_path, capsys, command):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    rc, out, err = run(capsys, [command[0], "--spec", spec, "--ell", "1", *command[1:]])
    assert rc == 1 and out == ""
    assert error_code(err) == "cli.SpecParseError"
    assert "--ell" in json.loads(err)["error"]["message"]


def test_flow_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    rc, out, _ = run(
        capsys,
        ["flow", "--spec", spec, "--ell", "4", "--param", "a1=-1",
         "--param", "a2=1", "--x0", "0.1", "--t-end", "0.05", "--dt", "0.01",
         "--format", "csv"],
    )
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,x1,J1,phi"
    assert len(lines) == 1 + 6       # header + initial point + 5 steps


def test_flow_zero_duration(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    rc, out, _ = run(
        capsys,
        ["flow", "--spec", spec, "--x0", "0.1", "--t-end", "0", "--dt", "0.1",
         "--format", "json"],
    )
    assert rc == 0
    report = json.loads(out)["report"]
    assert report["steps"] == 0
    assert [row[0] for row in report["rows"]] == ["0"]
    assert report["final_state"] == ["0.1"]


@pytest.mark.parametrize("dt", ["0.005", "0.01"])
def test_flow_overshoot_out_of_range_is_retried(capsys, dt):
    # from (3, 1) a full step overshoots out of the finite range (at
    # dt = 0.005 only phi overflows, to nan); the energy guard's substeps
    # keep it finite and descending, as for an uphill overshoot
    path = Path(__file__).parent / "golden" / "specs" / "d4.json"
    rc, out, err = run(capsys, ["flow", "--spec", str(path), "--x0", "3,1",
                                "--t-end", "1", "--dt", dt, "--format", "json"])
    assert rc == 0 and err == ""
    report = json.loads(out)["report"]
    assert report["steps"] == round(1 / float(dt))
    phis = [float(row[-1]) for row in report["rows"]]
    assert all(map(math.isfinite, phis))
    assert all(b <= a + 1e-9 for a, b in zip(phis, phis[1:]))
    assert phis[-1] < 0.0


def test_flow_x0_dimension(tmp_path, capsys):
    spec = write_spec(tmp_path, "d4", D4)
    rc, _, err = run(
        capsys, ["flow", "--spec", spec, "--x0", "0.1", "--t-end", "1"]
    )
    assert rc == 1
    assert error_code(err) == "cli.SpecParseError"


@pytest.mark.parametrize(
    "flag", [["--x0", "abc"], ["--x0", "0.1", "--dt", "0"]], ids=["x0", "dt"]
)
def test_flow_bad_arguments(tmp_path, capsys, flag):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    rc, _, err = run(capsys, ["flow", "--spec", spec, *flag])
    assert rc == 1
    assert error_code(err) == "cli.SpecParseError"


def test_sweep_syntax_error(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    rc, _, err = run(capsys, ["landau", "--spec", spec, "--sweep", "a1:0:1"])
    assert rc == 1
    assert error_code(err) == "cli.SpecParseError"


def test_byte_identical_reruns(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    argv = ["landau", "--spec", spec, "--ell", "4", "--sweep", "a1:-1:1:11",
            "--format", "json", "--seed", "3"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process, and a call leaves nothing in it
    # for the next: no --param appended to the shared default list
    d4 = write_spec(tmp_path, "d4", D4)
    z2 = write_spec(tmp_path, "z2line", Z2_LINE)
    calls = [
        ["landau", "--spec", d4, "--param", "a2=1", "--format", "json"],
        ["landau", "--spec", d4, "--format", "json"],
        ["flow", "--spec", z2, "--x0", "0.1", "--t-end", "0.05", "--format", "csv"],
        ["invariants", "--spec", z2, "--format", "json"],
    ]
    cli.build_parser.cache_clear()
    in_turn = [run(capsys, argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert in_turn == fresh
    assert in_turn[0] != in_turn[1]
    assert all(rc == 0 for rc, _, _ in in_turn)


def test_importing_the_cli_builds_no_parser():
    src = str(Path(orbitscope.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c",
         "import orbitscope.cli as c; print(c.build_parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0\n"


def test_out_directory(tmp_path, capsys):
    spec = write_spec(tmp_path, "d4", D4)
    outdir = tmp_path / "reports"
    rc, out, _ = run(
        capsys,
        ["strata", "--spec", spec, "--out", str(outdir), "--format", "csv"],
    )
    assert rc == 0
    target = outdir / "strata.csv"
    assert target.exists()
    assert str(target) in out
    body = target.read_text()
    assert "T0,1,1,2,true" in body
    assert "sha256=" in body                    # config echo embedded
