"""Command-line behavior: reports, formats, determinism, error records."""

import json

import pytest

from orbitscope.cli import main
from orbitscope.groups import close_generators
from orbitscope.invariants import molien_series

Z2_LINE = [[["-1"]]]
Z2_PLANE = [[["-1", "0"], ["0", "-1"]]]
D4 = [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "-1"]]]
SHEAR = [[["1", "1"], ["0", "1"]]]


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


def test_group_non_closing(tmp_path, capsys):
    spec = write_spec(tmp_path, "shear", SHEAR, max_order=300)
    rc, out, err = run(capsys, ["group", "--spec", spec])
    assert rc == 1
    assert error_code(err) == "groups.OrderCapExceeded"


def test_missing_spec_file(tmp_path, capsys):
    rc, _, err = run(capsys, ["group", "--spec", str(tmp_path / "nope.json")])
    assert rc == 1
    assert error_code(err) == "cli.SpecParseError"


def test_spec_bad_max_order(tmp_path, capsys):
    spec = write_spec(tmp_path, "z2line", Z2_LINE, max_order="abc")
    rc, _, err = run(capsys, ["group", "--spec", spec])
    assert rc == 1
    assert error_code(err) == "cli.SpecParseError"


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


def test_cache_roundtrip(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path, "d4", D4)
    argv = ["invariants", "--spec", spec, "--format", "json"]
    rc0, plain, _ = run(capsys, argv)
    assert rc0 == 0

    cache = tmp_path / "cache"
    monkeypatch.setenv("ORBITSCOPE_CACHE_DIR", str(cache))
    rc1, first, _ = run(capsys, argv)
    assert rc1 == 0
    assert list(cache.glob("*-mib-*.json"))     # cache file written
    rc2, second, _ = run(capsys, argv)
    assert first == second == plain             # cache never changes output


@pytest.mark.parametrize("entry", [
    "{garbage",
    # J1 = x1 is moved by x -> -x
    json.dumps({"degrees": [1], "polys": [{"nvars": 1, "kind": "x", "terms": [[[1], "1"]]}]}),
    # degree list does not match the polynomial x1^2
    json.dumps({"degrees": [4], "polys": [{"nvars": 1, "kind": "x", "terms": [[[2], "1"]]}]}),
    # invariant and of the right degree, but not monic: P would read [12*J1]
    json.dumps({"degrees": [2], "polys": [{"nvars": 1, "kind": "x", "terms": [[[2], "3"]]}]}),
], ids=["garbage", "not-invariant", "wrong-degree", "not-canonical"])
def test_bad_cache_entry_is_recomputed(tmp_path, capsys, monkeypatch, entry):
    spec = write_spec(tmp_path, "z2line", Z2_LINE)
    argv = ["invariants", "--spec", spec, "--format", "json"]
    _, plain, _ = run(capsys, argv)
    cache = tmp_path / "cache"
    monkeypatch.setenv("ORBITSCOPE_CACHE_DIR", str(cache))
    run(capsys, argv)
    (path,) = cache.glob("*-mib-*.json")
    good = path.read_text()
    path.write_text(entry)
    rc, out, err = run(capsys, argv)
    assert rc == 0 and err == ""
    assert out == plain
    assert path.read_text() == good            # rewritten from the recomputed basis
    assert list(cache.iterdir()) == [path]     # no temporary file left behind


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
