"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import collections
import csv
import io
import json
import pathlib
import shlex
import warnings

import numpy as np
import pytest
from imagegen import blob_image, warp_similarity

from clifford_mellin import cfmt, cli, properties, signal
from clifford_mellin.algebra import CL02, CL11, CL20, Signature
from clifford_mellin.cfmt import read_clmf
from clifford_mellin.errors import ContractError
from clifford_mellin.imaging import descriptor, read_image, write_pgm
from clifford_mellin.roots import RootPair, default_pair, random_roots
from clifford_mellin.signal import (
    GridGeometry,
    default_geometry,
    random_signal,
    read_clms,
    write_clms,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def signal_file(tmp_path):
    path = tmp_path / "input.clms"
    write_clms(path, random_signal(default_geometry(32), CL02, seed=3))
    return path


def test_transform_and_invert_round_trip(tmp_path, capsys, signal_file):
    spectrum_path = tmp_path / "out.clmf"
    code, out = run(capsys, "transform", str(signal_file), "--out", str(spectrum_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["relative_difference"] <= 1e-10
    assert summary["time_fast_s"] > 0.0
    # only fast-bench times the direct sum
    for key in ("time_direct_s", "oracle_max_rel_diff"):
        assert key not in summary
    assert spectrum_path.exists()

    back_path = tmp_path / "back.clms"
    code, out = run(capsys, "invert", str(spectrum_path), "--out", str(back_path))
    assert code == 0
    original = read_clms(signal_file)
    recovered = read_clms(back_path)
    assert original.max_abs_diff(recovered) <= 1e-10


def test_transform_parseval_fields_blade_pair(tmp_path, capsys, signal_file):
    code, out = run(capsys, "transform", str(signal_file))
    assert code == 0
    summary = json.loads(out)
    assert summary["norm_signal"] == pytest.approx(summary["norm_spectrum"], rel=1e-10)


GRID_KEYS = {"ns", "ntheta", "smin", "smax"}
ECHO_KEYS = {
    "transform": {"command", "inputs", "out", "algebra", "f", "g", "center", *GRID_KEYS},
    "descriptor": {"command", "inputs", "out", "algebra", "f", "g", "center", *GRID_KEYS},
    "invert": {"command", "inputs", "out", "algebra", "f", "g", *GRID_KEYS},
    "fast-bench": {"command", "algebra", "f", "g", "seed", *GRID_KEYS},
    "verify": {"command", "seed", "tol", "out", "pair_degenerate", *GRID_KEYS},
    "split": {"command", "algebra", "f", "g", "x"},
    "register": {"command", "inputs", "algebra", "f", "g", "center", "centers", *GRID_KEYS},
    "manifold": {"command", "algebra", "resolution", "out"},
}


@pytest.mark.parametrize("command", list(ECHO_KEYS))
def test_config_echoes_the_command_flags(tmp_path, capsys, command):
    # the echo is the command's own flags plus what it read from its inputs
    clms = tmp_path / "small.clms"
    write_clms(clms, random_signal(default_geometry(16), CL02, seed=4))
    cli.main(["transform", str(clms), "--out", str(tmp_path / "small.clmf")])
    image = tmp_path / "blob.pgm"
    write_pgm(image, blob_image(64, seed=1))
    capsys.readouterr()
    argv = {
        "transform": [str(clms)],
        "descriptor": [str(clms), "--out", str(tmp_path / "desc.csv")],
        "invert": [str(tmp_path / "small.clmf")],
        "fast-bench": ["--ns", "8", "--ntheta", "8"],
        "verify": ["--ns", "8", "--ntheta", "8"],
        "split": ["--x", "1,0,0,0"],
        "register": [str(image), str(image), "--ns", "16", "--ntheta", "16", "--smax", "3"],
        "manifold": ["--resolution", "2", "--out", str(tmp_path / "cloud.csv")],
    }[command]
    code, out = run(capsys, command, *argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == ECHO_KEYS[command]
    assert config["command"] == command


def test_exit_codes(tmp_path, capsys, signal_file):
    # usage: unknown algebra string
    code = cli.main(["transform", str(signal_file), "--algebra", "Cl(5,0)"])
    assert code == 1
    # format: missing and malformed files
    assert cli.main(["transform", str(tmp_path / "missing.clms")]) == 2
    broken = tmp_path / "broken.clms"
    broken.write_bytes(b"algebra=Cl(0,2)\nns=4\n")
    assert cli.main(["transform", str(broken)]) == 2
    # format: a header whose window's span overflows
    overflow = tmp_path / "overflow.clms"
    overflow.write_bytes(b"algebra=Cl(0,2)\nns=4\nntheta=4\nsmin=-1e308\nsmax=1e308\n"
                         + bytes(4 * 4 * 4 * 8))
    assert cli.main(["transform", str(overflow)]) == 2
    # contract: --f does not square to -1
    assert cli.main(["transform", str(signal_file), "--f", "1,1,0,0"]) == 3


@pytest.mark.parametrize(
    "argv, form",
    [
        (["split", "--x", "1,2"], "4 comma-separated floats"),
        (["split", "--x", "a,b,c,d"], "4 comma-separated floats"),
        (["split", "--x", "1,0,0,0", "--f", "0,1,0,x"], "4 comma-separated floats"),
        (["register", "a.pgm", "b.pgm", "--center", "1"], "x,y"),
        (["register", "a.pgm", "b.pgm", "--center", "1,y"], "x,y"),
        (["split", "--x", "1,0,0,0", "--algebra", "Cl(5,0)"], "Cl(2,0), Cl(1,1) or Cl(0,2)"),
        (["verify", "--seed", "-5"], "an integer >= 0"),
        (["verify", "--seed", "1.5"], "an integer >= 0"),
        (["fast-bench", "--seed", "-3"], "an integer >= 0"),
        (["verify", "--tol", "nan"], "finite float >= 0"),
        (["verify", "--tol", "inf"], "finite float >= 0"),
        (["verify", "--tol", "-1"], "finite float >= 0"),
        (["verify", "--tol", "x"], "finite float >= 0"),
    ],
)
def test_argument_errors_name_the_expected_format(capsys, argv, form):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert form in err
    assert "_parse_" not in err


def test_register_on_a_small_image_names_the_largest_smax(tmp_path, capsys):
    image = tmp_path / "blob.pgm"
    write_pgm(image, blob_image(32, seed=1))
    argv = ["register", str(image), str(image), "--ns", "16", "--ntheta", "16"]
    assert cli.main(argv) == 3
    # the usable radius of a 32x32 image is 15 pixels
    assert "the largest s_max that fits is ln(15.00) = 2.7080" in capsys.readouterr().err
    assert cli.main([*argv, "--smax", "2.7080"]) == 0


def test_split_refuses_a_nilpotent_root(capsys):
    # s*(e1 + e12) squares to 0 in Cl(2,0), however small its residual looks beside |a|^2
    code = cli.main(["split", "--algebra", "Cl(2,0)", "--x", "1,0,0,0",
                     "--f", "0,1e7,0,1e7", "--g", "0,0,0,1"])
    assert code == 3
    assert "too large to validate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["transform", "descriptor"])
def test_image_commands_echo_the_center_they_used(tmp_path, capsys, signal_file, command):
    image = tmp_path / "blob.pgm"
    write_pgm(image, blob_image(64, seed=11))
    grid = ["--ns", "16", "--ntheta", "16", "--smax", "3", "--out", str(tmp_path / "out")]
    # without --center, the image is resampled about its centroid
    code, out = run(capsys, command, str(image), *grid)
    assert code == 0
    centroid = read_image(image).centroid()
    assert json.loads(out)["config"]["center"] == list(centroid)
    assert centroid != (31.5, 31.5)

    code, out = run(capsys, command, str(image), *grid, "--center", "30.5,31.25")
    assert code == 0
    assert json.loads(out)["config"]["center"] == [30.5, 31.25]
    # a CLMS input is not resampled
    code, out = run(capsys, command, str(signal_file), "--out", str(tmp_path / "out"))
    assert code == 0
    assert json.loads(out)["config"]["center"] is None


def test_split_command(capsys):
    code, out = run(capsys, "split", "--x", "1,0,0,0")
    assert code == 0
    summary = json.loads(out)
    assert summary["plus"] == [0.5, 0.0, 0.0, 0.5]
    assert summary["minus"] == [0.5, 0.0, 0.0, -0.5]


def test_manifold_command(tmp_path, capsys):
    path = tmp_path / "cloud.csv"
    code, out = run(capsys, "manifold", "--algebra", "Cl(0,2)", "--resolution", "2",
                    "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "b1,b2,beta,branch"
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        b1, b2, beta, branch = line.split(",")
        constraint = float(b1) ** 2 + float(b2) ** 2 + float(beta) ** 2
        assert abs(constraint - 1.0) <= 1e-12
    assert json.loads(out)["points"] == 4


def test_manifold_hyperboloid(tmp_path, capsys):
    path = tmp_path / "cloud.csv"
    code, _ = run(capsys, "manifold", "--algebra", "Cl(2,0)", "--resolution", "9",
                  "--out", str(path))
    assert code == 0
    for line in path.read_text().strip().splitlines()[1:]:
        b1, b2, beta, _ = map(float, line.split(","))
        assert abs(beta**2 - b1**2 - b2**2 - 1.0) <= 1e-12


@pytest.mark.parametrize("argv", [["manifold", "--resolution", "2"], ["descriptor", "SIGNAL"]])
def test_a_csv_on_stdout_leaves_the_summary_to_stderr(capsys, signal_file, argv):
    code = cli.main([str(signal_file) if arg == "SIGNAL" else arg for arg in argv])
    assert code == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] in (["b1", "b2", "beta", "branch"], ["j", "k", "v", "mag"])
    assert {len(row) for row in rows} == {4}
    summary = json.loads(captured.err)
    assert summary.get("points", summary.get("bins")) == len(rows) - 1


def test_an_output_that_cannot_be_renamed_leaves_no_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    target = tmp_path / "cloud.csv"
    assert cli.main(["manifold", "--resolution", "2", "--out", str(target)]) == 2
    assert "rename refused" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_descriptor_command(tmp_path, capsys, signal_file):
    path = tmp_path / "desc.csv"
    code, out = run(capsys, "descriptor", str(signal_file), "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "j,k,v,mag"
    assert len(lines) == 1 + 32 * 32
    for line in lines[1:]:
        j, k, v, mag = line.split(",")
        assert float(mag) >= 0.0 and np.isfinite(float(v))
    assert json.loads(out)["bins"] == 32 * 32


def test_register_command(tmp_path, capsys):
    image = blob_image(128, seed=11)
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    write_pgm(a, image)
    write_pgm(b, warp_similarity(image, np.pi / 8, 1.0, center=(63.5, 63.5)))
    code, out = run(
        capsys, "register", str(a), str(b),
        "--smin", "0.7", "--smax", "4.0", "--center", "63.5,63.5",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["matched"] is True
    assert 0.9 < summary["score"] <= 1.0 + 1e-12
    dtheta = 2 * np.pi / 64
    assert abs(summary["angle_rad"] - np.pi / 8) <= dtheta


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("pixel", [(51, 31), (31, 51), (45, 45)])
def test_register_without_a_second_peak_writes_strict_json(tmp_path, capsys, pixel):
    # one bright pixel against itself: nothing outside the main lobe
    # correlates positively, so the confidence ratio is infinite
    image = np.zeros((64, 64))
    image[pixel] = 1.0
    path = tmp_path / "pixel.pgm"
    write_pgm(path, image)
    code, out = run(capsys, "register", str(path), str(path), "--center", "31.5,31.5")
    assert code == 0
    summary = _strict_json(out)
    assert summary["confidence"] is None
    assert summary["matched"] is True
    assert summary["score"] == pytest.approx(1.0, rel=1e-12)
    assert summary["config"]["f"] == [0.0, 1.0, 0.0, 0.0]
    assert summary["config"]["g"] == [0.0, 0.0, 1.0, 0.0]


def test_emit_refuses_non_finite_floats(capsys):
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            cli._emit({"value": value})
    assert capsys.readouterr().out == ""


def test_register_echoes_its_algebra_and_the_centers_it_used(tmp_path, capsys):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    write_pgm(a, blob_image(64, seed=11))
    write_pgm(b, blob_image(64, seed=12))
    grid = ["--ns", "16", "--ntheta", "16", "--smax", "3"]
    _, out = run(capsys, "register", str(a), str(b), *grid)
    config = json.loads(out)["config"]
    assert config["algebra"] == "Cl(0,2)"
    assert config["center"] is None
    # without --center, each image is resampled about its own centroid
    centroids = [list(read_image(path).centroid()) for path in (a, b)]
    assert centroids[0] != centroids[1]
    assert config["centers"] == centroids

    _, out = run(capsys, "register", str(a), str(b), *grid, "--center", "30.5,31.25")
    config = json.loads(out)["config"]
    assert config["center"] == [30.5, 31.25]
    assert config["centers"] == [[30.5, 31.25], [30.5, 31.25]]


def test_register_no_match_exit_code(tmp_path, capsys):
    a = tmp_path / "a.pgm"
    rings = tmp_path / "rings.pgm"
    write_pgm(a, blob_image(128, seed=11))
    ys, xs = np.mgrid[0:128, 0:128]
    write_pgm(rings, 0.5 + 0.5 * np.cos(np.hypot(xs - 63.5, ys - 63.5)))
    code, out = run(
        capsys, "register", str(a), str(rings),
        "--smin", "0.7", "--smax", "4.0", "--center", "63.5,63.5",
    )
    assert code == 4
    summary = json.loads(out)
    assert summary["matched"] is False
    assert summary["confidence"] < 1.05


def test_register_image_from_pgm_transform(tmp_path, capsys):
    # transform accepts images directly and writes a valid spectrum
    path = tmp_path / "img.pgm"
    write_pgm(path, blob_image(64, seed=4))
    out_path = tmp_path / "img.clmf"
    code, _ = run(
        capsys, "transform", str(path), "--ns", "32", "--ntheta", "32",
        "--smin", "-1.0", "--smax", "3.0", "--out", str(out_path),
    )
    assert code == 0
    spectrum = read_clmf(out_path)
    assert spectrum.geometry.n_s == 32


def test_verify_default_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out = run(capsys, "verify", "--ns", "16", "--ntheta", "16",
                    "--out", str(report_path))
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    assert report_path.exists()
    gated = [r for r in report["results"] if r["pass"] is not None]
    assert all(r["pass"] for r in gated)
    names = {r["property"] for r in report["results"]}
    assert {"transform_round_trip", "parseval", "symmetry_separation"} <= names


def test_verify_deterministic_reports(capsys):
    code1, out1 = run(capsys, "verify", "--ns", "16", "--ntheta", "16", "--seed", "5")
    code2, out2 = run(capsys, "verify", "--ns", "16", "--ntheta", "16", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_degenerate_flag_skips_symmetry(capsys):
    code, out = run(capsys, "verify", "--ns", "16", "--ntheta", "16", "--pair-degenerate")
    assert code == 0
    report = json.loads(out)
    skipped = [
        r for r in report["results"]
        if r["property"] == "symmetry_separation" and r["pair"] == "degenerate"
    ]
    assert len(skipped) == 3
    assert all(r["status"] == "skipped (g=±f)" for r in skipped)


def test_verify_tolerance_override_can_fail(capsys):
    code, out = run(capsys, "verify", "--ns", "16", "--ntheta", "16", "--tol", "1e-18")
    assert code == 3
    assert json.loads(out)["failures"] > 0


def test_verify_refuses_a_window_whose_dv_overflows_before_any_transform(capsys, monkeypatch):
    def no_rows(*args):
        raise AssertionError("verify ran its rows")

    monkeypatch.setattr(properties, "verify_rows", no_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["verify", "--ns", "8", "--ntheta", "8", "--smin=0", "--smax=1e-320"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "dv must be a finite positive float" in captured.err


def test_verify_accepts_a_zero_tolerance(capsys):
    code, out = run(capsys, "verify", "--ns", "8", "--ntheta", "8", "--tol", "0")
    report = json.loads(out)
    assert code == (3 if report["failures"] else 0)
    assert report["config"]["tol"] == 0.0
    assert {r["tolerance"] for r in report["results"]} == {0.0, None}


def _coeff_flag(name, coeffs):
    return f"--{name}=" + ",".join(repr(float(c)) for c in coeffs)


def spy_on_cfmt(monkeypatch, *names):
    """Replace each named cfmt function with one that records the positional
    arguments of every call in calls[name]; return calls."""
    calls = {}
    for name in names:
        def wrapper(*args, _name=name, _original=getattr(cfmt, name), **kwargs):
            calls.setdefault(_name, []).append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cfmt, name, wrapper)
    return calls


def test_transform_never_runs_the_direct_sum(tmp_path, capsys, monkeypatch):
    calls = spy_on_cfmt(monkeypatch, "cfmt_direct", "direct_spectrum")
    path = tmp_path / "big.clms"
    write_clms(path, random_signal(default_geometry(64), CL02, seed=1))
    code, _ = run(capsys, "transform", str(path))
    assert code == 0
    assert not calls


def test_transform_labels_parseval_for_non_blade_pair(tmp_path, capsys):
    f, g = random_roots(CL11, 2, seed=0)
    assert not RootPair(f, g).blade_like
    path = tmp_path / "cl11.clms"
    write_clms(path, random_signal(default_geometry(16), CL11, seed=2))
    code, out = run(capsys, "transform", str(path),
                    _coeff_flag("f", f.value.coeffs), _coeff_flag("g", g.value.coeffs))
    assert code == 0
    summary = json.loads(out)
    assert summary["blade_like"] is False
    assert "relative_difference" not in summary


def test_transform_echoes_signal_geometry(tmp_path, capsys):
    path = tmp_path / "small.clms"
    h = random_signal(default_geometry(16), CL02, seed=4)
    write_clms(path, h)
    code, out = run(capsys, "transform", str(path))
    assert code == 0
    config = json.loads(out)["config"]
    geo = h.geometry
    assert (config["ns"], config["ntheta"]) == (16, 16)
    assert (config["smin"], config["smax"]) == (geo.s_min, geo.s_max)


def test_descriptor_echoes_signal_geometry(tmp_path, capsys):
    path = tmp_path / "small.clms"
    write_clms(path, random_signal(default_geometry(16), CL02, seed=4))
    code, out = run(capsys, "descriptor", str(path), "--out", str(tmp_path / "desc.csv"))
    assert code == 0
    summary = json.loads(out)
    assert (summary["config"]["ns"], summary["config"]["ntheta"]) == (16, 16)
    assert summary["bins"] == 16 * 16
    # the CLMS header fixes the grid, so grid flags are refused, not dropped
    code, out = run(capsys, "descriptor", str(path), "--ns", "64", "--ntheta", "32")
    assert code == 1
    assert out == ""


def test_invert_echoes_spectrum_header(tmp_path, capsys):
    source = tmp_path / "small.clms"
    spectrum_path = tmp_path / "small.clmf"
    write_clms(source, random_signal(default_geometry(16), CL02, seed=4))
    code, _ = run(capsys, "transform", str(source), "--f", "0,0,1,0", "--g", "0,1,0,0",
                  "--out", str(spectrum_path))
    assert code == 0
    code, out = run(capsys, "invert", str(spectrum_path))
    assert code == 0
    config = json.loads(out)["config"]
    assert config["algebra"] == "Cl(0,2)"
    assert config["f"] == [0.0, 0.0, 1.0, 0.0]
    assert config["g"] == [0.0, 1.0, 0.0, 0.0]
    assert (config["ns"], config["ntheta"]) == (16, 16)
    # the CLMF header fixes all of these, so invert takes no flag for them
    assert cli.main(["invert", str(spectrum_path), "--algebra", "Cl(2,0)"]) == 1


def test_fast_bench_times_the_direct_sum(capsys, monkeypatch):
    calls = spy_on_cfmt(monkeypatch, "cfmt_fast", "direct_spectrum", "cfmt_direct")
    f, g = random_roots(CL11, 2, seed=4)
    random_pair = ["--algebra", "Cl(1,1)",
                   _coeff_flag("f", f.value.coeffs), _coeff_flag("g", g.value.coeffs)]
    for runs, flags in enumerate(([], random_pair), start=1):
        code, out = run(capsys, "fast-bench", "--ns", "16", "--ntheta", "16", *flags)
        assert code == 0
        summary = json.loads(out)
        # one whole oracle call on the fast path's own signal and pair, and
        # the cold fast call followed by five warm ones
        assert len(calls["direct_spectrum"]) == runs
        assert len(calls["cfmt_fast"]) == 6 * runs
        h, pair = calls["direct_spectrum"][-1]
        for args in calls["cfmt_fast"][-6:]:
            assert args[0] is h and args[1] is pair
        assert summary["time_fast_warm_s"] > 0.0
        assert summary["config"]["f"] == pair.f.value.coeffs.tolist()
        assert summary["config"]["g"] == pair.g.value.coeffs.tolist()
        assert summary["time_direct_s"] > 0.0
        assert summary["speedup"] == summary["time_direct_s"] / summary["time_fast_s"]
        assert summary["oracle_max_rel_diff"] <= 1e-10
        for key in ("direct_extrapolated", "direct_bins_measured"):
            assert key not in summary
    # the random --f reached the transform, and no per-bin literal sum ran
    assert f.value.coeffs.tolist() == pair.f.value.coeffs.tolist()
    assert "cfmt_direct" not in calls


def test_descriptor_csv_renders_every_bin(tmp_path, capsys):
    path = tmp_path / "small.clms"
    h = random_signal(GridGeometry(8, 12, 0.3, 2.9), CL02, seed=6)
    write_clms(path, h)
    out_path = tmp_path / "desc.csv"
    code, _ = run(capsys, "descriptor", str(path), "--out", str(out_path))
    assert code == 0
    geo = h.geometry
    mags = descriptor(h, default_pair(CL02)).magnitudes
    lines = ["j,k,v,mag"]
    for i in range(geo.n_s):
        j = i - geo.n_s // 2
        for t in range(geo.n_theta):
            k = t - geo.n_theta // 2
            lines.append(f"{j},{k},{float(geo.dv * j)!r},{float(mags[i, t])!r}")
    assert out_path.read_text() == "\n".join(lines) + "\n"


GOLDEN_REPORTS = {
    "verify_seed0": ["--seed", "0"],
    "verify_seed7_degenerate": ["--seed", "7", "--pair-degenerate"],
}


@pytest.mark.parametrize("name", list(GOLDEN_REPORTS))
def test_verify_report_matches_golden(capsys, name):
    # the files under tests/data are reports captured from earlier versions:
    # verify_seed0 before the direct sum became separable, the degenerate
    # one before the properties moved into one table; only residuals may
    # move, within roundoff
    golden = json.loads((pathlib.Path(__file__).parent / "data" / f"{name}.json").read_text())
    code, out = run(capsys, "verify", *GOLDEN_REPORTS[name])
    assert code == 0
    report = json.loads(out)
    assert report["config"] == golden["config"]
    assert report["failures"] == golden["failures"] == 0
    assert len(report["results"]) == len(golden["results"])
    for got, want in zip(report["results"], golden["results"]):
        residual, expected = got.pop("residual"), want.pop("residual")
        assert got == want
        if expected is None:
            assert residual is None
        else:
            assert abs(residual - expected) <= max(1e-12, 0.01 * abs(expected)), (got, expected)


def test_verify_builds_shared_inputs_once(capsys, monkeypatch):
    # the test signals are drawn once per run (4), each transform that
    # several properties share runs once per pair, the two derivative orders
    # share one base spectrum, and the literal sums run batched, not through
    # cfmt_direct: the power-scaling grid sums once per run (1 + 3 orders),
    # the direct oracle's once per case that runs it (2 pairs x 3 algebras),
    # and each of those 6 cases makes one f/g tail call (_pair_sums) for its
    # direct oracle and one for all its power-scaling rows
    calls = collections.Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        # every module that imported the function by name calls it too
        for owner in (module, cfmt, signal, properties, cli):
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, wrapper)

    counted(signal, "random_signal")
    for name in ("cfmt_forward", "cfmt_direct", "cfmt_fast", "cfmt_inverse", "_scaling_sums",
                 "_grid_sums", "_pair_sums"):
        counted(cfmt, name)
    code, _ = run(capsys, "verify", "--seed", "0")
    assert code == 0
    assert calls["random_signal"] == 4
    assert calls["_scaling_sums"] == 1
    assert calls["_grid_sums"] == 4 + 6
    assert calls["_pair_sums"] == 6 + 6
    assert calls["cfmt_forward"] <= 120
    assert calls["cfmt_direct"] == 0
    assert calls["cfmt_fast"] <= 6
    assert calls["cfmt_inverse"] <= 6


def test_verify_transforms_each_signal_once_per_pair(monkeypatch):
    # a spectrum that several rows read is made once per case, so no
    # (samples, pair) is transformed twice in one report
    seen = collections.Counter()
    original = cfmt.cfmt_forward

    def counted(h, pair):
        seen[h.signature.name, h.samples.tobytes(), pair.f.value.coeffs.tobytes(),
             pair.g.value.coeffs.tobytes()] += 1
        return original(h, pair)

    monkeypatch.setattr(cfmt, "cfmt_forward", counted)
    properties.verify_rows(default_geometry(32), seed=0)
    assert max(seen.values()) == 1
    assert sum(seen.values()) == 102


def test_verify_skips_what_an_asymmetric_window_cannot_check(capsys):
    # r -> 1/r and the parity split need s_min = -s_max; the cyclic
    # modulation shift needs n_s*s_min/span to be an integer (4 on [-1, 3))
    for smin, smax, modulation in (("0.3", "2.9", False), ("-1", "3", True)):
        code, out = run(capsys, "verify", "--ns", "16", "--ntheta", "16",
                        "--smin", smin, "--smax", smax)
        assert code == 0
        report = json.loads(out)
        assert report["failures"] == 0
        statuses = {
            (r["property"], r["algebra"], r["pair"]): r.get("status") for r in report["results"]
        }
        for sig in ("Cl(2,0)", "Cl(1,1)", "Cl(0,2)"):
            assert statuses[("symmetry_separation", sig, "symmetry")] == (
                "skipped (asymmetric radial window)"
            )
            for pair in ("blade", "random"):
                assert statuses[("reflection_radial", sig, pair)] == (
                    "skipped (asymmetric radial window)"
                )
                assert statuses[("reflection_angular", sig, pair)] is None
                assert statuses[("modulation_shift", sig, pair)] == (
                    None if modulation else "skipped (n_s*s_min/span not an integer)"
                )


UNREAD_FLAGS = {
    "invert": (["invert", "{clmf}", "--algebra", "Cl(2,0)"], "--algebra"),
    "manifold": (["manifold", "--ns", "7"], "--ns"),
    "verify": (["verify", "--f", "0,1,0,0"], "--f"),
    "register": (["register", "{pgm}", "{pgm}", "--f", "0,1,0,0"], "--f"),
    # register correlates blade channels under the Cl(0,2) default pair
    "register --algebra": (["register", "{pgm}", "{pgm}", "--algebra", "Cl(2,0)"], "--algebra"),
    "split": (["split", "--x", "1,0,0,0", "--out", "{tmp}/split.json"], "--out"),
    "fast-bench": (["fast-bench", "--tol", "1e-3"], "--tol"),
    "transform": (["transform", "{clms}", "--center", "1,1"], "--center"),
    "descriptor": (["descriptor", "{clms}", "--center", "1,1"], "--center"),
}


@pytest.mark.parametrize("command", list(UNREAD_FLAGS))
def test_a_flag_the_command_would_drop_is_a_usage_error(tmp_path, capsys, signal_file, command):
    # a command refuses each flag it would not read, and a CLMS input the
    # flags that only set how an image is resampled
    clmf, pgm = tmp_path / "input.clmf", tmp_path / "blob.pgm"
    assert cli.main(["transform", str(signal_file), "--out", str(clmf)]) == 0
    write_pgm(pgm, blob_image(32, seed=1))
    capsys.readouterr()
    template, flag = UNREAD_FLAGS[command]
    argv = [a.format(clms=signal_file, clmf=clmf, pgm=pgm, tmp=tmp_path) for a in template]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_cl11_signal_transforms_at_default_flags(tmp_path, capsys):
    # the CLMS header gives the algebra, and the roots are its default pair
    path = tmp_path / "cl11.clms"
    write_clms(path, random_signal(default_geometry(16), CL11, seed=2))
    code, out = run(capsys, "transform", str(path))
    assert code == 0
    config = json.loads(out)["config"]
    pair = default_pair(CL11)
    assert config["algebra"] == "Cl(1,1)"
    assert config["f"] == pair.f.value.coeffs.tolist()
    assert config["g"] == pair.g.value.coeffs.tolist()


@pytest.mark.parametrize("algebra", ["Cl(1,1)", "Cl(2,0)"])
@pytest.mark.parametrize("argv", [["split", "--x", "1,2,3,4"], ["fast-bench"]],
                         ids=["split", "fast-bench"])
def test_an_algebra_needs_no_root_flags(capsys, argv, algebra):
    code, out = run(capsys, *argv, "--algebra", algebra)
    assert code == 0
    config = json.loads(out)["config"]
    pair = default_pair(Signature.parse(algebra))
    assert config["algebra"] == algebra
    assert (config["f"], config["g"]) == (pair.f.value.coeffs.tolist(), pair.g.value.coeffs.tolist())


def test_a_missing_root_falls_back_on_its_own(capsys):
    code, out = run(capsys, "split", "--algebra", "Cl(2,0)", "--x", "1,0,0,0", "--g", "0,0,0,1")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["f"] == default_pair(CL20).f.value.coeffs.tolist()
    assert config["g"] == [0.0, 0.0, 0.0, 1.0]


def test_verify_skips_derivatives_of_a_signal_that_is_not_band_limited(capsys):
    # on 8x8 the smooth test signal reaches the Nyquist bin, where the
    # spectral derivative is not exact
    code, out = run(capsys, "verify", "--ns", "8", "--ntheta", "8")
    assert code == 0
    rows = [r for r in json.loads(out)["results"] if r["property"].startswith("derivative_")]
    assert len(rows) == 4 * 3 * 2
    assert {r["status"] for r in rows} == {"skipped (test signal not band-limited on this grid)"}


@pytest.mark.parametrize("grid", [["--ntheta", "4"], ["--ntheta", "2"], ["--ns", "8", "--ntheta", "4"]])
def test_verify_skips_power_scaling_when_the_bump_reaches_the_theta_seam(capsys, grid):
    # on 2 or 4 angles the test bump has energy on the seam, which the
    # power-scaling check refuses for a theta order n > 0; those rows are
    # skipped, not failed, and the n = 0 rows, which need no seam rule, pass
    code, out = run(capsys, "verify", *grid)
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    rows = [r for r in report["results"] if r["property"].startswith("power_scaling_")]
    assert len(rows) == 3 * 3 * 2
    assert {(r["property"], r.get("status"), r["pass"]) for r in rows} == {
        ("power_scaling_10", None, True),
        ("power_scaling_01", "skipped (test bump carries energy on the theta seam)", None),
        ("power_scaling_11", "skipped (test bump carries energy on the theta seam)", None),
    }


def test_a_check_that_raises_a_contract_error_is_a_failing_row(monkeypatch):
    def refuse(case):
        raise ContractError("precondition refused")

    monkeypatch.setattr(properties, "TABLE", (properties.Property("refusing", 1.0, refuse),))
    rows = properties.verify_rows(default_geometry(8), seed=0)
    assert len(rows) == 3 * 2  # blade and random pairs of each algebra
    assert {(r["status"], r["pass"], r["residual"], r["tolerance"]) for r in rows} == {
        ("precondition refused", False, None, None)
    }


def test_readme_examples_parse():
    # every command line the README shows is one the parser accepts
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("clifford-mellin ")]
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        commands.add(args.command)
        if getattr(args, "inputs", [""])[0].endswith(".clms"):
            assert all(getattr(args, name) is None for name in cli._IMAGE_ONLY), line
    assert commands == set(ECHO_KEYS)


def test_the_reused_parser_runs_the_current_handler_and_echoes_each_call(capsys, monkeypatch,
                                                                        signal_file):
    # main() keeps one parser per process: a handler replaced after the first
    # call still runs, and no call sees flags or errors left by an earlier one
    cli._parser.cache_clear()
    usage = ["invert", "a.clmf", "--ns", "8"]
    assert cli.main(usage) == 1
    first_error = capsys.readouterr().err
    code, out = run(capsys, "transform", str(signal_file))
    assert code == 0
    first_config = json.loads(out)["config"]

    assert run(capsys, "verify", "--ns", "8", "--ntheta", "8", "--tol", "1")[0] == 0
    code, out = run(capsys, "transform", str(signal_file))
    assert code == 0
    assert json.loads(out)["config"] == first_config
    assert cli.main(usage) == 1
    assert capsys.readouterr().err == first_error

    seen = []
    monkeypatch.setattr(cli, "cmd_invert", lambda args: seen.append(args.inputs) or 0)
    assert cli.main(["invert", "spy.clmf"]) == 0
    assert seen == [["spy.clmf"]]
