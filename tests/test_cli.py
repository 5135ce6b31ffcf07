"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import collections
import json
import pathlib
import shlex

import numpy as np
import pytest
from imagegen import blob_image, warp_similarity

from clifford_mellin import cfmt, cli, properties, signal
from clifford_mellin.algebra import CL02, CL11, CL20, Signature
from clifford_mellin.cfmt import read_clmf
from clifford_mellin.imaging import descriptor, write_pgm
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
    for key in ("time_direct_s", "direct_extrapolated", "direct_bins_measured"):
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
    "register": {"command", "inputs", "center", *GRID_KEYS},
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
    dtheta = 2 * np.pi / 64
    assert abs(summary["angle_rad"] - np.pi / 8) <= dtheta


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


def _coeff_flag(name, coeffs):
    return f"--{name}=" + ",".join(repr(float(c)) for c in coeffs)


def test_transform_never_runs_the_direct_sum(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(name):
        original = getattr(cfmt, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("cfmt_direct", "direct_spectrum"):
        monkeypatch.setattr(cfmt, name, counted(name))
    path = tmp_path / "big.clms"
    write_clms(path, random_signal(default_geometry(64), CL02, seed=1))
    code, _ = run(capsys, "transform", str(path))
    assert code == 0
    assert calls == []


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


def test_fast_bench_times_the_direct_sum(capsys):
    code, out = run(capsys, "fast-bench", "--ns", "16", "--ntheta", "16")
    assert code == 0
    summary = json.loads(out)
    assert summary["time_direct_s"] > 0.0
    assert summary["speedup"] > 0.0


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
    # the pair-independent signals are built once per algebra (4 x 3), and
    # each transform that several properties share runs once per pair
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
    for name in ("cfmt_forward", "cfmt_direct", "cfmt_fast", "cfmt_inverse"):
        counted(cfmt, name)
    code, _ = run(capsys, "verify", "--seed", "0")
    assert code == 0
    assert calls["random_signal"] == 12
    assert calls["cfmt_forward"] <= 126
    assert calls["cfmt_direct"] <= 246
    assert calls["cfmt_fast"] <= 6
    assert calls["cfmt_inverse"] <= 6


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
    # the correlation sums over blade channels, so the algebra cannot change it
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
