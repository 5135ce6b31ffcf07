"""Tests of the benchmark itself: its output checks are live, its tracer nests
spans through imported names, and its metric tables match BENCHMARK.json.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
import os

import pytest

import run
import tracing
import workloads
from clifford_mellin import cfmt, cli, imaging


def _prepared(cls, directory):
    workload = cls(seed=3)
    workload.prepare(str(directory))
    return workload


@pytest.fixture(scope="module")
def image_match(tmp_path_factory):
    return _prepared(workloads.ImageMatch, tmp_path_factory.mktemp("image-match"))


def _perturbed(h):
    samples = h.samples.copy()
    samples[0, 0, 0] += 1e-6
    return h.with_samples(samples)


def test_spectra_check_counts_a_corrupted_round_trip(tmp_path, monkeypatch):
    workload = _prepared(workloads.Spectra512, tmp_path)
    assert workloads.attempt(workload, 0).ok
    inverse = cfmt.cfmt_inverse
    monkeypatch.setattr(cfmt, "cfmt_inverse", lambda spectrum: _perturbed(inverse(spectrum)))
    assert not workloads.attempt(workload, 1).ok


def test_image_check_counts_a_registration_off_by_two_cells(image_match, monkeypatch):
    assert workloads.attempt(image_match, 0).ok
    register = imaging.register

    def off_by_two(*args, **kwargs):
        result = register(*args, **kwargs)
        return dataclasses.replace(result, angle=result.angle + 2 * image_match.geometry.dtheta)

    monkeypatch.setattr(imaging, "register", off_by_two)
    assert not workloads.attempt(image_match, 1).ok


def test_cli_check_counts_a_corrupted_inverted_file(tmp_path, monkeypatch):
    workload = _prepared(workloads.CliRoundtrip, tmp_path)
    assert workloads.attempt(workload, 0).ok
    write = cli.write_clms
    monkeypatch.setattr(cli, "write_clms", lambda path, h: write(path, _perturbed(h)))
    assert not workloads.attempt(workload, 1).ok


def test_tracer_nests_imported_names_and_restores_them(image_match):
    original = imaging.cfmt_fast
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert workloads.attempt(image_match, 2, tracer).ok
    finally:
        tracer.uninstall()
    assert imaging.cfmt_fast is original
    names = [span[0] for span in tracer.spans]
    fast = tracer.spans[names.index("cfmt.fast")]
    assert tracer.spans[fast[3]][0] == "imaging.descriptor"
    assert {span[4] for span in tracer.spans} == {2}
    assert all(own >= 0.0 for own in tracer.self_times())
    metrics = tracing.layer_metrics(tracer, 1, lambda shape: 1e-4, {"top1": 1.0}, 0.0)
    assert list(metrics) == list(tracing.PER_LAYER)
    assert metrics["cfmt.fast.calls"] == 1.0
    assert metrics["imaging.register.matched_ratio"] == 1.0
    assert metrics["imaging.match.top1_ratio"] == 1.0


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
