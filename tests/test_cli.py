import json

import numpy as np
import pytest

from repca.cli import SUMMARY_HEADER, main
from repca.csvio import read_matrix_csv, write_matrix_csv


def _synth(tmp_path, name="synth", extra=()):
    out = tmp_path / name
    code = main(["synth", "--m", "6", "--n", "40", "--k-true", "2",
                 "--noise", "0.05", "--outlier-frac", "0.1",
                 "--outlier-scale", "4.0", "--seed", "3",
                 "--out", str(out), *extra])
    assert code == 0
    return out


# -------------------------------------------------------------------- synth


def test_synth_writes_expected_files(tmp_path):
    out = _synth(tmp_path)
    data = read_matrix_csv(out / "data.csv")
    assert data.shape == (40, 6)  # one sample per row
    basis = read_matrix_csv(out / "w_true.csv")
    assert basis.shape == (6, 2)
    mask = read_matrix_csv(out / "outlier_mask.csv")
    assert mask.shape == (40, 1)  # one 0/1 line per sample
    assert mask.sum() == 4  # 10% of 40 samples
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 3
    assert manifest["config"]["m"] == 6
    assert sorted(manifest["outputs"]) == manifest["outputs"]


def test_synth_header_row(tmp_path):
    out = _synth(tmp_path, extra=("--header",))
    first = (out / "data.csv").read_text().splitlines()[0]
    assert first == "f0,f1,f2,f3,f4,f5"
    assert read_matrix_csv(out / "data.csv", skip_header=True).shape == (40, 6)


def test_synth_flag_validation(tmp_path):
    base = ["synth", "--n", "10", "--k-true", "1", "--out", str(tmp_path / "x")]
    assert main(["synth", "--m", "0", "--n", "10", "--k-true", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["synth", "--m", "5", "--n", "10", "--k-true", "9",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["synth", "--m", "5", "--n", "10", "--k-true", "1",
                 "--outlier-frac", "1.0", "--out", str(tmp_path / "x")]) == 2
    assert main(base) == 2  # --m missing entirely


# ---------------------------------------------------------------------- fit


def test_fit_writes_basis_and_trace(tmp_path):
    synth_dir = _synth(tmp_path)
    out = tmp_path / "fit"
    code = main(["fit", "--input", str(synth_dir / "data.csv"), "--k", "2",
                 "--norm", "l1", "--solver", "pgd", "--out", str(out)])
    assert code == 0
    w = read_matrix_csv(out / "w.csv")
    assert w.shape == (6, 2)
    np.testing.assert_allclose(w.T @ w, np.eye(2), atol=1e-9)
    trace = json.loads((out / "trace.json").read_text())
    assert set(trace) == {"solver", "norm", "p", "objective", "iterations",
                          "converged", "monotone_violations", "wall_time_ms"}
    assert trace["solver"] == "pgd"
    assert trace["norm"] == "l1"
    assert trace["p"] is None
    assert trace["objective"][-1] <= trace["objective"][0]
    assert trace["iterations"] == len(trace["objective"]) - 1


def test_fit_fro_uses_closed_form(tmp_path):
    synth_dir = _synth(tmp_path)
    out = tmp_path / "fro"
    assert main(["fit", "--input", str(synth_dir / "data.csv"), "--k", "2",
                 "--norm", "fro", "--out", str(out)]) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["solver"] == "vanilla"
    assert trace["iterations"] == 0
    assert len(trace["objective"]) == 1


def test_fit_l2p_records_exponent(tmp_path):
    synth_dir = _synth(tmp_path)
    out = tmp_path / "l2p"
    assert main(["fit", "--input", str(synth_dir / "data.csv"), "--k", "2",
                 "--norm", "l2p", "--p", "1.5", "--solver", "irls",
                 "--out", str(out)]) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["p"] == 1.5
    assert trace["solver"] == "irls"


def test_fit_flag_validation(tmp_path):
    synth_dir = _synth(tmp_path)
    data = str(synth_dir / "data.csv")
    out = str(tmp_path / "bad")
    assert main(["fit", "--input", data, "--k", "2", "--norm", "l2p",
                 "--p", "2.5", "--out", out]) == 2
    assert main(["fit", "--input", data, "--k", "2", "--norm", "l1",
                 "--p", "1.0", "--out", out]) == 2
    assert main(["fit", "--input", data, "--k", "99", "--out", out]) == 2
    assert main(["fit", "--input", data, "--k", "0", "--out", out]) == 2


def test_fit_runtime_failures_exit_one(tmp_path):
    out = str(tmp_path / "f")
    assert main(["fit", "--input", str(tmp_path / "missing.csv"),
                 "--k", "1", "--out", out]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    assert main(["fit", "--input", str(bad), "--k", "1", "--out", out]) == 1


def test_fit_no_center_trusts_but_verifies(tmp_path):
    uncentered = tmp_path / "raw.csv"
    write_matrix_csv(uncentered, np.random.default_rng(0).standard_normal((30, 4)) + 2.0)
    assert main(["fit", "--input", str(uncentered), "--k", "1", "--no-center",
                 "--out", str(tmp_path / "a")]) == 1

    arr = np.random.default_rng(1).standard_normal((30, 4))
    arr -= arr.mean(axis=0)  # rows are samples, so center per column
    centered = tmp_path / "centered.csv"
    write_matrix_csv(centered, arr)
    assert main(["fit", "--input", str(centered), "--k", "1", "--no-center",
                 "--out", str(tmp_path / "b")]) == 0


# -------------------------------------------------------------------- bench


def test_bench_synthesized_instances(tmp_path):
    out = tmp_path / "bench"
    code = main(["bench", "--m", "6", "--n", "60", "--k-true", "2",
                 "--noise", "0.05", "--outlier-frac", "0.1", "--outlier-scale", "4",
                 "--norm", "l1", "--norm", "l2p", "--p", "1.0",
                 "--repeats", "2", "--max-iter", "150", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    reports = json.loads((out / "reports.json").read_text())
    # per repeat: vanilla + 3 solvers x 2 norms
    assert len(reports) == 2 * (1 + 6)
    traces = json.loads((out / "traces.json").read_text())
    assert len(traces) == len(reports)
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == SUMMARY_HEADER
    assert len(lines) == 1 + 1 + 6
    wins = json.loads((out / "wins.json").read_text())
    assert wins["repeats"] == 2
    for frac in wins["beats_vanilla_fraction"].values():
        assert 0.0 <= frac <= 1.0
    assert set(wins["beats_vanilla_fraction"]) == {
        "pgd:l1", "momentum:l1", "irls:l1", "pgd:l2p", "momentum:l2p", "irls:l2p",
    }


def test_bench_external_input(tmp_path):
    synth_dir = _synth(tmp_path)
    out = tmp_path / "bench_ext"
    code = main(["bench", "--input", str(synth_dir / "data.csv"), "--k", "2",
                 "--repeats", "1", "--max-iter", "100", "--out", str(out)])
    assert code == 0
    assert not (out / "wins.json").exists()  # no ground truth available
    with_truth = tmp_path / "bench_truth"
    code = main(["bench", "--input", str(synth_dir / "data.csv"),
                 "--w-true", str(synth_dir / "w_true.csv"), "--k", "2",
                 "--repeats", "1", "--max-iter", "100", "--out", str(with_truth)])
    assert code == 0
    assert (with_truth / "wins.json").exists()


def test_bench_flag_validation(tmp_path):
    synth_dir = _synth(tmp_path)
    out = str(tmp_path / "x")
    assert main(["bench", "--input", str(synth_dir / "data.csv"),
                 "--out", out]) == 2  # --k required with --input
    assert main(["bench", "--m", "5", "--n", "20", "--out", out]) == 2
    assert main(["bench", "--m", "5", "--n", "20", "--k-true", "2",
                 "--repeats", "0", "--out", out]) == 2


# -------------------------------------------------------------------- rerun


def test_rerun_reproduces_fit(tmp_path):
    synth_dir = _synth(tmp_path)
    first = tmp_path / "fit1"
    assert main(["fit", "--input", str(synth_dir / "data.csv"), "--k", "2",
                 "--solver", "momentum", "--out", str(first)]) == 0
    second = tmp_path / "fit2"
    assert main(["rerun", "--manifest", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    assert (first / "w.csv").read_bytes() == (second / "w.csv").read_bytes()
    a = json.loads((first / "trace.json").read_text())
    b = json.loads((second / "trace.json").read_text())
    a.pop("wall_time_ms"); b.pop("wall_time_ms")
    assert a == b
    assert (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()


def test_rerun_rejects_unknown_command(tmp_path):
    synth_dir = _synth(tmp_path)
    doctored = json.loads((synth_dir / "manifest.json").read_text())
    doctored["command"] = "explode"
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored))
    assert main(["rerun", "--manifest", str(path), "--out", str(tmp_path / "y")]) == 2


def test_rerun_missing_manifest(tmp_path):
    assert main(["rerun", "--manifest", str(tmp_path / "none.json")]) == 1


@pytest.mark.parametrize("shape", (
    "invalid_json", "not_ascii", "not_an_object", "no_config",
    "config_not_a_dict", "config_missing_key",
))
def test_rerun_malformed_manifest_exits_two(tmp_path, capsys, shape):
    synth_dir = _synth(tmp_path)
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    if shape == "not_ascii":
        manifest["tool"] = "r\u00e9pca"
    elif shape == "not_an_object":
        manifest = [manifest]
    elif shape == "no_config":
        del manifest["config"]
    elif shape == "config_not_a_dict":
        manifest["config"] = "m=6"
    elif shape == "config_missing_key":
        del manifest["config"]["header"]
    text = json.dumps(manifest, ensure_ascii=False)
    path = tmp_path / "bad.json"
    path.write_text(text[:-1] if shape == "invalid_json" else text, encoding="utf-8")
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(path), "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, key, value", (
    ("synth", "m", "6"),
    ("fit", "k", "2"),
    ("fit", "tol", None),
    ("fit", "input", 5),
    ("fit", "input", None),
    ("synth", "header", "yes"),
    ("synth", "seed", True),
))
def test_rerun_wrong_config_type_exits_two(tmp_path, capsys, command, key, value):
    synth_dir = _synth(tmp_path)
    run_dir = synth_dir
    if command == "fit":
        run_dir = tmp_path / "fit"
        assert main(["fit", "--input", str(synth_dir / "data.csv"), "--k", "2",
                     "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["config"][key] = value
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(path), "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest config {key!r} must be ") and err.count("\n") == 1
    assert not (tmp_path / "y").exists()


# ------------------------------------------------------------------ parsing


def test_version_and_usage_exits():
    assert main(["--version"]) == 0
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
