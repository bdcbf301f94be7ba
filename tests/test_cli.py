import copy
import gzip
import json
import os
import warnings

import numpy as np
import pytest

from repca import DataMatrix, NormSpec, SolverConfig, SynthSpec, center_columns, fit
from repca.cli import BLAS_THREAD_VARIABLES, SUMMARY_HEADER, _solver_config, _synth_spec, build_parser, main
from repca.csvio import FLOAT_FORMAT, read_matrix_csv, write_matrix_csv


def _synth(tmp_path, name="synth", extra=()):
    out = tmp_path / name
    code = main(["synth", "--m", "6", "--n", "40", "--k-true", "2",
                 "--noise", "0.05", "--outlier-frac", "0.1",
                 "--outlier-scale", "4.0", "--seed", "3",
                 "--out", str(out), *extra])
    assert code == 0
    return out


def _run_argv(command, synth_dir, out):
    """A small, valid command line for ``command``."""
    if command == "synth":
        return ["synth", "--m", "6", "--n", "40", "--k-true", "2", "--seed", "3", "--out", str(out)]
    if command == "fit":
        return ["fit", "--input", str(synth_dir / "data.csv"), "--k", "2", "--out", str(out)]
    return ["bench", "--m", "5", "--n", "30", "--k-true", "2", "--norm", "l1", "--norm", "l2p",
            "--max-iter", "20", "--out", str(out)]


def _usage_error(capsys, argv):
    """Run ``argv``; it must exit 2 with one ``error:`` line."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _set(tree, path, value):
    for key in path[:-1]:
        tree = tree[key]
    tree[path[-1]] = value


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
    assert manifest["config"]["spec"]["m"] == 6
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
                          "converged", "monotone_violations", "spectrum_gap_events", "guarded_steps",
                          "wall_time_ms"}
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


@pytest.mark.parametrize("rows", ("3.0,3.0,3.0\n" * 4, "1.0,-2.0,0.5\n"),
                         ids=("constant", "single_sample"))
def test_fit_degenerate_csv_keeps_stderr_empty(tmp_path, capsys, rows):
    """Centered, both files are all zeros, so the vanilla start has no
    eigengap; the fit counts that instead of printing a warning, and
    ``trace.json`` records the count.  So do the closed-form fro fit and
    every bench fit, in ``traces.json``."""
    path = tmp_path / "data.csv"
    path.write_text(rows)
    capsys.readouterr()
    for command, *flags in (("fit",), ("fit", "--norm", "fro"), ("bench",)):
        out = tmp_path / "_".join((command, *flags))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--input", str(path), "--k", "1", *flags, "--out", str(out)]) == 0
        assert capsys.readouterr().err == "", (command, *flags)
        if command == "fit":
            records = [json.loads((out / "trace.json").read_text())]
        else:
            records = json.loads((out / "traces.json").read_text())
        assert {r["spectrum_gap_events"] for r in records} == {1}, (command, *flags)


def test_vanilla_baseline_counts_the_closed_gap():
    """bench's baseline is the fro fit; its start has no eigengap here."""
    data = center_columns(DataMatrix(np.full((3, 3), 3.0)))[0]
    for init in ("vanilla", "random"):
        assert fit(data, 1, NormSpec.fro(), SolverConfig(init=init)).spectrum_gap_events == 1


def test_fit_overflowing_csv_exits_one(tmp_path, capsys):
    """Data whose squared norm overflows is refused with one error line
    for either start, by the fro fit and by bench; a random start used to
    exit 0, "converged"."""
    path = tmp_path / "big.csv"
    path.write_text("1e160,-1e160\n-1e160,1e160\n1e160,1e160\n-1e160,-1e160\n")
    capsys.readouterr()
    for name, command, *flags in (("random", "fit", "--init", "random"), ("vanilla", "fit"),
                                  ("fro", "fit", "--norm", "fro"), ("bench", "bench")):
        assert main([command, "--input", str(path), "--k", "1", *flags,
                     "--out", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "overflows" in err[0], err
        assert not (tmp_path / name).exists()


def test_fit_csv_whose_row_sums_overflow_exits_one(tmp_path, capsys):
    """Centering, or the centered check under --no-center, meets a feature
    whose sum overflows, or centering moves an entry past the float range
    with a finite mean: one error line, no numpy warning, no output."""
    huge = tmp_path / "huge.csv"
    huge.write_text("1e308,1\n1e308,2\n-1e300,3\n")
    lopsided = tmp_path / "lopsided.csv"  # mean -5e307; 1.5e308 - mean overflows
    lopsided.write_text("1.5e308\n-1.5e308\n-1.5e308\n")
    capsys.readouterr()
    for name, path, flags, message in (
        ("center", huge, (), "a row sum overflows"),
        ("no_center", huge, ("--no-center",), "a row sums to inf"),
        ("center_entry", lopsided, (), "a centered entry overflows"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--input", str(path), "--k", "1", *flags, "--out", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("command", ("synth", "bench"))
@pytest.mark.parametrize("flags, name", (
    (("--noise", "1e308"), "noise_sigma"),
    (("--outlier-scale", "1e308", "--outlier-frac", "0.5"), "outlier_scale"),
), ids=("noise", "outliers"))
def test_overflowing_scale_exits_one_with_one_line(tmp_path, capsys, command, flags, name):
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_run_argv(command, None, out) + list(flags)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {name} = 1e+308 is too large: the data overflow the float range\n", err
    assert not out.exists()


@pytest.mark.parametrize("command", ("synth", "bench"))
def test_out_of_memory_exits_one_with_one_line(tmp_path, capsys, monkeypatch, command):
    message = "Unable to allocate 745. GiB for an array with shape (1, 100000000000) and data type float64"

    def refuse(spec):
        raise MemoryError(message)

    monkeypatch.setattr("repca.cli.synth_subspace", refuse)
    capsys.readouterr()
    assert main(_run_argv(command, None, tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_flag_defaults_are_the_dataclass_defaults():
    parse = build_parser().parse_args
    spec = ["--m", "10", "--n", "200", "--k-true", "2", "--out", "o"]
    ns = parse(["fit", "--input", "x.csv", "--k", "2", "--out", "o"])
    assert _solver_config(ns, ns.solver) == SolverConfig()
    assert _synth_spec(parse(["synth", *spec])) == SynthSpec(10, 200, 2)
    ns = parse(["bench", *spec])
    assert _solver_config(ns, SolverConfig.variant) == SolverConfig()
    assert _synth_spec(ns) == SynthSpec(10, 200, 2)


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
    assert main(["fit", "--input", data, "--k", "2", "--eps", "1e-10", "--out", out]) == 2
    # 3 samples of 5 features: the closed form needs k <= 3 whatever the start
    thin = tmp_path / "thin.csv"
    write_matrix_csv(thin, np.random.default_rng(0).standard_normal((3, 5)))
    assert main(["fit", "--input", str(thin), "--k", "4", "--norm", "fro",
                 "--init", "random", "--out", out]) == 2


@pytest.mark.parametrize("flag", ("--tol",))
def test_fit_non_finite_setting_exits_two(tmp_path, capsys, flag):
    synth_dir = _synth(tmp_path)
    capsys.readouterr()
    assert main(["fit", "--input", str(synth_dir / "data.csv"), "--k", "2",
                 flag, "nan", "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("scale", (1e-150, 1e150))
def test_fit_at_the_data_scale_ends_runs_cleanly(tmp_path, capsys, scale):
    """The third sample is the mean, so its residual column is zero and
    sits at the clamp.  The clamp follows the data's scale down to its
    floor, so at either end (about 1e-150, where the floor holds it, and
    1e150, where ||X||_F^2 is near the float range) no weight is 0/0, inf
    or all zero."""
    path = tmp_path / "data.csv"
    rows = np.array([[1, 2], [-1, -2], [0, 0], [3, -1], [-3, 1]]) * scale
    write_matrix_csv(path, rows)
    capsys.readouterr()
    for flags in ([], ["--solver", "irls"], ["--solver", "momentum"], ["--norm", "l2p", "--p", "0.1"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--input", str(path), "--k", "1", *flags,
                         "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == "", flags


def test_fit_runtime_failures_exit_one(tmp_path):
    out = str(tmp_path / "f")
    assert main(["fit", "--input", str(tmp_path / "missing.csv"),
                 "--k", "1", "--out", out]) == 1
    # k is checked against the data, so only once the file is read
    assert main(["fit", "--input", str(tmp_path / "missing.csv"),
                 "--k", "0", "--out", out]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    assert main(["fit", "--input", str(bad), "--k", "1", "--out", out]) == 1
    packed = tmp_path / "data.csv.gz"
    with gzip.open(packed, "wt", encoding="ascii") as fh:
        fh.write("1,2\n3,4\n5,7\n")
    assert main(["fit", "--input", str(packed), "--k", "1", "--out", out]) == 1
    assert main(["fit", "--input", str(tmp_path / "data.csv"), "--k", "1", "--out", out]) == 1


@pytest.mark.parametrize("text, message", (
    (b"", "no data rows"),
    (b"\n\n", "no data rows"),
    (b" \n\t\n", "no data rows"),
    (b"1,2\n3,\xc3\xa9\n", "line 2: byte 0xc3 is not ASCII"),
    (b"1,2\r3,4\r\n\n5,\xff\n", "line 4: byte 0xff is not ASCII"),
    (b"1,2\nnan,3\n4,5\n", "DataMatrix.values contains non-finite entries"),
    (b"1,2\n-inf,3\n4,5\n", "DataMatrix.values contains non-finite entries"),
), ids=("empty", "blank_lines", "whitespace_lines", "utf8", "mixed_line_ends", "nan", "inf"))
def test_fit_unreadable_csv_exits_one_with_one_line(tmp_path, capsys, text, message):
    """A file without data, with a byte outside ASCII or with a non-finite
    value is refused with one error line that names the file, and no
    library warning reaches stderr."""
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--input", str(path), "--k", "1", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n", err


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


def _bench_key(record):
    return record["solver"], record["norm"], record["p"]


def _check_bench_agrees(out):
    """summary.csv holds the means over repeats of traces.json and
    reports.json, and wins.json the fraction of repeats in which each robust
    fit's largest angle is below that repeat's vanilla angle."""
    traces = json.loads((out / "traces.json").read_text())
    reports = json.loads((out / "reports.json").read_text())
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    keys = list(dict.fromkeys(_bench_key(t) for t in traces))
    assert len(rows) == len(keys)
    for row, (solver, kind, p) in zip(rows, keys):
        fits = [t for t in traces if _bench_key(t) == (solver, kind, p)]
        scores = [r for r in reports if _bench_key(r) == (solver, kind, p)]
        means = [np.mean([t["objective"][-1] for t in fits]),
                 np.mean([t["iterations"] for t in fits]),
                 np.mean([t["wall_time_ms"] for t in fits]),
                 np.mean([r["max_angle_rad"] for r in scores])]
        p_text = "" if p is None else FLOAT_FORMAT % p
        assert row == ",".join([solver, kind, p_text, *(FLOAT_FORMAT % m for m in means)])

    wins = json.loads((out / "wins.json").read_text())
    repeats = wins["repeats"]
    vanilla = {r["repeat"]: r["max_angle_rad"] for r in reports if r["solver"] == "vanilla"}
    assert sorted(vanilla) == list(range(repeats))
    counts = {}
    for r in reports:
        if r["solver"] != "vanilla":
            key = f"{r['solver']}:{r['norm']}"
            counts[key] = counts.get(key, 0) + (r["max_angle_rad"] < vanilla[r["repeat"]])
    assert wins["beats_vanilla_fraction"] == {key: count / repeats for key, count in counts.items()}


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
    _check_bench_agrees(out)


def test_bench_wins_compare_each_repeat_with_its_own_vanilla_fit(tmp_path):
    """Without outliers vanilla PCA wins some repeats, so the fractions in
    wins.json fall strictly between 0 and 1 and `_check_bench_agrees` can tell
    one repeat's vanilla angle from another's."""
    out = tmp_path / "bench"
    assert main(["bench", "--m", "6", "--n", "40", "--k-true", "2", "--noise", "0.3",
                 "--outlier-frac", "0", "--norm", "l1", "--norm", "l2p", "--repeats", "4",
                 "--max-iter", "100", "--seed", "5", "--out", str(out)]) == 0
    fractions = json.loads((out / "wins.json").read_text())["beats_vanilla_fraction"]
    assert any(0.0 < frac < 1.0 for frac in fractions.values()), fractions
    _check_bench_agrees(out)


def test_bench_external_input(tmp_path, capsys):
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
    _check_bench_agrees(with_truth)
    # a --w-true value the basis check refuses is reported with the file's name
    basis = read_matrix_csv(synth_dir / "w_true.csv")
    basis[1, 0] = np.nan
    bad = tmp_path / "bad_w_true.csv"
    write_matrix_csv(bad, basis)
    capsys.readouterr()
    assert main(["bench", "--input", str(synth_dir / "data.csv"), "--w-true", str(bad), "--k", "2",
                 "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: Projection.values contains non-finite entries\n"
    assert not (tmp_path / "bad").exists()
    # so is a --w-true with one row fewer than the data has features, before any fit
    short = tmp_path / "short_w_true.csv"
    write_matrix_csv(short, np.eye(5)[:, :2])
    assert main(["bench", "--input", str(synth_dir / "data.csv"), "--w-true", str(short), "--k", "2",
                 "--out", str(tmp_path / "short")]) == 1
    assert capsys.readouterr().err == (f"error: {short}: the basis has 5 rows, "
                                       f"but the data has 6 features\n")
    assert not (tmp_path / "short").exists()
    # a shape error raised while a file is built is a file error too: exit 1, not 2
    wide = tmp_path / "wide_w_true.csv"
    write_matrix_csv(wide, np.eye(6, 7))
    assert main(["bench", "--input", str(synth_dir / "data.csv"), "--w-true", str(wide), "--k", "1",
                 "--out", str(tmp_path / "wide")]) == 1
    assert capsys.readouterr().err == f"error: {wide}: basis has more columns than rows: (6, 7)\n"
    assert not (tmp_path / "wide").exists()


@pytest.mark.parametrize("flag, value", (
    ("--m", "99"), ("--n", "50"), ("--k-true", "1"), ("--noise", "3"), ("--outlier-frac", "0.1"),
    ("--outlier-scale", "2"), ("--seed", "2"),
))
def test_bench_input_takes_no_synthesis_flag(tmp_path, capsys, flag, value):
    """With --input the data are given, so a flag that would synthesize them
    exits 2 naming it instead of being ignored; --seed, which seeds the
    random starts, is taken."""
    synth_dir = _synth(tmp_path)
    out = tmp_path / "b"
    argv = ["bench", "--input", str(synth_dir / "data.csv"), "--k", "1", flag, value,
            "--max-iter", "20", "--out", str(out)]
    if flag == "--seed":
        assert main(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["solver"]["seed"] == 2
    else:
        assert flag in _usage_error(capsys, argv)
        assert not out.exists()


def test_bench_flag_validation(tmp_path):
    synth_dir = _synth(tmp_path)
    out = str(tmp_path / "x")
    assert main(["bench", "--input", str(synth_dir / "data.csv"),
                 "--out", out]) == 2  # --k required with --input
    assert main(["bench", "--m", "5", "--n", "20", "--out", out]) == 2
    assert main(["bench", "--m", "5", "--n", "20", "--k-true", "2",
                 "--repeats", "0", "--out", out]) == 2
    # the weight clamp follows the data's scale; there is no --eps
    assert main(["bench", "--m", "5", "--n", "20", "--k-true", "2",
                 "--eps", "1e-10", "--out", out]) == 2


# -------------------------------------------------------------------- rerun


def _without_wall_times(path):
    payload = json.loads(path.read_text())
    for record in payload if isinstance(payload, list) else [payload]:
        record.pop("wall_time_ms")
    return payload


def test_rerun_reproduces_fit(tmp_path):
    """rerun reproduces every output byte for byte, apart from the JSON
    files that record wall times, which match once those are dropped."""
    synth_dir = _synth(tmp_path)
    data = str(synth_dir / "data.csv")
    runs = {  # name: (argv, byte-equal outputs, outputs equal without wall times)
        "fit": (["fit", "--input", data, "--k", "2", "--solver", "momentum"],
                ["w.csv"], ["trace.json"]),
        "synth": (["synth", "--m", "6", "--n", "40", "--k-true", "2", "--noise", "0.05",
                   "--outlier-frac", "0.1", "--seed", "3"],
                  ["data.csv", "w_true.csv", "outlier_mask.csv"], []),
        "fro": (["fit", "--input", data, "--k", "2", "--norm", "fro"], ["w.csv"], ["trace.json"]),
        "bench": (["bench", "--m", "5", "--n", "30", "--k-true", "2", "--noise", "0.05",
                   "--outlier-frac", "0.1", "--norm", "l1", "--norm", "l2p", "--repeats", "2",
                   "--max-iter", "50", "--seed", "4"],
                  ["wins.json"], ["reports.json", "traces.json"]),
    }
    for name, (argv, same_bytes, same_json) in runs.items():
        first, second = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert main([*argv, "--out", str(first)]) == 0
        assert main(["rerun", "--manifest", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        for out in [*same_bytes, "manifest.json"]:
            assert (first / out).read_bytes() == (second / out).read_bytes(), (name, out)
        for out in same_json:
            assert _without_wall_times(first / out) == _without_wall_times(second / out), (name, out)


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
    path = {"m": "spec.m", "seed": "spec.seed", "tol": "solver.tol"}.get(key, key)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    _set(manifest["config"], path.split("."), value)
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(manifest))
    err = _usage_error(capsys, ["rerun", "--manifest", str(doctored), "--out", str(tmp_path / "y")])
    assert err.startswith(f"error: manifest config {path!r} must be ")
    assert not (tmp_path / "y").exists()


def test_rerun_non_finite_setting_exits_two(tmp_path, capsys):
    synth_dir = _synth(tmp_path)
    run_dir = tmp_path / "fit"
    assert main(["fit", "--input", str(synth_dir / "data.csv"), "--k", "2",
                 "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["config"]["solver"]["tol"] = float("nan")
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(manifest))  # json writes the bare token NaN
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(path), "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "y").exists()


NAN, INF = float("nan"), float("inf")
# case: (command, flags that make it invalid or None, manifest config edits)
USAGE_CASES = {
    "bench_repeats_zero": ("bench", ["--repeats", "0"], {"repeats": 0}),
    "fit_unknown_norm": ("fit", None, {"norm.kind": "bogus"}),
    "bench_w_true_without_input": ("bench", ["--w-true", "w_true.csv"], {"w_true": "w_true.csv"}),
    "fit_fro_bad_solver": ("fit", ["--norm", "fro", "--max-iter", "0", "--tol", "nan"],
                           {"norm.kind": "fro", "solver.max_iter": 0, "solver.tol": NAN}),
    "fit_negative_seed": ("fit", ["--init", "random", "--seed", "-1"],
                          {"solver.init": "random", "solver.seed": -1}),
    "synth_negative_seed": ("synth", ["--seed", "-1"], {"spec.seed": -1}),
    "synth_nan_noise": ("synth", ["--noise", "nan"], {"spec.noise_sigma": NAN}),
    "synth_inf_outlier_scale": ("synth", ["--outlier-frac", "0.1", "--outlier-scale", "inf"],
                                {"spec.outlier_scale": INF}),
    "synth_nan_outlier_scale": ("synth", ["--outlier-scale", "nan"], {"spec.outlier_scale": NAN}),
    # the flags cannot express these: they give bench at least one norm (l1 by
    # default) and one kind per norm, run it with variant pgd and give
    # synthesis and solver the same --seed
    "bench_no_norms": ("bench", None, {"norms": []}),
    "bench_repeated_norm_kind": ("bench", None, {"norms": [{"kind": "l2p", "p": 0.5},
                                                           {"kind": "l2p", "p": 1.0}]}),
    "bench_solver_variant": ("bench", None, {"solver.variant": "irls"}),
    "bench_solver_seed_differs": ("bench", None, {"solver.seed": 1}),
    "fit_huge_integer_tol": ("fit", None, {"solver.tol": 10 ** 400}),
    # a manifest written before the clamp followed the data's scale
    "fit_retired_eps": ("fit", None, {"solver.eps": 1e-10}),
}


@pytest.mark.parametrize("case", sorted(USAGE_CASES))
def test_usage_errors_exit_two_from_flags_and_manifest(tmp_path, capsys, case):
    command, flags, edits = USAGE_CASES[case]
    synth_dir = _synth(tmp_path)
    run_dir = tmp_path / "run"
    assert main(_run_argv(command, synth_dir, run_dir)) == 0
    out = tmp_path / "y"
    if flags is not None:
        _usage_error(capsys, _run_argv(command, synth_dir, out) + flags)
        assert not out.exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for path, value in edits.items():
        _set(manifest["config"], path.split("."), value)
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(manifest))
    err = _usage_error(capsys, ["rerun", "--manifest", str(doctored), "--out", str(out)])
    assert not out.exists()
    if case == "fit_unknown_norm":
        assert "'bogus'" in err
    if case == "fit_retired_eps":
        assert err == "error: manifest config 'solver' has an unknown entry 'eps'\n"


_SOLVER = {"variant": None, "max_iter": None, "tol": None, "init": None, "seed": None}
_SPEC = {"m": None, "n": None, "k_true": None, "noise_sigma": None, "outlier_frac": None,
         "outlier_scale": None, "seed": None}
_NORM = {"kind": None, "p": None}
CONFIG_LAYOUT = {
    "synth": {"spec": _SPEC, "header": None},
    "fit": {"input": None, "k": None, "norm": _NORM, "solver": _SOLVER, "center": None, "header": None},
    "bench": {"k": None, "norms": [_NORM, _NORM], "repeats": None, "solver": _SOLVER,
              "spec": _SPEC, "input": None, "w_true": None, "center": None, "header": None},
}


def _key_tree(value):
    if isinstance(value, dict):
        return {key: _key_tree(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_key_tree(v) for v in value]
    return None


@pytest.mark.parametrize("command", sorted(CONFIG_LAYOUT))
def test_manifest_config_layout(tmp_path, command):
    """The manifest is the job's asdict(); a field added to a spec
    dataclass changes the file format and must show up here."""
    synth_dir = _synth(tmp_path)
    assert main(_run_argv(command, synth_dir, tmp_path / "run")) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert set(manifest) == {"tool", "version", "command", "config", "inputs", "outputs", "seed",
                             "numpy", "blas", *BLAS_THREAD_VARIABLES}
    assert manifest["numpy"] == np.__version__
    if np.lib.NumpyVersion(np.__version__) >= "1.25.0":
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == f"{blas['name']} {blas['version']}"
    else:  # numpy reports its BLAS build from 1.25 on
        assert manifest["blas"] is None
    for name in BLAS_THREAD_VARIABLES:
        assert manifest[name] == os.environ.get(name)
    assert _key_tree(manifest["config"]) == CONFIG_LAYOUT[command]
    if command == "bench":  # pinned: bench runs every variant from one seed
        config = manifest["config"]
        assert config["solver"]["variant"] == "pgd"
        assert config["solver"]["seed"] == config["spec"]["seed"] == 0


def test_rerun_float_field_takes_an_integer(tmp_path):
    """A hand edit may write 0 for 0.0; it reads as the float."""
    synth_dir = _synth(tmp_path)
    assert main(_run_argv("bench", synth_dir, tmp_path / "run")) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    manifest["config"]["solver"]["tol"] = 0
    manifest["config"]["norms"][1]["p"] = 1
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(manifest))
    assert main(["rerun", "--manifest", str(doctored), "--out", str(tmp_path / "y")]) == 0
    config = json.loads((tmp_path / "y" / "manifest.json").read_text())["config"]
    assert config["solver"]["tol"] == 0.0 and isinstance(config["solver"]["tol"], float)
    assert config["norms"][1] == {"kind": "l2p", "p": 1.0}


@pytest.mark.parametrize("command", ("synth", "fit"))
def test_rerun_rejects_the_flat_manifest_layout(tmp_path, capsys, command):
    synth_dir = _synth(tmp_path)
    config = {"m": 6, "n": 40, "k_true": 2, "noise_sigma": 0.05, "outlier_frac": 0.1,
              "outlier_scale": 4.0, "seed": 3, "header": False}
    if command == "fit":
        config = {"input": str(synth_dir / "data.csv"), "k": 2, "norm": "l1", "p": None,
                  "solver": "pgd", "max_iter": 500, "tol": 1e-8, "eps": 1e-10,
                  "init": "vanilla", "seed": 0, "center": True, "header": False}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"tool": "repca", "version": "0.1.0", "command": command,
                                "config": config, "inputs": {}, "outputs": [], "seed": 0}))
    _usage_error(capsys, ["rerun", "--manifest", str(path), "--out", str(tmp_path / "y")])
    assert not (tmp_path / "y").exists()


# No large integer: a doctored m or n must not allocate gigabytes.
FUZZ_VALUES = (None, True, "x", -1, 0, 0.5, NAN, [], {})


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path


@pytest.mark.parametrize("command", ("synth", "fit", "bench"))
def test_rerun_fuzzed_manifest_never_raises(tmp_path, capsys, command):
    """Every leaf of a manifest, set to each odd JSON value, ends in exit
    0, 1 or 2, and a failure prints exactly one error line."""
    synth_dir = _synth(tmp_path)
    assert main(_run_argv(command, synth_dir, tmp_path / "run")) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    doctored = tmp_path / "doctored.json"
    for path in [("command",), *(("config",) + p for p in _leaves(manifest["config"]))]:
        for value in FUZZ_VALUES:
            changed = copy.deepcopy(manifest)
            _set(changed, path, value)
            doctored.write_text(json.dumps(changed))
            capsys.readouterr()
            code = main(["rerun", "--manifest", str(doctored), "--out", str(tmp_path / "y")])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (path, value)
            assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1), (path, value, err)


# ------------------------------------------------------------------ parsing


def test_version_and_usage_exits():
    assert main(["--version"]) == 0
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
