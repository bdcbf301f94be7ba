"""Command-line interface: synth, fit, bench, rerun.

Every command writes a ``manifest.json`` holding the fully resolved
configuration, so ``repca rerun --manifest <path>`` reproduces the run.
All numeric outputs are deterministic given the manifest; only the
recorded wall times vary between runs.

Exit codes: 0 on success, 1 on runtime or I/O failures (unreadable or
malformed files), 2 on bad flags or flag combinations.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .csvio import FLOAT_FORMAT, read_matrix_csv, write_mask_csv, write_matrix_csv
from .datagen import SynthSpec, synth_subspace
from .errors import CsvParseError, InvalidSpec
from .linalg import DataMatrix, Projection, center_columns
from .metrics import evaluate
from .objectives import NormSpec, objective_value
from .solvers import INITS, VARIANTS, SolverConfig, fit, vanilla_pca

_EPILOG = """\
file formats:
  Data CSVs hold one sample per row and one feature per column; they are
  transposed on load so samples become columns internally.  Projection
  CSVs hold one feature per row and one component per column.  Values
  carry 17 significant digits and round-trip exactly.

reproducing a run:
  repca rerun --manifest OUT/manifest.json --out NEWDIR
"""

SUMMARY_HEADER = "solver,norm,p,final_objective,iterations,wall_time_ms,max_angle_rad"


class UsageError(Exception):
    """Bad flag value or combination; maps to exit code 2."""


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict, outputs: list[str]) -> None:
    _write_json(
        out_dir / "manifest.json",
        {
            "tool": "repca",
            "version": __version__,
            "command": command,
            "config": config,
            "inputs": inputs,
            "outputs": sorted(outputs),
            "seed": config.get("seed"),
        },
    )


def _load_data(path: str, skip_header: bool, center: bool) -> DataMatrix:
    arr = read_matrix_csv(path, skip_header=skip_header)
    data = DataMatrix(arr.T, centered=False)
    if center:
        data, _ = center_columns(data)
    else:
        # the caller asserts the file is already centered; validate that
        data = DataMatrix(arr.T, centered=True)
    return data


def _norm_spec(kind: str, p: float | None) -> NormSpec:
    if kind == "l2p":
        return NormSpec.l2p(p if p is not None else 1.0)
    if kind == "l1":
        return NormSpec.l1()
    return NormSpec.fro()


def _trace_record(solver: str, kind: str, p, trace, iterations, converged, violations, wall_ms) -> dict:
    return {
        "solver": solver,
        "norm": kind,
        "p": None if p is None else float(p),
        "objective": [float(v) for v in trace],
        "iterations": int(iterations),
        "converged": bool(converged),
        "monotone_violations": int(violations),
        "wall_time_ms": float(wall_ms),
    }


def _report_record(solver: str, kind: str, p, report) -> dict:
    return {
        "solver": solver,
        "norm": kind,
        "p": None if p is None else float(p),
        "error_fro2": report.error_fro2,
        "error_l1": report.error_l1,
        "error_l2p": report.error_l2p,
        "l2p_exponent": report.l2p_exponent,
        "angles_rad": None if report.angles_rad is None else [float(a) for a in report.angles_rad],
        "max_angle_rad": report.max_angle_rad,
        "iterations": report.iterations,
        "wall_time_ms": report.wall_time_ms,
    }


# ---------------------------------------------------------------- synth


def _run_synth(config: dict, out_dir: Path) -> int:
    spec = SynthSpec(
        m=config["m"],
        n=config["n"],
        k_true=config["k_true"],
        noise_sigma=config["noise_sigma"],
        outlier_frac=config["outlier_frac"],
        outlier_scale=config["outlier_scale"],
        seed=config["seed"],
    )
    data, basis, mask = synth_subspace(spec)
    header = [f"f{i}" for i in range(spec.m)] if config["header"] else None
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "data.csv", data.values.T, header=header)
    write_matrix_csv(out_dir / "w_true.csv", basis.values)
    write_mask_csv(out_dir / "outlier_mask.csv", mask)
    _write_manifest(
        out_dir, "synth", config, {},
        ["data.csv", "w_true.csv", "outlier_mask.csv", "manifest.json"],
    )
    print(f"wrote {out_dir}/data.csv ({spec.n} samples x {spec.m} features, "
          f"{spec.outlier_count} outliers)")
    return 0


def cmd_synth(ns: argparse.Namespace) -> int:
    if ns.m < 1:
        raise UsageError("--m must be at least 1")
    if ns.n < 1:
        raise UsageError("--n must be at least 1")
    if not 1 <= ns.k_true <= ns.m:
        raise UsageError("--k-true must be in [1, --m]")
    if ns.noise < 0.0:
        raise UsageError("--noise must be nonnegative")
    if not 0.0 <= ns.outlier_frac < 1.0:
        raise UsageError("--outlier-frac must be in [0, 1)")
    if ns.outlier_scale <= 0.0:
        raise UsageError("--outlier-scale must be positive")
    config = {
        "m": ns.m,
        "n": ns.n,
        "k_true": ns.k_true,
        "noise_sigma": ns.noise,
        "outlier_frac": ns.outlier_frac,
        "outlier_scale": ns.outlier_scale,
        "seed": ns.seed,
        "header": ns.header,
    }
    return _run_synth(config, Path(ns.out))


# ------------------------------------------------------------------ fit


def _run_fit(config: dict, out_dir: Path) -> int:
    data = _load_data(config["input"], config["header"], config["center"])
    m, n = data.shape
    k = config["k"]
    if not 1 <= k <= m:
        raise UsageError(f"--k must be in [1, {m}] for this input, got {k}")
    kind = config["norm"]
    p = config["p"] if kind == "l2p" else None

    if kind == "fro":
        if k > min(m, n):
            raise UsageError(f"--norm fro needs --k <= min(m, n) = {min(m, n)}")
        start = time.perf_counter()
        basis = vanilla_pca(data, k)
        wall_ms = (time.perf_counter() - start) * 1000.0
        trace = [objective_value(data, basis, NormSpec.fro())]
        record = _trace_record("vanilla", kind, None, trace, 0, True, 0, wall_ms)
    else:
        solver_cfg = SolverConfig(
            variant=config["solver"],
            max_iter=config["max_iter"],
            tol=config["tol"],
            eps=config["eps"],
            init=config["init"],
            seed=config["seed"],
        )
        if solver_cfg.init == "vanilla" and k > min(m, n):
            raise UsageError(f"--init vanilla needs --k <= min(m, n) = {min(m, n)}")
        result = fit(data, k, _norm_spec(kind, p), solver_cfg)
        basis = result.projection
        record = _trace_record(
            config["solver"], kind, p, result.objective_trace,
            result.iterations, result.converged, result.monotone_violations,
            result.wall_time_ms,
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "w.csv", basis.values)
    _write_json(out_dir / "trace.json", record)
    _write_manifest(
        out_dir, "fit", config, {"data": config["input"]},
        ["w.csv", "trace.json", "manifest.json"],
    )
    print(f"wrote {out_dir}/w.csv ({m} x {k}); final objective "
          f"{record['objective'][-1]:.6g} after {record['iterations']} iterations")
    return 0


def cmd_fit(ns: argparse.Namespace) -> int:
    _check_norm_flags(ns)
    if ns.k < 1:
        raise UsageError("--k must be at least 1")
    config = {
        "input": str(Path(ns.input).resolve()),
        "k": ns.k,
        "norm": ns.norm,
        "p": ns.p if ns.norm == "l2p" else None,
        "solver": ns.solver,
        "max_iter": ns.max_iter,
        "tol": ns.tol,
        "eps": ns.eps,
        "init": ns.init,
        "seed": ns.seed,
        "center": not ns.no_center,
        "header": ns.header,
    }
    return _run_fit(config, Path(ns.out))


def _check_norm_flags(ns: argparse.Namespace) -> None:
    if ns.p is not None:
        kinds = ns.norm if isinstance(ns.norm, list) else [ns.norm]
        if "l2p" not in kinds:
            raise UsageError("--p is only meaningful with --norm l2p")
        if not 0.0 < ns.p <= 2.0:
            raise UsageError("--p must be in (0, 2]")


# ---------------------------------------------------------------- bench


def _bench_once(data, reference, k, config, seed, repeat, traces, reports, rows, wins):
    """One repeat: vanilla plus the three robust solvers per requested norm."""
    start = time.perf_counter()
    van = vanilla_pca(data, k)
    van_wall = (time.perf_counter() - start) * 1000.0
    van_obj = objective_value(data, van, NormSpec.fro())
    ref = reference if reference is not None else van
    van_report = evaluate(data, van, ref, NormSpec.fro(), iterations=0, wall_time_ms=van_wall)
    traces.append({"repeat": repeat, **_trace_record("vanilla", "fro", None, [van_obj], 0, True, 0, van_wall)})
    reports.append({"repeat": repeat, **_report_record("vanilla", "fro", None, van_report)})
    rows[("vanilla", "fro", None)].append((van_obj, 0, van_wall, van_report.max_angle_rad))

    for kind in config["norms"]:
        p = config["p"] if kind == "l2p" else None
        norm = _norm_spec(kind, p)
        for variant in VARIANTS:
            solver_cfg = SolverConfig(
                variant=variant,
                max_iter=config["max_iter"],
                tol=config["tol"],
                eps=config["eps"],
                init=config["init"],
                seed=seed,
            )
            result = fit(data, k, norm, solver_cfg)
            rep = evaluate(
                data, result.projection, ref, norm,
                iterations=result.iterations, wall_time_ms=result.wall_time_ms,
            )
            traces.append({
                "repeat": repeat,
                **_trace_record(variant, kind, p, result.objective_trace,
                                result.iterations, result.converged,
                                result.monotone_violations, result.wall_time_ms),
            })
            reports.append({"repeat": repeat, **_report_record(variant, kind, p, rep)})
            rows[(variant, kind, p)].append(
                (result.objective_trace[-1], result.iterations,
                 result.wall_time_ms, rep.max_angle_rad)
            )
            if reference is not None and rep.max_angle_rad < van_report.max_angle_rad:
                wins[f"{variant}:{kind}"] += 1


def _run_bench(config: dict, out_dir: Path) -> int:
    repeats = config["repeats"]
    traces: list[dict] = []
    reports: list[dict] = []
    rows: dict = {}
    wins: dict = {}
    rows[("vanilla", "fro", None)] = []
    for kind in config["norms"]:
        p = config["p"] if kind == "l2p" else None
        for variant in VARIANTS:
            rows[(variant, kind, p)] = []
            wins[f"{variant}:{kind}"] = 0

    external_reference = None
    external_data = None
    if config["input"] is not None:
        external_data = _load_data(config["input"], config["header"], config["center"])
        if config["w_true"] is not None:
            external_reference = Projection(read_matrix_csv(config["w_true"]))

    for repeat in range(repeats):
        seed = config["seed"] + repeat
        if config["input"] is None:
            spec = SynthSpec(
                m=config["m"], n=config["n"], k_true=config["k_true"],
                noise_sigma=config["noise_sigma"],
                outlier_frac=config["outlier_frac"],
                outlier_scale=config["outlier_scale"],
                seed=seed,
            )
            data, reference, _ = synth_subspace(spec)
        else:
            data, reference = external_data, external_reference
        k = config["k"]
        if not 1 <= k <= min(data.shape):
            raise UsageError(f"--k must be in [1, min(m, n)] = [1, {min(data.shape)}]")
        _bench_once(data, reference, k, config, seed, repeat, traces, reports, rows, wins)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "reports.json", reports)
    _write_json(out_dir / "traces.json", traces)

    lines = [SUMMARY_HEADER]
    for (solver, kind, p), entries in rows.items():
        objs, iters, walls, angles = zip(*entries)
        p_text = "" if p is None else FLOAT_FORMAT % p
        angle_mean = float(np.mean([a for a in angles if a is not None] or [0.0]))
        lines.append(",".join([
            solver, kind, p_text,
            FLOAT_FORMAT % float(np.mean(objs)),
            FLOAT_FORMAT % float(np.mean(iters)),
            FLOAT_FORMAT % float(np.mean(walls)),
            FLOAT_FORMAT % angle_mean,
        ]))
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

    outputs = ["reports.json", "traces.json", "summary.csv", "manifest.json"]
    have_truth = config["input"] is None or config["w_true"] is not None
    if have_truth:
        fractions = {key: count / repeats for key, count in wins.items()}
        _write_json(out_dir / "wins.json", {
            "repeats": repeats,
            "reference": "w_true",
            "beats_vanilla_fraction": fractions,
        })
        outputs.append("wins.json")
        for key in sorted(fractions):
            print(f"{key} beats vanilla on angle to the true basis in "
                  f"{fractions[key]:.0%} of {repeats} runs")
    inputs = {}
    if config["input"] is not None:
        inputs["data"] = config["input"]
    if config["w_true"] is not None:
        inputs["w_true"] = config["w_true"]
    _write_manifest(out_dir, "bench", config, inputs, outputs)
    print(f"wrote {out_dir}/summary.csv")
    return 0


def cmd_bench(ns: argparse.Namespace) -> int:
    _check_norm_flags(ns)
    if ns.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    norms = ns.norm if ns.norm else ["l1"]
    deduped = list(dict.fromkeys(norms))
    if ns.input is None:
        for flag, value in (("--m", ns.m), ("--n", ns.n), ("--k-true", ns.k_true)):
            if value is None:
                raise UsageError(f"{flag} is required when --input is not given")
        if not 0.0 <= ns.outlier_frac < 1.0:
            raise UsageError("--outlier-frac must be in [0, 1)")
        if ns.outlier_scale <= 0.0:
            raise UsageError("--outlier-scale must be positive")
        if ns.noise < 0.0:
            raise UsageError("--noise must be nonnegative")
        k = ns.k if ns.k is not None else ns.k_true
    else:
        if ns.k is None:
            raise UsageError("--k is required when --input is given")
        k = ns.k
    if k < 1:
        raise UsageError("--k must be at least 1")
    config = {
        "input": None if ns.input is None else str(Path(ns.input).resolve()),
        "w_true": None if ns.w_true is None else str(Path(ns.w_true).resolve()),
        "m": ns.m,
        "n": ns.n,
        "k_true": ns.k_true,
        "noise_sigma": ns.noise,
        "outlier_frac": ns.outlier_frac,
        "outlier_scale": ns.outlier_scale,
        "k": k,
        "norms": deduped,
        "p": ns.p if "l2p" in deduped else None,
        "repeats": ns.repeats,
        "max_iter": ns.max_iter,
        "tol": ns.tol,
        "eps": ns.eps,
        "init": ns.init,
        "seed": ns.seed,
        "center": not ns.no_center,
        "header": ns.header,
    }
    if config["p"] is None and "l2p" in deduped:
        config["p"] = 1.0
    return _run_bench(config, Path(ns.out))


# ---------------------------------------------------------------- rerun

_RUNNERS = {"synth": _run_synth, "fit": _run_fit, "bench": _run_bench}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


_STRING = ("a string", lambda v: isinstance(v, str))
# What each config value must be, as the commands write it: (name, test).
_CONFIG_TYPES = {
    **dict.fromkeys(("m", "n", "k_true", "k", "seed", "repeats", "max_iter"), ("an integer", _is_int)),
    **dict.fromkeys(("noise_sigma", "outlier_frac", "outlier_scale", "tol", "eps"), ("a number", _is_number)),
    "p": ("a number or null", lambda v: v is None or _is_number(v)),
    **dict.fromkeys(("header", "center"), ("true or false", lambda v: isinstance(v, bool))),
    **dict.fromkeys(("norm", "solver", "init"), _STRING),
    **dict.fromkeys(("input", "w_true"), ("a string or null", lambda v: v is None or isinstance(v, str))),
    "norms": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
}
# bench writes a null input when it synthesizes; fit always reads a file.
_FIT_TYPES = {**_CONFIG_TYPES, "input": _STRING}


class _ManifestConfig(dict):
    """A manifest's config.  A key the runner reads is a usage error when it
    is missing or holds another JSON type than the command writes."""

    def __init__(self, config: dict, types: dict) -> None:
        super().__init__(config)
        self._types = types

    def __missing__(self, key):
        raise UsageError(f"manifest config has no {key!r} entry")

    def __getitem__(self, key):
        value = super().__getitem__(key)
        name, ok = self._types[key]
        if not ok(value):
            raise UsageError(f"manifest config {key!r} must be {name}, got {json.dumps(value)}")
        return value


def cmd_rerun(ns: argparse.Namespace) -> int:
    manifest_path = Path(ns.manifest)
    with open(manifest_path, "r", encoding="ascii") as fh:
        try:
            manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise UsageError("manifest must be a JSON object")
    command = manifest.get("command")
    if command not in _RUNNERS:
        raise UsageError(f"manifest names unknown command {command!r}")
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise UsageError("manifest has no config object")
    out_dir = Path(ns.out) if ns.out else manifest_path.resolve().parent
    types = _FIT_TYPES if command == "fit" else _CONFIG_TYPES
    return _RUNNERS[command](_ManifestConfig(config, types), out_dir)


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repca",
        description="Robust PCA by reconstruction-error minimization.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"repca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate synthetic low-rank data with outliers")
    synth.add_argument("--m", type=int, required=True, help="ambient dimension (features)")
    synth.add_argument("--n", type=int, required=True, help="number of samples")
    synth.add_argument("--k-true", type=int, required=True, dest="k_true",
                       help="dimension of the true subspace")
    synth.add_argument("--noise", type=float, default=0.0, help="inlier noise sigma")
    synth.add_argument("--outlier-frac", type=float, default=0.0, dest="outlier_frac",
                       help="fraction of samples replaced by outliers, in [0, 1)")
    synth.add_argument("--outlier-scale", type=float, default=1.0, dest="outlier_scale",
                       help="standard deviation of outlier entries")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--header", action="store_true", help="write a header row to data.csv")
    synth.add_argument("--out", required=True, help="output directory")
    synth.set_defaults(func=cmd_synth)

    fit_p = sub.add_parser("fit", help="fit a projection to a data CSV")
    fit_p.add_argument("--input", required=True, help="data CSV, one sample per row")
    fit_p.add_argument("--k", type=int, required=True, help="subspace dimension")
    fit_p.add_argument("--norm", choices=("fro", "l1", "l2p"), default="l1",
                       help="reconstruction loss (fro solves vanilla PCA directly)")
    fit_p.add_argument("--p", type=float, default=None,
                       help="exponent for --norm l2p, in (0, 2] (default 1)")
    fit_p.add_argument("--solver", choices=VARIANTS, default="pgd")
    _add_solver_flags(fit_p)
    fit_p.add_argument("--no-center", action="store_true", dest="no_center",
                       help="input is already centered; fail if it is not")
    fit_p.add_argument("--header", action="store_true", help="skip a header row on load")
    fit_p.add_argument("--out", required=True, help="output directory")
    fit_p.set_defaults(func=cmd_fit)

    bench = sub.add_parser("bench", help="compare vanilla PCA with the robust solvers")
    bench.add_argument("--input", default=None, help="data CSV; omit to synthesize per repeat")
    bench.add_argument("--w-true", default=None, dest="w_true",
                       help="CSV of the true basis, for angle reporting with --input")
    bench.add_argument("--m", type=int, default=None)
    bench.add_argument("--n", type=int, default=None)
    bench.add_argument("--k-true", type=int, default=None, dest="k_true")
    bench.add_argument("--noise", type=float, default=0.0)
    bench.add_argument("--outlier-frac", type=float, default=0.0, dest="outlier_frac")
    bench.add_argument("--outlier-scale", type=float, default=1.0, dest="outlier_scale")
    bench.add_argument("--k", type=int, default=None,
                       help="fitted dimension (defaults to --k-true when synthesizing)")
    bench.add_argument("--norm", choices=("l1", "l2p"), action="append",
                       help="robust loss to benchmark; repeatable (default l1)")
    bench.add_argument("--p", type=float, default=None, help="exponent for l2p (default 1)")
    bench.add_argument("--repeats", type=int, default=1,
                       help="independent repeats; repeat i uses seed + i")
    _add_solver_flags(bench)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--no-center", action="store_true", dest="no_center")
    bench.add_argument("--header", action="store_true")
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    rerun = sub.add_parser("rerun", help="reproduce a previous run from its manifest")
    rerun.add_argument("--manifest", required=True, help="path to a manifest.json")
    rerun.add_argument("--out", default=None,
                       help="output directory (default: the manifest's directory)")
    rerun.set_defaults(func=cmd_rerun)
    return parser


def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--max-iter", type=int, default=500, dest="max_iter",
                    help="iteration cap (default 500)")
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="relative objective-change stopping threshold (default 1e-8)")
    sp.add_argument("--eps", type=float, default=1e-10,
                    help="residual-norm clamp for the weight denominators (default 1e-10)")
    sp.add_argument("--init", choices=INITS, default="vanilla",
                    help="starting basis: vanilla PCA or a seeded random orthonormal matrix")
    if sp.prog.endswith("fit"):
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for --init random")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return ns.func(ns)
    except (UsageError, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CsvParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
