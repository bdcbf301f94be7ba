"""Command-line interface: synth, fit, bench, rerun.

Each command turns its flags into one frozen job (``SynthJob``, ``FitJob``
or ``BenchJob``) and hands it to that command's runner.  A job holds the
library's own spec objects (``SynthSpec``, ``NormSpec``, ``SolverConfig``),
whose constructors check every value; the job's ``__post_init__`` checks
the few rules that span several flags, and ``_check_k`` checks k against
the loaded data by ``fit``'s own rule.

Every command writes a ``manifest.json`` whose ``config`` is the job as
nested JSON (``dataclasses.asdict``: ``spec``, ``norm``/``norms`` and
``solver`` are objects of their own).  ``repca rerun --manifest <path>``
rebuilds the same job from it, checking each value's JSON type against the
field's annotation, so a rerun passes the same constructors and the same
checks as the command did.  All numeric outputs are deterministic given
the manifest; only the recorded wall times vary between runs.

Exit codes: 0 on success, 1 on runtime or I/O failures (unreadable or
malformed files), 2 on bad flags, flag combinations or manifests.
"""
from __future__ import annotations

import argparse
import json
import sys
import types
import typing
from collections import defaultdict
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .csvio import FLOAT_FORMAT, read_matrix_csv, write_mask_csv, write_matrix_csv
from .datagen import SynthSpec, synth_subspace
from .errors import CsvParseError, DimensionMismatch, InvalidSpec
from .linalg import DataMatrix, Projection, center_columns
from .metrics import evaluate
from .objectives import NormSpec
from .solvers import INITS, VARIANTS, FitResult, SolverConfig, _check_fit_args, fit

_EPILOG = """\
file formats:
  Data CSVs hold one sample per row and one feature per column; they are
  transposed on load so samples become columns internally.  Projection
  CSVs hold one feature per row and one component per column.  Values
  carry 17 significant digits and round-trip exactly.  Input CSVs are
  ASCII and comma-separated; blank and whitespace-only lines are skipped,
  spaces around a field are allowed, and fields use Python's float
  syntax, nan and inf included.  Errors name the file and the 1-based
  line.

reproducing a run:
  repca rerun --manifest OUT/manifest.json --out NEWDIR
"""

SUMMARY_HEADER = "solver,norm,p,final_objective,iterations,wall_time_ms,max_angle_rad"


class UsageError(Exception):
    """Bad flag value or combination; maps to exit code 2."""


# ----------------------------------------------------------------- jobs


@dataclass(frozen=True)
class SynthJob:
    spec: SynthSpec
    header: bool


@dataclass(frozen=True)
class FitJob:
    input: str
    k: int
    norm: NormSpec
    solver: SolverConfig
    center: bool
    header: bool

    def __post_init__(self) -> None:
        if self.k < 1:
            raise UsageError(f"k must be at least 1, got {self.k}")


@dataclass(frozen=True)
class BenchJob:
    """Repeat i fits data drawn from ``spec`` with seed spec.seed + i, or the
    ``input`` file every time, and seeds random inits with solver.seed + i.
    Every variant runs, so solver.variant stays "pgd"; with ``spec``, one
    --seed sets both seeds, so they must agree."""

    k: int
    norms: tuple[NormSpec, ...]
    repeats: int
    solver: SolverConfig
    spec: SynthSpec | None
    input: str | None
    w_true: str | None
    center: bool
    header: bool

    def __post_init__(self) -> None:
        if self.k < 1:
            raise UsageError(f"k must be at least 1, got {self.k}")
        if self.repeats < 1:
            raise UsageError(f"repeats must be at least 1, got {self.repeats}")
        if len({norm.kind for norm in self.norms}) < len(self.norms):
            raise UsageError("bench takes each norm kind at most once")
        if self.solver.variant != "pgd":
            raise UsageError(f"bench runs every variant; solver.variant must be 'pgd', "
                             f"got {self.solver.variant!r}")
        if self.spec is not None and self.solver.seed != self.spec.seed:
            raise UsageError(f"solver.seed must equal spec.seed {self.spec.seed}, got {self.solver.seed}")
        if (self.spec is None) == (self.input is None):
            raise UsageError("bench takes exactly one of an input file and a synthesis spec")
        if self.w_true is not None and self.input is None:
            raise UsageError("--w-true needs --input")


def _check_k(data: DataMatrix, k: int, norm: NormSpec, solver: SolverConfig) -> None:
    """``fit``'s own k range for the loaded data; out of it is a usage error."""
    try:
        _check_fit_args(data, k, norm, solver)
    except DimensionMismatch as exc:
        raise UsageError(str(exc)) from exc


_JSON_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _from_json(hint, value, path: str = ""):
    """Rebuild a value of type ``hint`` from the JSON ``asdict`` made of it.

    A dataclass comes from an object holding exactly its fields,
    ``X | None`` from null or an X, ``tuple[X, ...]`` from a list, and a
    scalar from the JSON type ``json.dump`` writes for it, except that a
    float field also takes an integer (a bool is neither).  Constructors
    then check the values themselves.
    """
    where = f"manifest config {path!r}" if path else "manifest config"
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise UsageError(f"{where} must be an object, got {json.dumps(value)}")
        names = [f.name for f in fields(hint)]
        unknown = sorted(set(value) - set(names))
        if unknown:
            raise UsageError(f"{where} has an unknown entry {unknown[0]!r}")
        hints = typing.get_type_hints(hint)
        args = {}
        for name in names:
            sub = f"{path}.{name}" if path else name
            if name not in value:
                raise UsageError(f"manifest config has no {sub!r} entry")
            args[name] = _from_json(hints[name], value[name], sub)
        return hint(**args)
    origin = typing.get_origin(hint)
    if origin is tuple:
        if not isinstance(value, list):
            raise UsageError(f"{where} must be a list, got {json.dumps(value)}")
        item = typing.get_args(hint)[0]
        return tuple(_from_json(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (inner,) = [a for a in typing.get_args(hint) if a is not type(None)]
        return _from_json(inner, value, path)
    if hint is float and type(value) is int:  # past the float range: inf, as json reads 1e400
        big = abs(value) > sys.float_info.max
        value = float(("-inf" if value < 0 else "inf") if big else value)
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, hint):
        raise UsageError(f"{where} must be {_JSON_NAMES[hint]}, got {json.dumps(value)}")
    return value


# --------------------------------------------------------------- output


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, job, inputs: dict, outputs: list[str]) -> None:
    _write_json(
        out_dir / "manifest.json",
        {
            "tool": "repca",
            "version": __version__,
            "command": command,
            "config": asdict(job),
            "inputs": inputs,
            "outputs": sorted([*outputs, "manifest.json"]),
            "seed": (job.spec if isinstance(job, SynthJob) else job.solver).seed,
        },
    )


def _load_data(job: FitJob | BenchJob) -> DataMatrix:
    arr = read_matrix_csv(job.input, skip_header=job.header)
    # without centering, the caller asserts the file is centered; DataMatrix verifies it
    return center_columns(DataMatrix(arr.T))[0] if job.center else DataMatrix(arr.T, centered=True)


def _trace_record(solver: str, norm: NormSpec, result: FitResult) -> dict:
    return {
        "solver": solver,
        "norm": norm.kind,
        "p": norm.p,
        "objective": [float(v) for v in result.objective_trace],
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "monotone_violations": int(result.monotone_violations),
        "wall_time_ms": float(result.wall_time_ms),
    }


def _report_record(solver: str, norm: NormSpec, result: FitResult, report) -> dict:
    angles = None if report.angles_rad is None else [float(a) for a in report.angles_rad]
    return {"solver": solver, "norm": norm.kind, "p": norm.p, **asdict(report),
            "angles_rad": angles, "iterations": result.iterations,
            "wall_time_ms": result.wall_time_ms, "max_angle_rad": report.max_angle_rad}


# ---------------------------------------------------------------- flags


def _synth_spec(ns: argparse.Namespace) -> SynthSpec:
    return SynthSpec(
        m=ns.m, n=ns.n, k_true=ns.k_true, noise_sigma=ns.noise,
        outlier_frac=ns.outlier_frac, outlier_scale=ns.outlier_scale, seed=ns.seed,
    )


def _solver_config(ns: argparse.Namespace, variant: str) -> SolverConfig:
    return SolverConfig(variant=variant, max_iter=ns.max_iter, tol=ns.tol,
                        eps=ns.eps, init=ns.init, seed=ns.seed)


def _norms(kinds: list[str], p: float | None) -> tuple[NormSpec, ...]:
    """One NormSpec per distinct --norm.  --p is the l2p exponent (default
    1); given without l2p it goes to every kind, and NormSpec rejects it."""
    has_l2p = "l2p" in kinds
    if has_l2p and p is None:
        p = 1.0
    return tuple(NormSpec(kind, p if kind == "l2p" or not has_l2p else None)
                 for kind in dict.fromkeys(kinds))


def _resolved(path: str | None) -> str | None:
    return None if path is None else str(Path(path).resolve())


# ---------------------------------------------------------------- synth


def _run_synth(job: SynthJob, out_dir: Path) -> int:
    spec = job.spec
    data, basis, mask = synth_subspace(spec)
    header = [f"f{i}" for i in range(spec.m)] if job.header else None
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "data.csv", data.values.T, header=header)
    write_matrix_csv(out_dir / "w_true.csv", basis.values)
    write_mask_csv(out_dir / "outlier_mask.csv", mask)
    _write_manifest(out_dir, "synth", job, {}, ["data.csv", "w_true.csv", "outlier_mask.csv"])
    print(f"wrote {out_dir}/data.csv ({spec.n} samples x {spec.m} features, "
          f"{spec.outlier_count} outliers)")
    return 0


def cmd_synth(ns: argparse.Namespace) -> int:
    return _run_synth(SynthJob(_synth_spec(ns), ns.header), Path(ns.out))


# ------------------------------------------------------------------ fit


def _run_fit(job: FitJob, out_dir: Path) -> int:
    data = _load_data(job)
    _check_k(data, job.k, job.norm, job.solver)
    result = fit(data, job.k, job.norm, job.solver)
    solver = "vanilla" if job.norm.kind == "fro" else job.solver.variant
    record = _trace_record(solver, job.norm, result)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "w.csv", result.projection.values)
    _write_json(out_dir / "trace.json", record)
    _write_manifest(out_dir, "fit", job, {"data": job.input}, ["w.csv", "trace.json"])
    print(f"wrote {out_dir}/w.csv ({data.shape[0]} x {job.k}); final objective "
          f"{record['objective'][-1]:.6g} after {record['iterations']} iterations")
    return 0


def cmd_fit(ns: argparse.Namespace) -> int:
    (norm,) = _norms([ns.norm], ns.p)
    job = FitJob(input=_resolved(ns.input), k=ns.k, norm=norm, solver=_solver_config(ns, ns.solver),
                 center=not ns.no_center, header=ns.header)
    return _run_fit(job, Path(ns.out))


# ---------------------------------------------------------------- bench


def _bench_once(data: DataMatrix, reference, job: BenchJob, repeat: int) -> list[tuple]:
    """One repeat: (solver, norm, result, report) for vanilla PCA, then for
    each robust solver per requested norm.  Angles are measured to
    ``reference``, or to the vanilla basis when there is none."""
    fro = NormSpec.fro()
    van = fit(data, job.k, fro, job.solver)
    ref = reference if reference is not None else van.projection
    runs = [("vanilla", fro, van, evaluate(data, van.projection, ref, fro))]
    for norm in job.norms:
        for variant in VARIANTS:
            config = replace(job.solver, variant=variant, seed=job.solver.seed + repeat)
            result = fit(data, job.k, norm, config)
            runs.append((variant, norm, result, evaluate(data, result.projection, ref, norm)))
    return runs


def _run_bench(job: BenchJob, out_dir: Path) -> int:
    traces: list[dict] = []
    reports: list[dict] = []
    rows: dict = defaultdict(list)
    wins: dict = defaultdict(int)
    if job.input is not None:
        data = _load_data(job)
        reference = None if job.w_true is None else Projection(read_matrix_csv(job.w_true))
    for repeat in range(job.repeats):
        if job.spec is not None:
            data, reference, _ = synth_subspace(replace(job.spec, seed=job.spec.seed + repeat))
        _check_k(data, job.k, NormSpec.fro(), job.solver)
        runs = _bench_once(data, reference, job, repeat)
        van_angle = runs[0][3].max_angle_rad
        for solver, norm, result, rep in runs:
            traces.append({"repeat": repeat, **_trace_record(solver, norm, result)})
            reports.append({"repeat": repeat, **_report_record(solver, norm, result, rep)})
            rows[(solver, norm.kind, norm.p)].append(
                (result.objective_trace[-1], result.iterations, result.wall_time_ms, rep.max_angle_rad))
            if solver != "vanilla":
                wins[f"{solver}:{norm.kind}"] += rep.max_angle_rad < van_angle

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

    outputs = ["reports.json", "traces.json", "summary.csv"]
    if job.spec is not None or job.w_true is not None:
        fractions = {key: count / job.repeats for key, count in wins.items()}
        _write_json(out_dir / "wins.json", {
            "repeats": job.repeats,
            "reference": "w_true",
            "beats_vanilla_fraction": fractions,
        })
        outputs.append("wins.json")
        for key in sorted(fractions):
            print(f"{key} beats vanilla on angle to the true basis in "
                  f"{fractions[key]:.0%} of {job.repeats} runs")
    inputs = {name: path for name, path in (("data", job.input), ("w_true", job.w_true))
              if path is not None}
    _write_manifest(out_dir, "bench", job, inputs, outputs)
    print(f"wrote {out_dir}/summary.csv")
    return 0


def cmd_bench(ns: argparse.Namespace) -> int:
    spec = None
    if ns.input is None:
        for flag, value in (("--m", ns.m), ("--n", ns.n), ("--k-true", ns.k_true)):
            if value is None:
                raise UsageError(f"{flag} is required when --input is not given")
        spec = _synth_spec(ns)
    k = ns.k if ns.k is not None or spec is None else spec.k_true
    if k is None:
        raise UsageError("--k is required when --input is given")
    job = BenchJob(
        k=k, norms=_norms(ns.norm or ["l1"], ns.p), repeats=ns.repeats,
        solver=_solver_config(ns, "pgd"), spec=spec,
        input=_resolved(ns.input), w_true=_resolved(ns.w_true),
        center=not ns.no_center, header=ns.header,
    )
    return _run_bench(job, Path(ns.out))


# ---------------------------------------------------------------- rerun

_COMMANDS = {
    "synth": (SynthJob, _run_synth), "fit": (FitJob, _run_fit), "bench": (BenchJob, _run_bench),
}


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
    if not isinstance(command, str) or command not in _COMMANDS:
        raise UsageError(f"manifest names unknown command {command!r}")
    job_type, run = _COMMANDS[command]
    job = _from_json(job_type, manifest.get("config"))
    out_dir = Path(ns.out) if ns.out else manifest_path.resolve().parent
    return run(job, out_dir)


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
    _add_spec_flags(synth, required=True)
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
    _add_spec_flags(bench, required=False)
    bench.add_argument("--k", type=int, default=None,
                       help="fitted dimension (defaults to --k-true when synthesizing)")
    bench.add_argument("--norm", choices=("l1", "l2p"), action="append",
                       help="robust loss to benchmark; repeatable (default l1)")
    bench.add_argument("--p", type=float, default=None, help="exponent for l2p (default 1)")
    bench.add_argument("--repeats", type=int, default=1,
                       help="independent repeats; repeat i uses seed + i")
    _add_solver_flags(bench)
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


def _add_spec_flags(sp: argparse.ArgumentParser, required: bool) -> None:
    """The ``SynthSpec`` flags; --m, --n and --k-true are required or default to None."""
    sp.add_argument("--m", type=int, required=required, help="ambient dimension (features)")
    sp.add_argument("--n", type=int, required=required, help="number of samples")
    sp.add_argument("--k-true", type=int, required=required, dest="k_true",
                    help="dimension of the true subspace")
    sp.add_argument("--noise", type=float, default=0.0, help="inlier noise sigma")
    sp.add_argument("--outlier-frac", type=float, default=0.0, dest="outlier_frac",
                    help="fraction of samples replaced by outliers, in [0, 1)")
    sp.add_argument("--outlier-scale", type=float, default=1.0, dest="outlier_scale",
                    help="standard deviation of outlier entries")


def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--max-iter", type=int, default=500, dest="max_iter",
                    help="iteration cap (default 500)")
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="relative objective-change stopping threshold (default 1e-8)")
    sp.add_argument("--eps", type=float, default=1e-10,
                    help="residual-norm clamp for the weight denominators (default 1e-10)")
    sp.add_argument("--init", choices=INITS, default="vanilla",
                    help="starting basis: vanilla PCA or a seeded random orthonormal matrix")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for --init random (bench: and for synthesis; repeat i adds i)")


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
    except (CsvParseError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
