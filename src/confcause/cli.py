"""Command-line front end.

Subcommands cover the full workflow: ``learn`` a causal model from a table
plus role map, ``diagnose`` one faulty objective (causal method or the
correlation baseline), ``rank`` paths for every objective, ``synth`` a
ground-truth system to disk, ``eval`` a prediction against ground truth,
and ``bench`` the twenty-fault comparison study.

Every JSON file is written with sorted keys and atomically; ``synth`` writes
its table and roles file in place with ``Dataset.save``. A fixed seed yields
byte-identical artifacts. Exit codes: 0 success, 2 invalid input, 3 empty
result, 4 internal failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from pathlib import Path
from typing import Sequence

from . import __version__
from .cbi import cbi_rank, cbi_root_causes, fault_labels_for
from .dataset import Role, _as_text, _parse_roles, load_dataset
from .effects import Diagnosis, ModelParams, cpwe, diagnose, learn_model
from .errors import EmptyResultError, EngineError, InputError
from .resolve import Admg
from .synthbench import (
    GroundTruth,
    curate_ground_truth,
    evaluate,
    generate_scm,
    run_benchmark,
    sample,
    transfer_series,
)

logger = logging.getLogger(__name__)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_json(path: Path, payload: object) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(
        alpha=args.alpha,
        max_cond_size=args.max_cond_size,
        theta_ratio=args.theta_ratio,
        bins=args.bins,
    )


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="significance level for independence tests")
    parser.add_argument("--max-cond-size", type=int, default=3,
                        help="largest conditioning set searched")
    parser.add_argument("--theta-ratio", type=float, default=0.8,
                        help="latent-entropy threshold ratio for edge resolution")
    parser.add_argument("--bins", type=int, default=5,
                        help="bins for discretizing continuous variables")


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="CSV table of samples")
    parser.add_argument("--roles", required=True,
                        help="JSON mapping variable -> {role, kind}")


def _add_model_file_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model",
                        help="model.json saved by learn: skips the structure "
                             "search, so --alpha, --max-cond-size and "
                             "--theta-ratio do not apply")


def _load(args: argparse.Namespace):
    return load_dataset(Path(args.data), Path(args.roles))


def _model(args: argparse.Namespace, ds) -> Admg:
    """The model saved at ``--model``, checked against the table, or else
    one learned from the table."""
    if args.model is None:
        return learn_model(ds, _params(args))[1]
    payload = _read_json_object(args.model)
    try:
        admg = Admg.from_json_dict(payload)
    except (KeyError, TypeError, ValueError, EngineError) as exc:
        raise InputError(f"{args.model!r} is not a valid model: {exc!r}",
                         path=args.model) from exc
    # a model file carries no domain, so compare as Dataset.schema() does
    model = {(v.name, v.role.value, v.kind.value) for v in admg.vertices}
    table = set(ds.schema())
    if model != table:
        raise InputError(
            f"{args.model!r} does not model this table: its vertices differ "
            f"from the columns in name, role or kind",
            path=args.model,
            model_only=sorted(name for name, _, _ in model - table),
            table_only=sorted(name for name, _, _ in table - model),
        )
    return admg


def cmd_learn(args: argparse.Namespace) -> int:
    ds = _load(args)
    pag, admg = learn_model(ds, _params(args))
    out = Path(args.out)
    _write_json(out / "pag.json", pag.to_json_dict())
    _write_json(out / "model.json", admg.to_json_dict())
    _write_atomic(out / "model.dot", admg.to_dot())
    print(f"learned model over {len(admg.vertices)} variables: "
          f"{len(admg.directed)} directed, {len(admg.bidirected)} bidirected "
          f"edges -> {out}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    ds = _load(args)
    if args.method == "cbi":
        if args.model is not None:
            raise InputError("--model applies to the causal method only",
                             path=args.model)
        labels = fault_labels_for(ds, args.objective)
        ranking = cbi_rank(ds, labels, ci_level=args.ci_level)
        causes = cbi_root_causes(ranking, args.top_k)
        payload = {
            "method": "cbi",
            "objective": args.objective,
            "ranking": [
                {"option": name, "importance": score} for name, score in ranking
            ],
            "root_causes": causes,
        }
        lines = [
            f"{i + 1:>3}. {name}  importance={score:.6f}"
            for i, (name, score) in enumerate(ranking[: args.top_k])
        ]
    else:
        admg = _model(args, ds)
        result = diagnose(ds, admg, args.objective, top_k=args.top_k,
                          bins=args.bins)
        payload = result.to_json_dict()
        lines = [
            f"{i + 1:>3}. score={p.path_ace:.6f}  " + " -> ".join(p.vertices)
            for i, p in enumerate(result.ranked_paths)
        ]
        lines.append("root causes: " + ", ".join(result.root_causes))
    if args.out:
        _write_json(Path(args.out), payload)
    print(f"diagnosis for {args.objective} ({args.method}):")
    for line in lines:
        print(line)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    ds = _load(args)
    admg = _model(args, ds)
    results = cpwe(ds, admg, top_k=args.top_k, bins=args.bins)
    if all(not d.ranked_paths for d in results.values()):
        raise EmptyResultError("no causal paths found for any objective")
    payload = {
        objective: diag.to_json_dict() for objective, diag in sorted(results.items())
    }
    if args.out:
        _write_json(Path(args.out), payload)
    for objective, diag in sorted(results.items()):
        print(f"{objective}: "
              + (", ".join(diag.root_causes) if diag.root_causes else "(no paths)"))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    scm = generate_scm(
        args.options, args.metrics, args.objectives,
        density=args.density, noise_scale=args.noise_scale, seed=args.seed,
        n_latents=args.latents, boolean_objectives=args.boolean_objectives,
    )
    ds = sample(scm, args.rows)
    truth = curate_ground_truth(scm, ds)
    out = Path(args.out)
    _write_json(out / "scm.json", scm.to_json_dict())
    _write_json(out / "truth.json", truth.to_json_dict())
    out.mkdir(parents=True, exist_ok=True)
    ds.save(out / "data.csv", out / "roles.json")
    print(f"wrote {args.rows} samples of {len(scm.variables)} variables -> {out}")
    return 0


def _read_json_object(path: str) -> dict:
    try:
        payload = json.loads(_as_text(Path(path)))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path!r} is not valid JSON: {exc}", path=path) from exc
    if not isinstance(payload, dict):
        raise InputError(f"{path!r} must hold a JSON object", path=path)
    return payload


def cmd_eval(args: argparse.Namespace) -> int:
    pred_payload = _read_json_object(args.pred)
    truth = GroundTruth.from_json_dict(_read_json_object(args.truth))
    roles = _parse_roles(_as_text(Path(args.roles)))
    options = sorted(name for name, (role, _) in roles.items() if role == Role.OPTION)
    if "objective" not in pred_payload:
        raise InputError("prediction file lacks an 'objective' field", path=args.pred)
    causes = pred_payload.get("root_causes", [])
    if not (isinstance(causes, list) and all(isinstance(c, str) for c in causes)):
        raise InputError(f"{args.pred!r}: 'root_causes' must be a list of names",
                         path=args.pred)
    pred = Diagnosis(pred_payload["objective"], (), tuple(causes))
    # path scores double as per-option effect sizes for the rank-weighted RMSE
    ace_values: dict[str, float] = {}
    paths = pred_payload.get("paths", [])
    if not isinstance(paths, list):
        raise InputError(f"{args.pred!r}: 'paths' must be a list", path=args.pred)
    for i, path in enumerate(paths):
        try:
            origin = path["vertices"][0]
            score = float(path["path_ace"])
            ace_values[origin] = max(score, ace_values.get(origin, 0.0))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise InputError(
                f"{args.pred!r}: paths[{i}] needs a non-empty 'vertices' list "
                f"and a numeric 'path_ace'", path=args.pred, index=i,
            ) from exc
    report = evaluate(pred, truth, options, ace_values)
    payload = report.to_json_dict()
    if args.out:
        _write_json(Path(args.out), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    report = run_benchmark(
        seed=args.seed, n_scms=args.scms, n_rows=args.rows,
        params=_params(args), top_k=args.top_k,
    )
    series = transfer_series(seed=args.seed, params=_params(args))
    payload = report.to_json_dict()
    payload["transfer_rmse"] = series
    if args.out:
        _write_json(Path(args.out), payload)
    care, cbi = report.totals("care"), report.totals("cbi")
    print(f"{len(report.outcomes)} faults | causal method: "
          f"precision={care['precision']:.3f} recall={care['recall']:.3f} "
          f"f1={care['f1']:.3f} fp={care['fp']}")
    print(f"{'':>9} | baseline:      "
          f"precision={cbi['precision']:.3f} recall={cbi['recall']:.3f} "
          f"f1={cbi['f1']:.3f} fp={cbi['fp']}")
    print("transfer rmse: " + ", ".join(f"{v:.4f}" for v in series))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confcause",
        description="causal root-cause analysis for system configurations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="learn a causal model from samples")
    _add_data_flags(p_learn)
    _add_model_flags(p_learn)
    p_learn.add_argument("--out", required=True, help="output directory")
    p_learn.set_defaults(func=cmd_learn)

    p_diag = sub.add_parser("diagnose", help="rank root causes of one objective")
    _add_data_flags(p_diag)
    _add_model_flags(p_diag)
    _add_model_file_flag(p_diag)
    p_diag.add_argument("--objective", required=True)
    p_diag.add_argument("--method", choices=("care", "cbi"), default="care")
    p_diag.add_argument("--top-k", type=int, default=4)
    p_diag.add_argument("--ci-level", type=float, default=0.95,
                        help="confidence level for the baseline's filter")
    p_diag.add_argument("--out", help="write the diagnosis JSON here")
    p_diag.set_defaults(func=cmd_diagnose)

    p_rank = sub.add_parser("rank", help="rank causal paths for all objectives")
    _add_data_flags(p_rank)
    _add_model_flags(p_rank)
    _add_model_file_flag(p_rank)
    p_rank.add_argument("--top-k", type=int, default=4)
    p_rank.add_argument("--out", help="write the ranking JSON here")
    p_rank.set_defaults(func=cmd_rank)

    p_synth = sub.add_parser("synth", help="generate a synthetic ground-truth system")
    p_synth.add_argument("--options", type=int, default=3)
    p_synth.add_argument("--metrics", type=int, default=5)
    p_synth.add_argument("--objectives", type=int, default=2)
    p_synth.add_argument("--density", type=float, default=0.4)
    p_synth.add_argument("--noise-scale", type=float, default=1.0)
    p_synth.add_argument("--latents", type=int, default=0)
    p_synth.add_argument("--boolean-objectives", type=int, default=0)
    p_synth.add_argument("--rows", type=int, default=10000)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score a prediction against ground truth")
    p_eval.add_argument("--pred", required=True, help="diagnosis JSON")
    p_eval.add_argument("--truth", required=True, help="ground-truth JSON")
    p_eval.add_argument("--roles", required=True, help="role map JSON")
    p_eval.add_argument("--out", help="write the report JSON here")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="run the multi-fault comparison study")
    _add_model_flags(p_bench)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--scms", type=int, default=10)
    p_bench.add_argument("--rows", type=int, default=1600)
    p_bench.add_argument("--top-k", type=int, default=4)
    p_bench.add_argument("--out", help="write the full report JSON here")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        level = os.environ.get("CONFCAUSE_LOG_LEVEL", "WARNING")
        if not isinstance(logging.getLevelName(level), int):  # known names map to numbers
            raise InputError(f"CONFCAUSE_LOG_LEVEL {level!r} is not a level name, "
                             "such as DEBUG, INFO or WARNING", level=level)
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except Exception as err:
        # one error object for every failure: the class, the message and
        # an EngineError's details
        if isinstance(err, EngineError):
            payload, code = err.to_json_dict(), err.exit_code
        else:
            if not isinstance(err, OSError):
                logger.exception("unexpected failure")
            payload = {"error": type(err).__name__, "message": str(err)}
            code = 2 if isinstance(err, OSError) else 4
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
