"""Command-line front end wiring scenes, training, inference, and evaluation.

Verbs: synth, train, predict, eval, compare, sweep-labels, verify.
Config files are line-oriented key=value text; every hyperparameter can be
overridden by the flag of the same name. Exit codes: 0 ok, 1 verification or
evaluation failure, 2 usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import gmm, hmt, metrics
from .errors import DataError, FloodemError, InitError, IoError, SpecError
from .grid import (
    LabelSet,
    RasterScene,
    SceneSpec,
    generate_scene,
    listed,
    load_labels,
    load_scene,
    natural,
    read_settings,
    sample_labels,
    save_labels,
    save_scene,
    setting,
    write_lines,
)

METHODS = ("gmm", "gmm-elev", "hmt")
VERBS = ("synth", "train", "predict", "eval", "compare", "sweep-labels", "verify")


def name(val: str) -> str:
    """The cast of eval's method name, a CSV field and part of a file name: ASCII letters, digits, '._-'."""
    if not re.fullmatch(r"[A-Za-z0-9._-]+", val):
        raise ValueError(f"{val!r} is not a method name")
    return val


def fraction(val: str) -> float:
    """The cast of a label ratio, which must lie in (0, 1]."""
    p = float(val)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"{val!r} is not in (0, 1]")
    return p


@dataclass
class RunConfig:
    """Hyperparameters and I/O paths of one run."""

    method: str = setting("gmm", str, choices=METHODS)
    scene: str | None = setting(None, str)
    labels: str | None = setting(None, str, "label file (row,col,class lines)")
    ratio: float | None = setting(None, fraction, "labeled fraction to sample")
    seed: int = setting(0, natural, "label sampling seed")
    tol: float = setting(1e-5, float, "convergence threshold (default 1e-5)")
    rho: float = setting(0.99, float, "initial transition strength (default 0.99)")
    pi: float = setting(0.5, float, "initial flood prior (default 0.5)")
    neighborhood: int = setting(8, int, choices=(4, 8))
    max_iter: int = setting(100, int)
    out: str = setting(".", str, "output directory")


_SETTINGS = {f.name: f.metadata for f in fields(RunConfig)}


def load_config(path: str) -> dict:
    """Parse a key=value config file, each value checked as its flag is;
    unknown keys and bad values carry line numbers."""
    return read_settings(path, "config", RunConfig, SpecError)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The run settings: those named in the config file or by a flag, flags
    winning, and the defaults for the rest."""
    given = load_config(args.config) if getattr(args, "config", None) else {}
    for key in _SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = flag
    return RunConfig(**given)


def parse_scene_spec(path: str) -> SceneSpec:
    """Build a SceneSpec from a key=value file whose keys are its fields; a
    value out of range, or a pair given by half, is an error naming ``path``."""
    given = read_settings(path, "spec", SceneSpec, SpecError)
    try:
        return SceneSpec(**given)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None


# --- grid files: single-channel scenes holding a prediction or score plane ---


def _save_grid(values: np.ndarray, path: str) -> None:
    values = np.asarray(values, dtype=float)[None]
    save_scene(RasterScene(width=values.shape[2], height=values.shape[1], channels=1, data=values), path)


def _load_grid(path: str) -> np.ndarray:
    scene = load_scene(path)
    if scene.channels != 1:
        raise DataError(f"{path}: expected a single-channel grid, found {scene.channels} channels")
    return scene.data[0]


def _load_run_scene(path: str | None, parser: argparse.ArgumentParser, *, truth: bool = False) -> RasterScene:
    """The scene at ``path``, which the verb requires; ``truth`` demands its truth grid."""
    if path is None:
        parser.error("--scene is required")
    scene = load_scene(path)
    if truth and scene.truth is None:
        raise DataError(f"{path}: scene has no truth grid")
    return scene


def _resolve_labels(scene: RasterScene, cfg: RunConfig, parser: argparse.ArgumentParser) -> LabelSet:
    if cfg.labels:
        return load_labels(cfg.labels)
    if cfg.ratio is not None:
        return sample_labels(scene, cfg.ratio, rng_seed=cfg.seed)
    parser.error("either --labels or --ratio is required")


def _train(method: str, scene: RasterScene, labels: LabelSet, cfg: RunConfig, run: str = ""):
    """(model, trace) of ``method``; warns on stderr, naming the method and ``run``,
    when EM stops at the iteration cap rather than at ``tol``."""
    if method in ("gmm", "gmm-elev"):
        fit = gmm.em_fit(scene, labels, use_elevation=method == "gmm-elev", max_iter=cfg.max_iter,
                         tol=cfg.tol)
    else:
        fit = hmt.em_fit(scene, labels, max_iter=cfg.max_iter, tol=cfg.tol, rho_init=cfg.rho,
                         pi_init=cfg.pi, neighborhood=cfg.neighborhood)
    trace = fit[1]
    if trace.stop_reason == "max_iter":
        print(f"warning: {method}{run}: EM stopped at the {cfg.max_iter}-iteration cap before "
              f"converging; final max relative change {trace.max_rel_changes[-1]:.3g} "
              f"(tol {cfg.tol:g})", file=sys.stderr)
    return fit


def _predict(model, scene: RasterScene) -> tuple[np.ndarray, np.ndarray]:
    """(class grid, flood-score grid) of either model family: `hmt.predict` on its forest."""
    # This test only picks a name: perfbench times a mixture's prediction as gmm.score_grid (ROADMAP 1c).
    if not isinstance(model, hmt.HmtModel):
        return gmm.score_grid(model, scene)
    grids = hmt.predict(model, model.forest(scene), scene.feature_matrix(model.use_elevation))
    return tuple(g.reshape(scene.height, scene.width) for g in grids)


def _evaluate(pred: np.ndarray, scores: np.ndarray, truth: np.ndarray, mask: np.ndarray | None,
              neighborhood: int):
    report = metrics.class_report(pred, truth, mask)
    curve = metrics.roc_auc(scores, truth, mask)
    # Salt-and-pepper is counted over the full prediction grid, not the mask.
    noise = metrics.salt_pepper_count(pred, neighborhood)
    return report, curve, noise


def _out_path(cfg_out: str, name: str) -> str:
    try:
        os.makedirs(cfg_out, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {cfg_out}: {exc}") from exc
    return os.path.join(cfg_out, name)


# --- stages: each is the only writer of its files, and makes their paths before it starts ---


def _fit(method: str, scene: RasterScene, labels: LabelSet, cfg: RunConfig, tag: str = ""):
    """`_train`, writing model{tag}.txt and trace{tag}.csv; (model, trace, their paths)."""
    paths = _out_path(cfg.out, f"model{tag}.txt"), _out_path(cfg.out, f"trace{tag}.csv")
    model, trace = _train(method, scene, labels, cfg)
    hmt.save_model(model, paths[0])
    trace.to_csv(paths[1])
    return model, trace, paths


def _grids(model, scene: RasterScene, out: str, tag: str = ""):
    """`_predict`, writing pred{tag}.sgrid and score{tag}.sgrid; (classes, scores, their paths)."""
    paths = _out_path(out, f"pred{tag}.sgrid"), _out_path(out, f"score{tag}.sgrid")
    classes, scores = _predict(model, scene)
    _save_grid(classes, paths[0])
    _save_grid(scores, paths[1])
    return classes, scores, paths


def _score(name: str, pred, scores, truth, mask, cfg: RunConfig) -> tuple[str, str, str]:
    """`_evaluate`, writing roc_{name}.csv and printing the summary line; ``name``'s
    rows of the report's three blocks: the dry and flood lines, AUC, salt-and-pepper."""
    roc_path = _out_path(cfg.out, f"roc_{name}.csv")
    report, curve, noise = _evaluate(pred, scores, truth, mask, cfg.neighborhood)
    metrics.write_roc_csv(curve, roc_path)
    print(f"{name}: avg F {report.avg_f:.4f}, AUC {curve.auc:.4f}, salt-and-pepper {noise}")
    class_rows = "\n".join(f"{name},{cls},{s.precision:.6f},{s.recall:.6f},{s.f1:.6f}"
                           for cls, s in zip(("dry", "flood"), report.classes))
    return class_rows, f"{name},{curve.auc:.6f}", f"{name},{noise}"


def _write_report(path: str, rows: list[tuple[str, str, str]]) -> None:
    """The report of eval and compare: each block's header, then every method's `_score` rows."""
    headers = ("method,class,precision,recall,f1", "method,auc", "method,salt_pepper_count")
    write_lines(path, "report", [line for block in zip(headers, *rows) for line in block])


# --- verbs ---


def cmd_synth(args, parser) -> int:
    spec = parse_scene_spec(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    scene, labels = generate_scene(spec)
    save_scene(scene, args.out_scene)
    save_labels(labels, args.out_labels)
    flood = float(scene.truth.mean())
    print(f"scene: {scene.width}x{scene.height}, {scene.channels} channels "
          f"(elevation channel {scene.elevation_channel})")
    print(f"class balance: flood {flood:.3f} / dry {1.0 - flood:.3f}")
    print(f"obstacle fraction: {spec.obstacle_fraction:.3f}")
    print(f"labels: {len(labels)} ({labels.class_count(0)} dry, {labels.class_count(1)} flood)")
    return 0


def cmd_train(args, parser) -> int:
    cfg = _resolve_config(args)
    scene = _load_run_scene(cfg.scene, parser)
    labels = _resolve_labels(scene, cfg, parser)
    _, trace, (model_path, trace_path) = _fit(cfg.method, scene, labels, cfg)
    print(f"{cfg.method}: {len(trace.models) - 1} EM iterations, final loglik {trace.logliks[-1]:.4f}")
    print(f"model -> {model_path}")
    print(f"trace -> {trace_path}")
    return 0


def cmd_predict(args, parser) -> int:
    cfg = _resolve_config(args)
    scene = _load_run_scene(cfg.scene, parser)
    model = hmt.load_model(args.model)
    classes, _, (pred_path, score_path) = _grids(model, scene, cfg.out)
    print(f"predicted flood fraction: {float(classes.mean()):.4f}")
    print(f"classes -> {pred_path}")
    print(f"scores -> {score_path}")
    return 0


def cmd_eval(args, parser) -> int:
    cfg = _resolve_config(args)
    report_path = _out_path(cfg.out, "report.csv")
    pred = (_load_grid(args.pred) >= 0.5).astype(np.uint8)
    scores = _load_grid(args.score)
    truth = _load_run_scene(args.truth, parser, truth=True).truth
    mask = _load_grid(args.mask) != 0 if args.mask else None
    _write_report(report_path, [_score(args.name, pred, scores, truth, mask, cfg)])
    return 0


def cmd_compare(args, parser) -> int:
    cfg = _resolve_config(args)
    scene = _load_run_scene(cfg.scene, parser, truth=True)
    labels = _resolve_labels(scene, cfg, parser)
    report_path = _out_path(cfg.out, "compare.csv")
    rows = []
    for method in METHODS:
        try:
            model, _, _ = _fit(method, scene, labels, cfg, f"_{method}")
            classes, scores, _ = _grids(model, scene, cfg.out, f"_{method}")
            rows.append(_score(method, classes, scores, scene.truth, None, cfg))
        except FloodemError as exc:
            print(f"{method}: FAILED ({exc})", file=sys.stderr)
    _write_report(report_path, rows)
    print(f"report -> {report_path}")
    return 0 if len(rows) == len(METHODS) else 1


def cmd_sweep_labels(args, parser) -> int:
    cfg = _resolve_config(args)
    scene = _load_run_scene(cfg.scene, parser, truth=True)
    out_path = _out_path(cfg.out, "sweep.csv")
    lines = ["method,ratio,seed,avg_f,reason"]
    for ratio in args.ratios:
        for seed in args.seeds:
            labels = sample_labels(scene, ratio, rng_seed=seed)
            for method in METHODS:
                try:
                    model, _ = _train(method, scene, labels, cfg, f" at ratio {ratio:g}, seed {seed}")
                    classes, _ = _predict(model, scene)
                    avg_f = metrics.class_report(classes, scene.truth).avg_f
                    lines.append(f"{method},{ratio:g},{seed},{avg_f:.6f},")
                except InitError as exc:
                    lines.append(f"{method},{ratio:g},{seed},nan,{exc}")
    write_lines(out_path, "sweep", lines)
    print(f"sweep -> {out_path}")
    return 0


def cmd_verify(args, parser) -> int:
    from . import oracle  # only this verb needs the brute-force checks; the others start without them

    ok = oracle.run_verify(n_trees=args.trees, seed=args.seed)
    print("all checks passed" if ok else "verification FAILED")
    return 0 if ok else 1


# --- parser ---


# Each verb registers the flags of only the RunConfig settings it reads.
_LABEL_KEYS = ("labels", "ratio", "seed")
_FIT_KEYS = ("tol", "rho", "pi", "neighborhood", "max_iter")


def _add_run_flags(sub: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    sub.add_argument("--config", default=None, help="key=value config file; any run setting")
    for key in keys:
        setting = _SETTINGS[key]
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=setting["cast"],
                         choices=setting["choices"], help=setting["help"])


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The floodem parser: every verb's subparser, or only ``verb``'s, which is all
    `main` needs to parse a call. Both print the same usage line and ``verb`` help."""
    parser = argparse.ArgumentParser(prog="floodem", description=__doc__)
    # Built alone, a verb needs the metavar to name all seven in the usage line; the full
    # parser keeps argparse's, which reads the same, so a missing verb is still "command".
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar=None if verb is None else "{%s}" % ",".join(VERBS))

    def sub(name: str, summary: str, func, **kwargs) -> argparse.ArgumentParser | None:
        """``name``'s subparser, running ``func``; None when this parser leaves it out."""
        if verb in (None, name):
            p = subs.add_parser(name, help=summary, **kwargs)
            p.set_defaults(func=func)
            return p

    if p := sub("synth", "generate a synthetic scene + labels", cmd_synth):
        p.add_argument("--spec", required=True, help="scene spec file (key=value)")
        p.add_argument("--seed", type=natural, default=None, help="override the spec seed")
        p.add_argument("--out-scene", required=True)
        p.add_argument("--out-labels", required=True)

    if p := sub("train", "fit a model and dump its trace", cmd_train):
        _add_run_flags(p, ("method", "scene", *_LABEL_KEYS, *_FIT_KEYS, "out"))

    if p := sub("predict", "write class and score grids for a scene", cmd_predict):
        p.add_argument("--model", required=True)
        _add_run_flags(p, ("scene", "out"))

    if p := sub("eval", "score a prediction against truth", cmd_eval):
        p.add_argument("--pred", required=True, help="class grid file")
        p.add_argument("--score", required=True, help="score grid file")
        p.add_argument("--truth", required=True, help="scene file carrying the truth grid")
        p.add_argument("--mask", default=None, help="single-channel grid; nonzero = evaluate")
        p.add_argument("--name", default="pred", type=name,
                       help="method name for report rows and roc_<name>.csv: letters, digits, '.', '_', '-'")
        _add_run_flags(p, ("neighborhood", "out"))

    if p := sub("compare", "train and evaluate all three methods side by side", cmd_compare):
        _add_run_flags(p, ("scene", *_LABEL_KEYS, *_FIT_KEYS, "out"))

    # No abbreviations: --ratio and --seed, which this verb does not take, would
    # otherwise silently stand for --ratios and --seeds.
    if p := sub("sweep-labels", "avg F across label ratios and seeds", cmd_sweep_labels, allow_abbrev=False):
        p.add_argument("--ratios", required=True, type=listed(_SETTINGS["ratio"]["cast"]),
                       help="comma-separated label ratios")
        p.add_argument("--seeds", required=True, type=listed(natural), help="comma-separated sampling seeds")
        _add_run_flags(p, ("scene", *_FIT_KEYS, "out"))

    if p := sub("verify", "run the oracle-equivalence suite", cmd_verify):
        p.add_argument("--trees", type=int, default=100)
        p.add_argument("--seed", type=natural, default=0)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except FloodemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
