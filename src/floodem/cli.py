"""Command-line front end wiring scenes, training, inference, and evaluation.

Verbs: synth, train, predict, eval, compare, sweep-labels, verify.
Config files are line-oriented key=value text; every hyperparameter can be
overridden by the flag of the same name. Exit codes: 0 ok, 1 verification or
evaluation failure, 2 usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import gmm, hmt, metrics, oracle
from .gaussian import Lifted, log_pdf, weighted_mle
from .errors import DataError, DimError, FloodemError, InitError, IoError, SpecError
from .grid import (
    LabelSet,
    RasterScene,
    SceneSpec,
    generate_scene,
    load_labels,
    load_scene,
    read_key_values,
    sample_labels,
    save_labels,
    save_scene,
    write_lines,
)

METHODS = ("gmm", "gmm-elev", "hmt")


@dataclass
class RunConfig:
    """Hyperparameters and I/O paths of one run."""

    method: str = "gmm"
    scene: str | None = None
    labels: str | None = None
    ratio: float | None = None
    seed: int = 0
    tol: float = 1e-5
    cutoff: float = 0.5
    rho: float = 0.99
    pi: float = 0.5
    neighborhood: int = 8
    max_iter: int = 100
    out: str = "."


# Every RunConfig field, with the cast its config-file value goes through.
_CONFIG_CASTS = {
    **dict.fromkeys(("method", "scene", "labels", "out"), str),
    **dict.fromkeys(("ratio", "tol", "cutoff", "rho", "pi"), float),
    **dict.fromkeys(("seed", "neighborhood", "max_iter"), int),
}


def load_config(path: str) -> dict:
    """Parse a key=value config file; unknown keys and bad values carry line numbers.

    A '-' in a key reads as '_', so "max-iter" names the same setting as the flag.
    """
    values = read_key_values(
        path, "config", lambda key, val: _CONFIG_CASTS[key.replace("-", "_")](val), SpecError
    )
    return {key.replace("-", "_"): val for key, val in values.items()}


def _given_settings(args: argparse.Namespace) -> dict:
    """Settings named in the config file or by a flag; flags win."""
    given = load_config(args.config) if getattr(args, "config", None) else {}
    for key in _CONFIG_CASTS:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = flag
    return given


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**_given_settings(args))


# --- scene-spec files for synth ---

_SPEC_VECTORS = ("mean0", "mean1", "obstacle_mean", "var0", "var1", "obstacle_var")
# The cast of every spec-file key; vars may be one value or a diagonal list.
_SPEC_CASTS = {
    "width": int,
    "height": int,
    "features": int,
    "ramp_height": float,
    "bump_amplitude": float,
    "bump_periods": float,
    "obstacle_fraction": float,
    "noise_sigma": float,
    "labels_per_class": int,
    "seed": int,
    "water_level": lambda val: None if val == "median" else float(val),
    **dict.fromkeys(_SPEC_VECTORS, lambda val: [float(p) for p in val.split(",")]),
}
_SPEC_FIELDS = {"features": "n_features", "seed": "rng_seed"}  # the SceneSpec names that differ


def parse_scene_spec(path: str) -> SceneSpec:
    """Build a SceneSpec from a key=value file; vars may be scalar or a diagonal list."""
    raw = read_key_values(path, "spec", lambda key, val: _SPEC_CASTS[key](val), SpecError)
    kwargs = {_SPEC_FIELDS.get(k, k): v for k, v in raw.items() if k not in _SPEC_VECTORS}
    m = kwargs.get("n_features", 3)

    def as_cov(entry):
        return np.diag(entry if len(entry) > 1 else entry * m)

    for a, b, name, make in (("mean0", "mean1", "class_means", np.array),
                             ("var0", "var1", "class_covs", as_cov)):
        if (a in raw) != (b in raw):
            raise SpecError(f"{path}: {a} and {b} must be given together")
        if a in raw:
            pair = [make(raw[a]), make(raw[b])]
            if pair[0].shape != pair[1].shape:
                raise SpecError(f"{path}: {a} and {b} differ in length")
            kwargs[name] = np.stack(pair)
    if "obstacle_mean" in raw:
        kwargs["obstacle_mean"] = np.array(raw["obstacle_mean"])
    if "obstacle_var" in raw:
        kwargs["obstacle_cov"] = as_cov(raw["obstacle_var"])
    return SceneSpec(**kwargs)


# --- grid files: single-channel scenes holding a prediction or score plane ---


def _save_grid(values: np.ndarray, path: str) -> None:
    values = np.asarray(values, dtype=float)
    scene = RasterScene(
        width=values.shape[1], height=values.shape[0], channels=1, data=values[None]
    )
    save_scene(scene, path)


def _load_grid(path: str) -> np.ndarray:
    scene = load_scene(path)
    if scene.channels != 1:
        raise DataError(f"{path}: expected a single-channel grid, found {scene.channels} channels")
    return scene.data[0]


def _load_run_scene(
    path: str | None, parser: argparse.ArgumentParser, *, truth: bool = False
) -> RasterScene:
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
        use_elev = method == "gmm-elev"
        if use_elev and scene.elevation_channel is None:
            raise DataError("gmm-elev needs a scene with an elevation channel")
        fit = gmm.em_fit(scene, labels, use_elevation=use_elev, max_iter=cfg.max_iter, tol=cfg.tol)
    elif method == "hmt":
        fit = hmt.em_fit(
            scene,
            labels,
            max_iter=cfg.max_iter,
            tol=cfg.tol,
            rho_init=cfg.rho,
            pi_init=cfg.pi,
            neighborhood=cfg.neighborhood,
        )
    else:
        raise SpecError(f"unknown method {method!r}")
    trace = fit[1]
    if trace.stop_reason == "max_iter":
        print(f"warning: {method}{run}: EM stopped at the {cfg.max_iter}-iteration cap before "
              f"converging; final max relative change {trace.rows[-1].max_rel_change:.3g} "
              f"(tol {cfg.tol:g})", file=sys.stderr)
    return fit


def _gmm_use_elevation(model: hmt.GmmModel, scene: RasterScene) -> bool:
    """Recover the channel selection from the model dimension."""
    if model.dim == scene.channels:
        return True
    if scene.elevation_channel is not None and model.dim == scene.channels - 1:
        return False
    raise DimError(
        f"model dimension {model.dim} fits neither all {scene.channels} channels "
        "nor the channels without elevation"
    )


def _predict(model, scene: RasterScene, cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """(class grid, flood-score grid) for either model family."""
    if isinstance(model, hmt.HmtModel):
        feats = scene.feature_matrix(use_elevation=False)
        tree = hmt.build_flow_tree(scene.elevation(), model.neighborhood)
        posteriors = hmt.e_step(model, tree, feats)
        classes = hmt.map_decode(model, tree, feats).reshape(scene.height, scene.width)
        scores = posteriors.marginal.reshape(scene.height, scene.width)
        return classes, scores
    use_elev = _gmm_use_elevation(model, scene)
    scores = gmm.score_grid(model, scene, use_elev)
    classes = (scores >= cfg.cutoff).astype(np.uint8)
    return classes, scores


def _evaluate(
    pred: np.ndarray,
    scores: np.ndarray,
    truth: np.ndarray,
    mask: np.ndarray | None,
    neighborhood: int,
):
    report = metrics.class_report(pred, truth, mask)
    curve = metrics.roc_auc(scores, truth, mask)
    # Salt-and-pepper is counted over the full prediction grid, not the mask.
    noise = metrics.salt_pepper_count(pred, neighborhood)
    return report, curve, noise


def _write_report_csv(path: str, class_rows, auc_rows, noise_rows) -> None:
    lines = ["method,class,precision,recall,f1"] + [",".join(row) for row in class_rows]
    lines += ["method,auc"] + [f"{method},{auc:.6f}" for method, auc in auc_rows]
    lines += ["method,salt_pepper_count"] + [f"{method},{count}" for method, count in noise_rows]
    write_lines(path, "report", lines)


def _out_path(cfg_out: str, name: str) -> str:
    try:
        os.makedirs(cfg_out, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {cfg_out}: {exc}") from exc
    return os.path.join(cfg_out, name)


# --- verbs ---


def cmd_synth(args, parser) -> int:
    spec = parse_scene_spec(args.spec)
    if args.seed is not None:
        spec.rng_seed = args.seed
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
    model_path = _out_path(cfg.out, "model.txt")
    trace_path = _out_path(cfg.out, "trace.csv")
    model, trace = _train(cfg.method, scene, labels, cfg)
    hmt.save_model(model, model_path)
    trace.to_csv(trace_path)
    last = trace.rows[-1]
    print(f"{cfg.method}: {last.iteration} EM iterations, final loglik {last.loglik:.4f}")
    print(f"model -> {model_path}")
    print(f"trace -> {trace_path}")
    return 0


def cmd_predict(args, parser) -> int:
    given = _given_settings(args)
    cfg = RunConfig(**given)
    scene = _load_run_scene(cfg.scene, parser)
    model = hmt.load_model(args.model)
    asked = given.get("neighborhood")
    if isinstance(model, hmt.HmtModel) and asked not in (None, model.neighborhood):
        raise DataError(f"neighborhood {asked} was given, but {args.model} was trained "
                        f"on the {model.neighborhood}-neighborhood flow forest")
    pred_path = _out_path(cfg.out, "pred.sgrid")
    score_path = _out_path(cfg.out, "score.sgrid")
    classes, scores = _predict(model, scene, cfg)
    _save_grid(classes.astype(float), pred_path)
    _save_grid(scores, score_path)
    print(f"predicted flood fraction: {float(classes.mean()):.4f}")
    print(f"classes -> {pred_path}")
    print(f"scores -> {score_path}")
    return 0


def cmd_eval(args, parser) -> int:
    cfg = _resolve_config(args)
    pred = (_load_grid(args.pred) >= 0.5).astype(np.uint8)
    scores = _load_grid(args.score)
    truth_scene = _load_run_scene(args.truth, parser, truth=True)
    mask = None
    if args.mask:
        mask = _load_grid(args.mask) != 0
    report, curve, noise = _evaluate(pred, scores, truth_scene.truth, mask, cfg.neighborhood)
    _write_report_csv(
        _out_path(cfg.out, "report.csv"),
        metrics.report_rows(args.name, report),
        [(args.name, curve.auc)],
        [(args.name, noise)],
    )
    metrics.write_roc_csv(curve, _out_path(cfg.out, f"roc_{args.name}.csv"))
    print(f"{args.name}: avg F {report.avg_f:.4f}, AUC {curve.auc:.4f}, salt-and-pepper {noise}")
    return 0


def cmd_compare(args, parser) -> int:
    cfg = _resolve_config(args)
    scene = _load_run_scene(cfg.scene, parser, truth=True)
    labels = _resolve_labels(scene, cfg, parser)
    report_path = _out_path(cfg.out, "compare.csv")
    class_rows, auc_rows, noise_rows = [], [], []
    failures = []
    for method in METHODS:
        try:
            model, trace = _train(method, scene, labels, cfg)
            hmt.save_model(model, _out_path(cfg.out, f"model_{method}.txt"))
            trace.to_csv(_out_path(cfg.out, f"trace_{method}.csv"))
            classes, scores = _predict(model, scene, cfg)
            _save_grid(classes.astype(float), _out_path(cfg.out, f"pred_{method}.sgrid"))
            _save_grid(scores, _out_path(cfg.out, f"score_{method}.sgrid"))
            report, curve, noise = _evaluate(
                classes, scores, scene.truth, None, cfg.neighborhood
            )
            class_rows += metrics.report_rows(method, report)
            auc_rows.append((method, curve.auc))
            noise_rows.append((method, noise))
            metrics.write_roc_csv(curve, _out_path(cfg.out, f"roc_{method}.csv"))
            print(f"{method}: avg F {report.avg_f:.4f}, AUC {curve.auc:.4f}, "
                  f"salt-and-pepper {noise}")
        except FloodemError as exc:
            failures.append(method)
            print(f"{method}: FAILED ({exc})", file=sys.stderr)
    _write_report_csv(report_path, class_rows, auc_rows, noise_rows)
    print(f"report -> {report_path}")
    return 1 if failures else 0


def cmd_sweep_labels(args, parser) -> int:
    cfg = _resolve_config(args)
    scene = _load_run_scene(cfg.scene, parser, truth=True)
    try:
        ratios = [float(r) for r in args.ratios.split(",")]
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError as exc:
        parser.error(f"--ratios and --seeds take comma-separated numbers: {exc}")
    out_path = _out_path(cfg.out, "sweep.csv")
    try:
        fh = open(out_path, "w")
    except OSError as exc:
        raise IoError(f"cannot write sweep to {out_path}: {exc}") from exc
    with fh:
        fh.write("method,ratio,seed,avg_f,reason\n")
        for ratio in ratios:
            for seed in seeds:
                try:
                    labels = sample_labels(scene, ratio, rng_seed=seed)
                except DataError as exc:
                    for method in METHODS:
                        fh.write(f"{method},{ratio:g},{seed},nan,{exc}\n")
                    continue
                for method in METHODS:
                    try:
                        model, _ = _train(method, scene, labels, cfg, f" at ratio {ratio:g}, seed {seed}")
                        classes, _ = _predict(model, scene, cfg)
                        avg_f = metrics.class_report(classes, scene.truth).avg_f
                        fh.write(f"{method},{ratio:g},{seed},{avg_f:.6f},\n")
                    except InitError as exc:
                        fh.write(f"{method},{ratio:g},{seed},nan,{exc}\n")
    print(f"sweep -> {out_path}")
    return 0


def _lift_error(points: np.ndarray, weights: np.ndarray) -> float:
    """Worst disagreement between the lifted and the raw-point Gaussian paths:
    the weighted fit's mean in units of |mean| + sd and its covariance in units
    of sd_i * sd_j, and the fit's log densities in units of 1 + |log density|."""
    lift = Lifted(points)
    ref, fit = weighted_mle(points, weights), weighted_mle(lift, weights)
    sd = np.sqrt(np.diag(ref.cov))
    ref_lp = log_pdf(ref, points)
    return max(
        float(np.max(np.abs(fit.mean - ref.mean) / (np.abs(ref.mean) + sd))),
        float(np.max(np.abs(fit.cov - ref.cov) / np.outer(sd, sd))),
        float(np.max(np.abs(log_pdf(ref, lift) - ref_lp) / (1.0 + np.abs(ref_lp)))),
    )


def run_verify(n_trees: int = 100, seed: int = 0, out=None) -> bool:
    """Oracle-equivalence suite; returns True iff every check passes."""
    out = out or sys.stdout
    rng = np.random.default_rng(seed)
    instances = []
    for k in range(n_trees):
        n = int(rng.integers(2, 13))
        instances.append(oracle.random_tree_instance(rng, n, all_roots=k % 10 == 9))

    all_ok = True

    def emit(ok: bool, name: str, detail: str) -> None:
        nonlocal all_ok
        all_ok = all_ok and ok
        print(f"{'ok  ' if ok else 'FAIL'} {name} ({detail})", file=out)

    worst = worst_map = 0.0
    ties = 0
    exact = True
    for model, tree, feats in instances:
        om, op, oa, ov = oracle.enumerate_joint(model, tree, feats)
        post = hmt.e_step(model, tree, feats)
        worst = max(worst, float(np.max(np.abs(post.marginal - om))))
        nonroot = np.flatnonzero(tree.parent >= 0)
        if nonroot.size:
            worst = max(worst, float(np.max(np.abs(post.pairwise[nonroot] - op[nonroot]))))
        dec = hmt.map_decode(model, tree, feats)
        dv = hmt.assignment_log_joint(model, tree, feats, dec)
        worst_map = max(worst_map, abs(dv - ov))
        if not np.array_equal(dec, oa):
            ties += 1
            exact = exact and abs(dv - ov) <= 1e-9
    emit(worst <= 1e-9, "tree posteriors match enumeration", f"{n_trees} trees, max err {worst:.3g}")
    emit(
        worst_map <= 1e-9 and exact,
        "MAP decoding attains the enumeration maximum",
        f"{n_trees} trees, max value err {worst_map:.3g}, {ties} tie-equivalent assignments",
    )

    worst_gap = 0.0
    grid_rho = np.linspace(0.01, 0.999, 25)
    for model, tree, feats in instances[: min(25, n_trees)]:
        if not tree.has_edges:
            continue
        post = hmt.e_step(model, tree, feats)
        new = hmt.m_step(post, feats, model)
        q_hat = hmt.expected_complete_loglik(post, new, tree, feats)
        for r in grid_rho:
            trial = hmt.HmtModel(rho=float(r), pi1=new.pi1, components=new.components)
            gap = hmt.expected_complete_loglik(post, trial, tree, feats) - q_hat
            worst_gap = max(worst_gap, gap)
    emit(
        worst_gap <= 1e-9,
        "transition update maximizes the expected complete log likelihood",
        f"max improvement found by grid search {worst_gap:.3g}",
    )

    worst_lift = 0.0
    n_fits = 40
    for k in range(n_fits):
        # Correlated channels with offsets up to 1e6 and scales from 1e-3 to 1e3.
        m = 1 + k % 4
        mix = rng.normal(size=(m, m)) + 2.0 * np.eye(m)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
        offsets = 10.0 ** rng.uniform(0.0, 6.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        pts = (rng.normal(size=(200, m)) @ mix) * scales + offsets
        worst_lift = max(worst_lift, _lift_error(pts, rng.uniform(size=200) ** 4))
    emit(
        worst_lift <= 1e-9,
        "lifted Gaussian fits and densities match the Cholesky path",
        f"{n_fits} fits, max rel err {worst_lift:.3g}",
    )

    spec = SceneSpec(width=16, height=16, obstacle_fraction=0.2, labels_per_class=8, rng_seed=seed)
    scene, labels = generate_scene(spec)
    models: list = []
    gmm.em_fit(scene, labels, use_elevation=False, callback=lambda it, m: models.append(m))
    logliks = [oracle.gmm_loglik(m, scene, labels, use_elevation=False) for m in models]
    drops = [b - a for a, b in zip(logliks, logliks[1:]) if b < a - 1e-8]
    emit(
        not drops,
        "mixture EM log likelihood is non-decreasing",
        f"{len(logliks)} iterations, worst drop {min(drops) if drops else 0.0:.3g}",
    )
    return all_ok


def cmd_verify(args, parser) -> int:
    ok = run_verify(n_trees=args.trees, seed=args.seed)
    print("all checks passed" if ok else "verification FAILED")
    return 0 if ok else 1


# --- parser ---


# Each verb registers the flags of only the RunConfig settings it reads.
_FLAG_HELP = {
    "labels": "label file (row,col,class lines)",
    "ratio": "labeled fraction to sample",
    "seed": "label sampling seed",
    "tol": "convergence threshold (default 1e-5)",
    "cutoff": "class cutoff (default 0.5)",
    "rho": "initial transition strength (default 0.99)",
    "pi": "initial flood prior (default 0.5)",
    "out": "output directory",
}
_FLAG_CHOICES = {"method": METHODS, "neighborhood": (4, 8)}
_LABEL_KEYS = ("labels", "ratio", "seed")
_FIT_KEYS = ("tol", "rho", "pi", "neighborhood", "max_iter")


def _add_run_flags(sub: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    sub.add_argument("--config", default=None, help="key=value config file; any run setting")
    for key in keys:
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=_CONFIG_CASTS[key],
                         choices=_FLAG_CHOICES.get(key), help=_FLAG_HELP.get(key))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="floodem", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic scene + labels")
    p.add_argument("--spec", required=True, help="scene spec file (key=value)")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out-scene", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="fit a model and dump its trace")
    _add_run_flags(p, ("method", "scene", *_LABEL_KEYS, *_FIT_KEYS, "out"))
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("predict", help="write class and score grids for a scene")
    p.add_argument("--model", required=True)
    _add_run_flags(p, ("scene", "cutoff", "neighborhood", "out"))
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("eval", help="score a prediction against truth")
    p.add_argument("--pred", required=True, help="class grid file")
    p.add_argument("--score", required=True, help="score grid file")
    p.add_argument("--truth", required=True, help="scene file carrying the truth grid")
    p.add_argument("--mask", default=None, help="single-channel grid; nonzero = evaluate")
    p.add_argument("--name", default="pred", help="method name for report rows")
    _add_run_flags(p, ("neighborhood", "out"))
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("compare", help="train and evaluate all three methods side by side")
    _add_run_flags(p, ("scene", *_LABEL_KEYS, *_FIT_KEYS, "cutoff", "out"))
    p.set_defaults(func=cmd_compare)

    # No abbreviations: --ratio and --seed, which this verb does not take, would
    # otherwise silently stand for --ratios and --seeds.
    p = subs.add_parser("sweep-labels", help="avg F across label ratios and seeds", allow_abbrev=False)
    p.add_argument("--ratios", required=True, help="comma-separated label ratios")
    p.add_argument("--seeds", required=True, help="comma-separated sampling seeds")
    _add_run_flags(p, ("scene", *_FIT_KEYS, "cutoff", "out"))
    p.set_defaults(func=cmd_sweep_labels)

    p = subs.add_parser("verify", help="run the oracle-equivalence suite")
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except FloodemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
