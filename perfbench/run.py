"""floodem benchmark: the train -> predict -> eval pipeline through the CLI verbs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload smooth-256 --seed 7 --seconds 50 --trace 0

One closed-loop client: one child process at a time. Round k starts with a
set-up child that runs ``floodem synth`` on a new scene, of seed ``--seed +
7919 k``; then one child per method (gmm, gmm-elev, hmt) calls
``floodem.cli.main`` in-process with ``train``, ``predict`` and ``eval`` on
each of the workload's ratios with label seed 1, 2 or 3. Rounds run for about
``--seconds``. A timing is summed over a round's label sets, and the mean
over rounds is reported. Every verb time is scaled to the reference host's
speed with the kernel of ``hostref.py``, timed in the same child right before
and after the call. ``setup_s`` is the median over the rounds' set-up
children, each scaled by the kernel times of its round. After each round the
outputs are checked (untimed); ``floodem verify`` runs once per invocation
(untimed).

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` every child runs untraced and then traced,
and the last line carries the per-layer metrics of the traced children,
including the tracing overhead per verb (traced minus untraced). See
README.md.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostref import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
METHODS = ("gmm", "gmm-elev", "hmt")
VERBS = ("train", "predict", "eval")
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    size: int
    noise_sigma: float
    ratios: tuple[float, ...]

    def label_sets(self, k: int) -> list[tuple[float, int]]:
        """(ratio, label seed) pairs of round ``k``."""
        return [(r, LABEL_SEEDS[k % len(LABEL_SEEDS)]) for r in self.ratios]

    def spec_text(self, seed: int) -> str:
        return (f"width={self.size}\nheight={self.size}\nobstacle_fraction=0.3\n"
                f"noise_sigma={self.noise_sigma:g}\nseed={seed}\n")


# Every round synthesises a new scene, of seed ``--seed + SCENE_STRIDE * k``,
# and runs the workload's ratios with one label seed on it, cycling through
# the acceptance sweep's label seeds. EM iteration counts depend on the scene
# and the label draw (at 128x128 the sweep's nine label sets took 197 hmt
# iterations on the scene of seed 3 and 240 on seed 7), so a run averages
# several of each. The stride keeps the scenes of one run apart from those of
# runs with nearby seeds.
SCENE_STRIDE = 7919
LABEL_SEEDS = (1, 2, 3)
WORKLOADS = {
    "smooth-256": Workload(256, 0.0, (1e-3,)),
    "sweep-128": Workload(128, 6.0, (1e-3, 1e-2, 5e-2)),
}

_LOAD_EVAL = ["grid.load_scene", "metrics.class_report", "metrics.roc_auc",
              "metrics.salt_pepper_count", "metrics.write_roc_csv"]
_TRAIN = ["grid.load_scene", "grid.sample_labels", "gaussian.log_pdf", "gaussian.weighted_mle",
          "gmm.trace_to_csv"]
_GMM_PREDICT = ["grid.load_scene", "gmm.score_grid", "gaussian.log_pdf", "grid.save_scene"]
# Spans a traced verb must fire; a wrapper that never fires means a call site was missed.
REQUIRED = {
    ("synth", None): ["grid.generate_scene", "grid.save_scene"],
    ("train", "gmm"): _TRAIN + ["gmm.em_fit.gmm"],
    ("train", "gmm-elev"): _TRAIN + ["gmm.em_fit.gmm-elev"],
    ("train", "hmt"): _TRAIN + ["hmt.em_fit", "hmt.build_flow_tree", "hmt.level_groups", "hmt.m_step"],
    ("predict", "gmm"): _GMM_PREDICT,
    ("predict", "gmm-elev"): _GMM_PREDICT,
    ("predict", "hmt"): ["grid.load_scene", "hmt.build_flow_tree", "hmt.level_groups", "hmt.e_step",
                         "hmt.map_decode", "gaussian.log_pdf", "grid.save_scene"],
    ("eval", "gmm"): _LOAD_EVAL,
    ("eval", "gmm-elev"): _LOAD_EVAL,
    ("eval", "hmt"): _LOAD_EVAL,
}


class HarnessError(Exception):
    """The benchmark itself cannot go on; no result line is printed."""


@dataclass
class Context:
    """One invocation's scene, label sets and the forest parents used by the checks."""

    workload: Workload
    seed: int
    rundir: Path
    parent: object = None  # (N,) parent array of the current scene's flow forest
    round: int = 0

    def label_sets(self) -> list[tuple[float, int]]:
        """(ratio, label seed) pairs of the current round."""
        return self.workload.label_sets(self.round)

    @property
    def scene_seed(self) -> int:
        return self.seed + SCENE_STRIDE * self.round

    @property
    def scene(self) -> Path:
        """The current round's scene file."""
        return self.rundir / f"scene-{self.scene_seed}.sgrid"


@dataclass
class Pipeline:
    verb_s: dict = field(default_factory=lambda: defaultdict(float))  # (verb, method) -> scaled seconds
    wall_s: dict = field(default_factory=lambda: defaultdict(float))  # (verb, method) -> unscaled seconds
    ref_s: list = field(default_factory=list)  # reference kernel times around each call
    rss_mb: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    traces: list = field(default_factory=list)  # child trace summaries


def run_child(ctx: Context, tag: str, calls: list[dict], trace: bool, ref: bool) -> tuple[float, dict]:
    """Run child.py on one job, with the reference kernel around each call if ``ref``.

    Returns (wall seconds, child result).
    """
    job = ctx.rundir / f"{tag}.job.json"
    result = ctx.rundir / f"{tag}.result.json"
    job.write_text(json.dumps({"src": str(SRC), "calls": calls, "trace": trace, "ref": ref,
                               "result": str(result)}))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job)], cwd=ctx.rundir,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child {tag} ran past {CHILD_TIMEOUT_S} s") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not result.is_file():
        raise HarnessError(f"child {tag} exited with {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    return wall, json.loads(result.read_text())


def setup(ctx: Context, trace: bool) -> tuple[float, dict | None]:
    """The set-up child: process start, import, ``floodem synth`` of the round's scene.

    Returns (wall s, trace). Every round writes new files: overwriting a file
    on ext4 flushes it on close, which would time the disk instead of
    floodem.
    """
    spec = ctx.rundir / f"spec-{ctx.scene_seed}.txt"
    spec.write_text(ctx.workload.spec_text(ctx.scene_seed))
    labels = ctx.scene.with_suffix(".labels.txt")
    argv = ["synth", "--spec", str(spec), "--out-scene", str(ctx.scene), "--out-labels", str(labels)]
    wall, res = run_child(ctx, "setup", [{"argv": argv, "required": REQUIRED[("synth", None)]}], trace, False)
    if res["calls"][0]["rc"] != 0:
        raise HarnessError("floodem synth failed; no scene to benchmark")
    return wall, res.get("trace")


def method_calls(ctx: Context, pdir: Path, method: str, ratio: float, lseed: int) -> list[dict]:
    """train, predict and eval of one method on one label set, as a user types them."""
    scene = str(ctx.scene)
    out = pdir / method / f"r{ratio:g}-s{lseed}"
    argvs = [
        ["train", "--method", method, "--scene", scene, "--ratio", f"{ratio:g}",
         "--seed", str(lseed), "--out", str(out)],
        ["predict", "--model", str(out / "model.txt"), "--scene", scene, "--out", str(out)],
        ["eval", "--pred", str(out / "pred.sgrid"), "--score", str(out / "score.sgrid"),
         "--truth", scene, "--name", method, "--out", str(out)],
    ]
    return [{"argv": a, "required": REQUIRED[(a[0], method)]} for a in argvs]


def run_method(ctx: Context, pipe: Pipeline, pdir: Path, method: str, trace: bool) -> None:
    """One child running one method on every label set of the round; its figures are added to ``pipe``."""
    calls = [c for ratio, lseed in ctx.label_sets() for c in method_calls(ctx, pdir, method, ratio, lseed)]
    _, res = run_child(ctx, f"{pdir.name}-{method}", calls, trace, True)
    pipe.rss_mb[method] = max(pipe.rss_mb.get(method, 0.0), res["maxrss_mb"])
    for call, entry in zip(res["calls"], calls):
        pipe.verb_s[(call["verb"], method)] += call["s"] * REF_S / call["ref_s"]
        pipe.wall_s[(call["verb"], method)] += call["s"]
        pipe.ref_s.append(call["ref_s"])
        pipe.attempted += 1
        if call["rc"] != 0:
            pipe.failures.append(f"exit {call['rc']}: floodem {' '.join(entry['argv'])}")
    if trace:
        pipe.traces.append(res["trace"])


def run_round(ctx: Context, trace: bool) -> tuple[Pipeline, Pipeline | None]:
    """One child per method, each running every label set of the round.

    With ``trace`` each method's child runs twice, untraced and traced, in an
    order that alternates between methods; the pair's difference is the
    tracing overhead.
    """
    plain = Pipeline()
    traced = Pipeline() if trace else None
    for i, method in enumerate(METHODS):
        order = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        for traced_run in order:
            pipe, pdir = (traced, ctx.rundir / "traced") if traced_run else (plain, ctx.rundir / "plain")
            run_method(ctx, pipe, pdir, method, traced_run)
    return plain, traced


# --- output checks (untimed) ---


def tree_violations(pred, parent) -> int:
    """Pixels decoded flood whose flow-forest parent is decoded dry."""
    pred = np.asarray(pred).ravel() >= 0.5
    child = np.flatnonzero(parent >= 0)
    return int(np.sum(pred[child] & ~pred[parent[child]]))


def score_ok(scores) -> bool:
    return bool(np.all(np.isfinite(scores)) and np.all((scores >= 0.0) & (scores <= 1.0)))


def ordering_holds(avg_f: dict) -> bool:
    """The paper's ordering of mean average-F: hmt > gmm-elev > gmm."""
    return avg_f["hmt"] > avg_f["gmm-elev"] > avg_f["gmm"]


def read_avg_f(report: Path) -> float:
    """Mean of the dry and flood F1 rows of an eval report.csv."""
    with open(report) as fh:
        rows = list(csv.reader(fh))
    return (float(rows[1][4]) + float(rows[2][4])) / 2.0


def read_trace_end(trace: Path) -> tuple[int, float]:
    """(final EM iteration, final max relative change) from a trace.csv."""
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    return int(rows[-1][0]), float(rows[-1][-1])


def check_outputs(ctx: Context, pdir: Path) -> tuple[int, list[str], dict]:
    """(checks attempted, failure messages, mean avg-F per method) for one pipeline."""
    from floodem.errors import FloodemError
    from floodem.grid import load_scene

    attempted, failures = 0, []
    avg_f = {}
    for method in METHODS:
        fs = []
        for ratio, lseed in ctx.label_sets():
            out = pdir / method / f"r{ratio:g}-s{lseed}"
            attempted += 1
            try:
                if not score_ok(load_scene(str(out / "score.sgrid")).data[0]):
                    failures.append(f"{out}: score grid non-finite or outside [0, 1]")
                fs.append(read_avg_f(out / "report.csv"))
            except (FloodemError, OSError, ValueError, IndexError) as exc:
                failures.append(f"{out}: unreadable output ({exc})")
            if method == "hmt":
                attempted += 1
                try:
                    bad = tree_violations(load_scene(str(out / "pred.sgrid")).data[0], ctx.parent)
                except FloodemError as exc:
                    failures.append(f"{out}: unreadable prediction ({exc})")
                else:
                    if bad:
                        failures.append(f"{out}: {bad} flood pixels over a dry parent")
        avg_f[method] = statistics.fmean(fs) if len(fs) == len(ctx.label_sets()) else 0.0
    return attempted, failures, avg_f


def run_verify() -> bool:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "floodem", "verify"], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return proc.returncode == 0


# --- metrics ---


def timings(verb_s: dict) -> dict:
    """The timing metrics of one round, from (verb, method) -> seconds."""
    m = {"pipeline_s": sum(verb_s.values())}
    for verb in ("train", "predict"):
        for method in METHODS:
            m[f"{verb}_s.{method}"] = verb_s[(verb, method)]
    m["eval_s"] = sum(verb_s[("eval", method)] for method in METHODS)
    return m


def end_to_end(pipe: Pipeline) -> dict:
    """The timing and memory metrics of one round; ``measure`` adds avg-F."""
    m = timings(pipe.verb_s)
    for method in ("gmm", "hmt"):
        m[f"peak_rss_mb.{method}"] = pipe.rss_mb[method]
    return m


def merge(summaries: list[dict]) -> tuple[dict, dict, dict]:
    tot, slf, cnt = defaultdict(float), defaultdict(float), defaultdict(float)
    for s in summaries:
        for key, acc in (("total_s", tot), ("self_s", slf)):
            for name, v in s[key].items():
                acc[name] += v
        for name, v in s["counts"].items():
            # Forest shape counters are per-scene maxima, the rest are sums.
            cnt[name] = max(cnt[name], v) if name.startswith("hmt.") else cnt[name] + v
    return tot, slf, cnt


def em_iterations(ctx: Context, pdir: Path, method: str) -> tuple[int, int, int]:
    """(EM iterations summed over label sets, fits stopped by the cap, fits)."""
    from floodem.cli import RunConfig

    cfg = RunConfig()
    iters = at_cap = fits = 0
    for ratio, lseed in ctx.label_sets():
        it, maxrel = read_trace_end(pdir / method / f"r{ratio:g}-s{lseed}" / "trace.csv")
        iters += it
        at_cap += int(it == cfg.max_iter and not maxrel < cfg.tol)
        fits += 1
    return iters, at_cap, fits


def per_layer(ctx: Context, pdir: Path, traced: Pipeline, setup_trace: dict, plain: Pipeline) -> dict:
    tot, slf, cnt = merge(traced.traces + [setup_trace])
    m = {
        "grid.generate_scene_s": tot["grid.generate_scene"],
        "grid.save_scene_s": tot["grid.save_scene"],
        "grid.load_scene_s": tot["grid.load_scene"],
        "grid.load_scene.calls": cnt["calls:grid.load_scene"],
        "grid.scene_bytes": cnt["grid.scene_bytes"],
        "grid.sample_labels_s": tot["grid.sample_labels"],
        "grid.labels": cnt["grid.labels"],
    }
    for fn in ("log_pdf", "weighted_mle"):
        m[f"gaussian.{fn}_s"] = tot[f"gaussian.{fn}"]
        m[f"gaussian.{fn}.calls"] = cnt[f"calls:gaussian.{fn}"]
        m[f"gaussian.{fn}.rows"] = cnt[f"gaussian.{fn}.rows"]
    m["gaussian.bytes_computed"] = cnt["gaussian.bytes_computed"]
    for variant in ("gmm", "gmm-elev"):
        iters, at_cap, fits = em_iterations(ctx, pdir, variant)
        m[f"gmm.em_fit_self_s.{variant}"] = slf[f"gmm.em_fit.{variant}"]
        m[f"gmm.iters.{variant}"] = iters
        m[f"gmm.at_cap.{variant}"] = at_cap
        m[f"gmm.iter_s.{variant}"] = tot[f"gmm.em_fit.{variant}"] / (iters + fits)
    m["gmm.score_grid_s"] = tot["gmm.score_grid"]
    m["gmm.trace_to_csv_s"] = tot["gmm.trace_to_csv"]
    iters, at_cap, fits = em_iterations(ctx, pdir, "hmt")
    m.update({
        "hmt.build_flow_tree_s": tot["hmt.build_flow_tree"],
        "hmt.level_groups_s": tot["hmt.level_groups"],
        "hmt.nodes": cnt["hmt.nodes"],
        "hmt.roots": cnt["hmt.roots"],
        "hmt.levels": cnt["hmt.levels"],
        "hmt.max_level_nodes": cnt["hmt.max_level_nodes"],
        "hmt.em_fit_self_s": slf["hmt.em_fit"],
        "hmt.m_step_s": tot["hmt.m_step"],
        "hmt.e_step_s": tot["hmt.e_step"],
        "hmt.map_decode_s": tot["hmt.map_decode"],
        "hmt.iters": iters,
        "hmt.at_cap": at_cap,
        "hmt.iter_s": tot["hmt.em_fit"] / (iters + fits),
    })
    for fn in ("class_report", "roc_auc", "salt_pepper_count", "write_roc_csv"):
        m[f"metrics.{fn}_s"] = tot[f"metrics.{fn}"]
    m["metrics.roc_points"] = cnt["metrics.roc_points"]
    for verb in VERBS:
        m[f"cli.self_s.{verb}"] = slf[f"cli.{verb}"]
        m[f"trace_overhead_s.{verb}"] = sum(
            traced.verb_s[(verb, x)] - plain.verb_s[(verb, x)] for x in METHODS
        )
    return m


def measure(ctx: Context, seconds: float, trace: bool) -> tuple[dict, dict, int, list[str]]:
    """Set up, run the rounds and check them.

    Returns (metric means over rounds, the same timings unscaled, attempted,
    failures). Rounds run while the next one, at the mean round time so far,
    would end within ``seconds``; at least one runs. A traced run does one
    round, in which every child runs twice.
    """
    from floodem.cli import RunConfig
    from floodem.grid import load_scene
    from floodem.hmt import build_flow_tree

    attempted, failures = 1, []
    if not run_verify():
        failures.append("floodem verify exited non-zero")
    samples, walls, avg_fs = defaultdict(list), defaultdict(list), defaultdict(list)
    setup_s = []  # (scaled, wall) seconds of every round's set-up child
    start = time.perf_counter()
    for k in itertools.count():
        if k and (trace or (time.perf_counter() - start) * (k + 1) / k > seconds):
            break
        ctx.round = k
        setup_wall, setup_trace = setup(ctx, trace)
        ctx.parent = build_flow_tree(load_scene(str(ctx.scene)).elevation(), RunConfig().neighborhood).parent
        plain, traced = run_round(ctx, trace)
        # Process start and import cannot be bracketed by the kernel inside the
        # child, so the set-up time is scaled by the host speed of its round.
        setup_s.append((setup_wall * REF_S / statistics.fmean(plain.ref_s), setup_wall))
        pdirs = [ctx.rundir / "plain"] + ([ctx.rundir / "traced"] if trace else [])
        for pdir, pipe in zip(pdirs, [plain, traced]):
            checks, fails, avg_f = check_outputs(ctx, pdir)
            attempted += pipe.attempted + checks
            failures += pipe.failures + fails
            if pipe is plain:
                for method, value in avg_f.items():
                    avg_fs[method].append(value)
        if trace:
            if traced.failures:
                raise HarnessError("a traced verb failed: " + "; ".join(traced.failures))
            row = per_layer(ctx, pdirs[1], traced, setup_trace, plain)
        else:
            row = end_to_end(plain)
            for name, value in timings(plain.wall_s).items():
                walls[name].append(value)
        for name, value in row.items():
            samples[name].append(value)
        for pdir in pdirs:
            shutil.rmtree(pdir)
    metrics = {name: statistics.fmean(v) for name, v in samples.items()}
    wall = {name: statistics.fmean(v) for name, v in walls.items()}
    avg_f = {method: statistics.fmean(v) for method, v in avg_fs.items()}
    attempted += 1
    if not ordering_holds(avg_f):
        failures.append(f"paper ordering avg_f hmt > gmm-elev > gmm fails: {avg_f}")
    if not trace:
        metrics.update({f"avg_f.{method}": value for method, value in avg_f.items()})
        metrics["setup_s"] = statistics.median(scaled for scaled, _ in setup_s)
        wall["setup_s"] = statistics.median(w for _, w in setup_s)
        metrics["ok_frac"] = 1.0 - len(failures) / attempted
    return metrics, wall, attempted, failures


# --- reporting ---


def declared(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(workload: str, seed: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(f"{index}/level").strip()
        if level in ("2", "3"):
            caches[f"l{level}"] = _read(f"{index}/size").strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True) if (ROOT / ".git").exists() else None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git": head.stdout.strip() if head is not None and head.returncode == 0 else "unknown (not a git checkout)",
    }


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS bundled with numpy, asked from the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def emit(metrics: dict, wall: dict, attempted: int, failures: list[str], trace: bool, env: dict,
         out=None) -> None:
    """Human-readable lines, then the result object as the last stdout line.

    ``wall`` holds the timings before scaling to the reference host's speed.
    """
    out = out or sys.stdout
    units = declared(trace)
    if set(metrics) != set(units):
        raise HarnessError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    print("env " + json.dumps(env), file=out)
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}", file=out)
    for name, value in wall.items():
        print(f"{'wall:' + name:32s} {value:.6g} s (unscaled)", file=out)
    print(f"{'fail_frac':32s} {len(failures) / attempted:.6g} 1 ({len(failures)} of {attempted} operations)",
          file=out)
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "floodem" / "cli.py").is_file():
        print(f"perfbench: no floodem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    rundir.mkdir()
    ctx = Context(WORKLOADS[args.workload], args.seed, rundir)
    try:
        metrics, wall, attempted, failures = measure(ctx, args.seconds, bool(args.trace))
        emit(metrics, wall, attempted, failures, bool(args.trace), environment(args.workload, args.seed))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
