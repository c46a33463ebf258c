"""One benchmark child process: runs floodem CLI verbs in-process and times them.

Usage: python3 child.py JOB.json

The job file names the floodem source directory, the argv lists to pass to
``floodem.cli.main`` (exactly what a user would type after ``floodem``), whether
to trace, whether to time the host-speed reference kernel (``hostref.py``),
and where to write the result. The result JSON holds, per call, the verb, its
exit code, its wall time and, with the kernel on, the mean time of the kernel
run right before and right after the call; plus the process's peak RSS. With
tracing on it also holds the span aggregates and counters from ``Tracer``.

Spans are recorded from outside the program: each wrapper times one call into
a public floodem function. ``install`` replaces the function in every floodem
namespace that bound it (``from .gaussian import log_pdf`` makes a second
binding in ``floodem.hmt``), so no call site is missed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict

import hostref


def _gmm_variant(args, kwargs):
    use_elev = kwargs.get("use_elevation", args[2] if len(args) > 2 else False)
    return "gmm.em_fit.gmm-elev" if use_elev else "gmm.em_fit.gmm"


def _count_log_pdf(counts, args, kwargs, result):
    n = int(args[1].shape[0])
    counts["gaussian.log_pdf.rows"] += n
    # Computed, not measured: the (n, m) points read once plus the (n,) output.
    counts["gaussian.bytes_computed"] += 8 * n * (args[0].dim + 1)


def _count_weighted_mle(counts, args, kwargs, result):
    n = int(args[0].shape[0])
    counts["gaussian.weighted_mle.rows"] += n
    # Computed, not measured: the (n, m) points and the (n,) weights read once.
    counts["gaussian.bytes_computed"] += 8 * n * (result.dim + 1)


def _count_load_scene(counts, args, kwargs, result):
    counts["grid.scene_bytes"] += os.path.getsize(args[0])


def _count_labels(counts, args, kwargs, result):
    counts["grid.labels"] += len(result)


def _count_tree(counts, args, kwargs, result):
    counts["hmt.nodes"] = max(counts["hmt.nodes"], result.n_nodes)
    counts["hmt.roots"] = max(counts["hmt.roots"], int(result.roots.size))


def _count_levels(counts, args, kwargs, result):
    counts["hmt.levels"] = max(counts["hmt.levels"], len(result))
    counts["hmt.max_level_nodes"] = max(
        counts["hmt.max_level_nodes"], max(int(g.size) for g in result)
    )


def _count_roc(counts, args, kwargs, result):
    counts["metrics.roc_points"] += int(result.points.shape[0])


# (module, attribute, span name or name function, counter). An attribute
# "Class.method" is replaced on the class.
TARGETS = (
    ("floodem.grid", "generate_scene", "grid.generate_scene", None),
    ("floodem.grid", "save_scene", "grid.save_scene", None),
    ("floodem.grid", "load_scene", "grid.load_scene", _count_load_scene),
    ("floodem.grid", "sample_labels", "grid.sample_labels", _count_labels),
    ("floodem.gaussian", "log_pdf", "gaussian.log_pdf", _count_log_pdf),
    ("floodem.gaussian", "weighted_mle", "gaussian.weighted_mle", _count_weighted_mle),
    ("floodem.gmm", "em_fit", _gmm_variant, None),
    ("floodem.gmm", "score_grid", "gmm.score_grid", None),
    ("floodem.gmm", "EmTrace.to_csv", "gmm.trace_to_csv", None),
    ("floodem.hmt", "build_flow_tree", "hmt.build_flow_tree", _count_tree),
    ("floodem.hmt", "FlowTree.level_groups", "hmt.level_groups", _count_levels),
    ("floodem.hmt", "em_fit", "hmt.em_fit", None),
    ("floodem.hmt", "m_step", "hmt.m_step", None),
    ("floodem.hmt", "e_step", "hmt.e_step", None),
    ("floodem.hmt", "map_decode", "hmt.map_decode", None),
    ("floodem.metrics", "class_report", "metrics.class_report", None),
    ("floodem.metrics", "roc_auc", "metrics.roc_auc", _count_roc),
    ("floodem.metrics", "salt_pepper_count", "metrics.salt_pepper_count", None),
    ("floodem.metrics", "write_roc_csv", "metrics.write_roc_csv", None),
)


class Tracer:
    """In-memory spans (name, parent index, start, end) plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name(args, kwargs) if callable(name) else name)
            self.counts[f"calls:{self.spans[idx][0]}"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every floodem binding of each target with a traced wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "floodem" or n.startswith("floodem.")]
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, counter))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(orig, name, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, traced)

    def summary(self) -> dict:
        """Per span name: inclusive seconds, self seconds and calls; plus counters."""
        total: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, parent, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for idx, (name, parent, start, end) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[idx]
        return {"total_s": dict(total), "self_s": dict(self_s), "counts": dict(self.counts)}

    def names_under(self, root: int) -> set[str]:
        """Names of every span nested below span ``root``."""
        below = {root}
        names = set()
        for idx in range(root + 1, len(self.spans)):
            if self.spans[idx][1] in below:
                below.add(idx)
                names.add(self.spans[idx][0])
        return names


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from floodem import cli

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    calls = []
    missing = []
    if job["ref"]:
        hostref.reference()  # warm-up, discarded
        ref_before = hostref.reference()
    for entry in job["calls"]:
        argv, required = entry["argv"], entry.get("required", [])
        span = tracer.open(f"cli.{argv[0]}") if tracer is not None else None
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash in one verb is a failed operation, not a harness crash
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
            if rc == 0:
                fired = tracer.names_under(span)
                missing += [f"{n} in `floodem {' '.join(argv)}`" for n in required if n not in fired]
        calls.append({"verb": argv[0], "rc": rc, "s": elapsed})
        if job["ref"]:
            ref_after = hostref.reference()
            calls[-1]["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
    result = {"calls": calls, "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    if missing:
        print("traced run: a wrapped function never fired: " + "; ".join(missing), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
