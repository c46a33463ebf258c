"""Self-test of the benchmark harness on a tiny scene.

Usage (from the root of a checkout): python3 perfbench/selftest.py

On two scene seeds it checks that
  * both modes print every metric BENCHMARK.json declares, with its unit, in
    the readable lines and in the last-line result object, and that
    ``ok_frac`` and the ``fail_frac`` line agree with ``failed / attempted``;
  * a decoded hmt map with one flood pixel placed over a dry parent is counted
    as exactly one more failed operation;
  * the ordering check follows the avg-F values it is given, not a seed.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import shutil
import sys

import run
from run import SRC, WORK, Context, Workload

TINY = Workload(48, 6.0, (5e-2,))
SEEDS = (7, 3)


def check(cond: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def check_printing(ctx: Context, trace: bool, failures: list[str]) -> None:
    metrics, wall, attempted, fails = run.measure(ctx, 0.0, trace)
    buf = io.StringIO()
    run.emit(metrics, wall, attempted, fails, trace, run.environment("selftest", ctx.seed), out=buf)
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    units = run.declared(trace)
    mode = f"seed {ctx.seed}, trace {int(trace)}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(not fails, f"{mode}: no operation failed, paper ordering included {fails}", failures)
    check(got == units, f"{mode}: result carries every declared metric with its unit", failures)
    printed = {tuple(line.split()[::2]) for line in lines[1:-1]}
    check(all((name, unit) in printed for name, unit in units.items()),
          f"{mode}: every metric printed as 'name value unit'", failures)
    fail_line = next(line for line in lines if line.startswith("fail_frac"))
    check(float(fail_line.split()[1]) == result["failed"] / result["attempted"],
          f"{mode}: fail_frac line equals failed / attempted", failures)
    if not trace:
        check(abs(metrics["ok_frac"] - (1 - result["failed"] / result["attempted"])) < 1e-12,
              f"{mode}: ok_frac equals 1 - failed / attempted", failures)


def check_injected_violation(ctx: Context, failures: list[str]) -> None:
    import numpy as np
    from floodem.grid import load_scene, save_scene

    ctx.round = 0
    run.run_round(ctx, False)
    pdir = ctx.rundir / "plain"
    n0, f0, _ = run.check_outputs(ctx, pdir)
    for ratio, lseed in ctx.label_sets():
        path = pdir / "hmt" / f"r{ratio:g}-s{lseed}" / "pred.sgrid"
        scene = load_scene(str(path))
        pred = scene.data[0].ravel()
        dry = pred < 0.5
        candidates = np.flatnonzero((ctx.parent >= 0) & dry & dry[np.maximum(ctx.parent, 0)])
        pred[candidates[0]] = 1.0
        scene.data[0] = pred.reshape(scene.height, scene.width)
        save_scene(scene, str(path))
        break
    n1, f1, _ = run.check_outputs(ctx, pdir)
    new = [msg for msg in f1 if msg not in f0]
    check(n1 == n0 and len(f1) == len(f0) + 1 and len(new) == 1 and "1 flood pixels over a dry parent" in new[0],
          f"seed {ctx.seed}: one flood pixel over a dry parent counts as one failure", failures)


def main() -> int:
    sys.path.insert(0, str(SRC))
    failures: list[str] = []
    check(run.ordering_holds({"hmt": 0.9, "gmm-elev": 0.8, "gmm": 0.7}), "ordering accepts 0.9 > 0.8 > 0.7", failures)
    for swapped in ({"hmt": 0.8, "gmm-elev": 0.9, "gmm": 0.7}, {"hmt": 0.9, "gmm-elev": 0.7, "gmm": 0.7}):
        check(not run.ordering_holds(swapped), f"ordering rejects {swapped}", failures)
    WORK.mkdir(exist_ok=True)
    for seed in SEEDS:
        rundir = WORK / f"selftest-s{seed}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir()
        ctx = Context(TINY, seed, rundir)
        try:
            for trace in (False, True):
                check_printing(ctx, trace, failures)
            check_injected_violation(ctx, failures)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
    print("selftest passed" if not failures else f"selftest FAILED: {len(failures)} checks")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
