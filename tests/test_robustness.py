"""The paper's robustness claim on a grid of scenes: structured EM "is more
robust to class confusion caused by noise and obstacles".

The grid is fixed: 128x128, scene seed 7, obstacle fraction 0.15, 0.30 and
0.45 by noise sigma 0, 6 and 12, ratio 1e-3, each cell the mean avg F over
label seeds 1-3, every method at the CLI defaults through the verbs' own
steps (``cli._train``, ``cli._predict``, ``cli._evaluate``). Two claims are
asserted:

- hmt has the highest mean avg F in every cell;
- at each obstacle fraction, hmt's lead over gmm-elev rises strictly with
  noise.

Every gmm-elev and hmt fit must stop on ``tol``. Nothing is asserted about
gmm's own figures: some of its fits stop at the iteration cap, and the table
lists its stop reasons. Run with ``pytest tests/test_robustness.py -s`` to see
the table. A failing cell is a finding to report, not a reason to change the
grid, the seeds or the ratio.
"""

import numpy as np
import pytest

from floodem import cli
from floodem.grid import SceneSpec, generate_scene, sample_labels

OBSTACLES = (0.15, 0.30, 0.45)
NOISES = (0.0, 6.0, 12.0)
LABEL_SEEDS = (1, 2, 3)
RATIO = 1e-3


@pytest.fixture(scope="module")
def grid():
    """{(noise, obstacles): {method: (mean avg F, stop reasons)}}, printed as a table."""
    cfg = cli.RunConfig()
    cells = {}
    for noise in NOISES:
        for obstacles in OBSTACLES:
            spec = SceneSpec(width=128, height=128, obstacle_fraction=obstacles, noise_sigma=noise, seed=7)
            scene, _ = generate_scene(spec)
            runs = {method: ([], []) for method in cli.METHODS}
            for seed in LABEL_SEEDS:
                labels = sample_labels(scene, RATIO, rng_seed=seed)
                for method in cli.METHODS:
                    model, trace = cli._train(method, scene, labels, cfg)
                    classes, scores = cli._predict(model, scene)
                    report, _, _ = cli._evaluate(classes, scores, scene.truth, None, cfg.neighborhood)
                    runs[method][0].append(report.avg_f)
                    runs[method][1].append(trace.stop_reason)
            cells[noise, obstacles] = {m: (float(np.mean(f)), stops) for m, (f, stops) in runs.items()}
    print()
    print("| noise σ | obstacles | gmm (stop reasons, label seeds 1-3)  | gmm-elev | hmt   | hmt lead |")
    print("| ------- | --------- | ------------------------------------ | -------- | ----- | -------- |")
    for (noise, obstacles), cell in cells.items():
        gmm_f = f"{cell['gmm'][0]:.3f} ({', '.join(cell['gmm'][1])})"
        print(f"| {noise:<7g} | {obstacles:<9.2f} | {gmm_f:<36} | {cell['gmm-elev'][0]:<8.3f} "
              f"| {cell['hmt'][0]:.3f} | {cell['hmt'][0] - cell['gmm-elev'][0]:<8.3f} |")
    # Printed, not asserted: at noise 0 hmt loses more F than gmm-elev.
    for noise in NOISES:
        lost = {m: cells[noise, OBSTACLES[0]][m][0] - cells[noise, OBSTACLES[-1]][m][0] for m in ("gmm-elev", "hmt")}
        print(f"noise {noise:g}: F lost from obstacles {OBSTACLES[0]} to {OBSTACLES[-1]}: "
              f"gmm-elev {lost['gmm-elev']:.3f}, hmt {lost['hmt']:.3f}")
    return cells


def test_hmt_has_the_highest_mean_avg_f_in_every_cell(grid):
    for (noise, obstacles), cell in grid.items():
        best = max(cell, key=lambda method: cell[method][0])
        assert best == "hmt", f"noise {noise:g}, obstacles {obstacles}: {best} leads, {cell}"


@pytest.mark.parametrize("obstacles", OBSTACLES)
def test_hmt_lead_over_gmm_elev_rises_strictly_with_noise(grid, obstacles):
    leads = [grid[noise, obstacles]["hmt"][0] - grid[noise, obstacles]["gmm-elev"][0] for noise in NOISES]
    assert all(a < b for a, b in zip(leads, leads[1:])), f"obstacles {obstacles}: leads {leads} by noise {NOISES}"


def test_every_gmm_elev_and_hmt_fit_stops_on_tol(grid):
    for key, cell in grid.items():
        for method in ("gmm-elev", "hmt"):
            assert cell[method][1] == ["tol"] * len(LABEL_SEEDS), f"{key} {method}: {cell[method][1]}"
