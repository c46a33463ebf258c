import io
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from floodem import cli, gaussian, hmt, oracle
from floodem.errors import DataError, SpecError
from floodem.grid import RasterScene, SceneSpec, generate_scene, load_labels, load_scene, save_scene

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared toy scene + labels on disk for the CLI round trips."""
    root = tmp_path_factory.mktemp("cliwork")
    spec = root / "spec.txt"
    spec.write_text(
        "width=24\nheight=24\nobstacle_fraction=0.25\nlabels_per_class=20\nseed=9\n"
    )
    rc = cli.main(
        [
            "synth",
            "--spec", str(spec),
            "--out-scene", str(root / "scene.sgrid"),
            "--out-labels", str(root / "labels.txt"),
        ]
    )
    assert rc == 0
    return root


def test_synth_minimal_spec_uses_defaults(tmp_path, capsys):
    spec = tmp_path / "empty.txt"
    spec.write_text("# all defaults\n")
    rc = cli.main(
        [
            "synth",
            "--spec", str(spec),
            "--out-scene", str(tmp_path / "s.sgrid"),
            "--out-labels", str(tmp_path / "l.txt"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "128x128, 4 channels" in out
    scene = load_scene(str(tmp_path / "s.sgrid"))
    assert (scene.width, scene.height, scene.channels) == (128, 128, 4)
    assert scene.elevation_channel == 3 and scene.truth is not None


def test_synth_reports_obstacle_fraction(workdir, capsys, tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("width=16\nheight=16\nobstacle_fraction=0.3\nlabels_per_class=5\n")
    cli.main(
        [
            "synth",
            "--spec", str(spec),
            "--out-scene", str(tmp_path / "s.sgrid"),
            "--out-labels", str(tmp_path / "l.txt"),
        ]
    )
    assert "obstacle fraction: 0.300" in capsys.readouterr().out


def test_synth_is_byte_deterministic(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("width=16\nheight=16\nlabels_per_class=5\nseed=4\n")
    for tag in ("a", "b"):
        cli.main(
            [
                "synth",
                "--spec", str(spec),
                "--out-scene", str(tmp_path / f"s{tag}.sgrid"),
                "--out-labels", str(tmp_path / f"l{tag}.txt"),
            ]
        )
    assert (tmp_path / "sa.sgrid").read_bytes() == (tmp_path / "sb.sgrid").read_bytes()
    assert (tmp_path / "la.txt").read_bytes() == (tmp_path / "lb.txt").read_bytes()


def test_spec_parse_error_carries_line_number(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("width=16\nbogus_key=3\n")
    rc = cli.main(
        [
            "synth",
            "--spec", str(spec),
            "--out-scene", str(tmp_path / "s.sgrid"),
            "--out-labels", str(tmp_path / "l.txt"),
        ]
    )
    assert rc == 3


def test_train_hmt_trace_starts_at_reference_defaults(workdir, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(
        [
            "train", "--method", "hmt",
            "--scene", str(workdir / "scene.sgrid"),
            "--labels", str(workdir / "labels.txt"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["iter", *hmt.model_keys(hmt.HmtModel, 3), "loglik", "maxrel"]
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["rho"]) == 0.99
    assert float(first["pi1"]) == 0.5


@pytest.mark.parametrize("method", ["gmm", "gmm-elev"])
def test_mixture_fits_write_no_rho(workdir, tmp_path, method):
    # the mixture is EM on the edgeless forest: no edge, so no rho anywhere
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(
            [
                "train", "--method", method,
                "--scene", str(workdir / "scene.sgrid"),
                "--labels", str(workdir / "labels.txt"),
                "--out", str(out),
            ]
        )
    assert rc == 0
    keys = [line.split("=")[0] for line in (out / "model.txt").read_text().splitlines()]
    assert "pi1" in keys and "rho" not in keys
    header = (out / "trace.csv").read_text().splitlines()[0].split(",")
    assert header == ["iter", *keys, "loglik", "maxrel"]


def test_train_gmm_trace_is_monotone(workdir, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(
        [
            "train", "--method", "gmm",
            "--scene", str(workdir / "scene.sgrid"),
            "--labels", str(workdir / "labels.txt"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["iter", "use_elevation", "pi1"]
    logliks = [float(row.split(",")[-2]) for row in lines[1:]]
    assert all(b >= a - 1e-8 for a, b in zip(logliks, logliks[1:]))


def test_predict_gmm_class_grid_is_thresholded_score(workdir, tmp_path):
    """A mixture's MAP class is its posterior at 1/2, on a scene with no exact tie."""
    run = tmp_path / "run"
    cli.main(
        [
            "train", "--method", "gmm-elev",
            "--scene", str(workdir / "scene.sgrid"),
            "--labels", str(workdir / "labels.txt"),
            "--out", str(run),
        ]
    )
    rc = cli.main(
        [
            "predict",
            "--model", str(run / "model.txt"),
            "--scene", str(workdir / "scene.sgrid"),
            "--out", str(run),
        ]
    )
    assert rc == 0
    pred = cli._load_grid(str(run / "pred.sgrid"))
    score = cli._load_grid(str(run / "score.sgrid"))
    np.testing.assert_array_equal(pred, (score >= 0.5).astype(float))


def test_score_grid_round_trips_scene_format(tmp_path, rng):
    values = rng.uniform(size=(5, 7))
    path = tmp_path / "score.sgrid"
    cli._save_grid(values, str(path))
    np.testing.assert_array_equal(cli._load_grid(str(path)), values)


def test_predict_hmt_respects_monotone_flood(workdir, tmp_path):
    run = tmp_path / "run"
    cli.main(
        [
            "train", "--method", "hmt",
            "--scene", str(workdir / "scene.sgrid"),
            "--labels", str(workdir / "labels.txt"),
            "--out", str(run),
        ]
    )
    cli.main(
        [
            "predict",
            "--model", str(run / "model.txt"),
            "--scene", str(workdir / "scene.sgrid"),
            "--out", str(run),
        ]
    )
    pred = cli._load_grid(str(run / "pred.sgrid")).ravel()
    scene = load_scene(str(workdir / "scene.sgrid"))
    tree = hmt.build_flow_tree(scene.elevation())
    for node in np.flatnonzero(pred == 1):
        p = tree.parent[node]
        while p >= 0:
            assert pred[p] == 1
            p = tree.parent[p]


def test_predict_hmt_uses_the_saved_neighborhood(workdir, tmp_path):
    """A tree model decodes on the forest it was trained on; a config file
    naming another neighborhood is accepted, and predict does not read it."""
    run = tmp_path / "run"
    scene_path = str(workdir / "scene.sgrid")
    model_path = str(run / "model.txt")
    cli.main(
        [
            "train", "--method", "hmt",
            "--scene", scene_path,
            "--labels", str(workdir / "labels.txt"),
            "--neighborhood", "4",
            "--out", str(run),
        ]
    )
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("neighborhood=8\n")
    predict = ["predict", "--model", model_path, "--scene", scene_path, "--config", str(cfgfile),
               "--out", str(run)]
    assert cli.main(predict) == 0
    pred = cli._load_grid(str(run / "pred.sgrid")).ravel()
    scene = load_scene(scene_path)
    model = hmt.load_model(model_path)
    feats = scene.feature_matrix(use_elevation=False)
    on_4 = hmt.predict(model, hmt.build_flow_tree(scene.elevation(), 4), feats)[0]
    on_8 = hmt.predict(model, hmt.build_flow_tree(scene.elevation(), 8), feats)[0]
    assert np.any(on_4 != on_8)  # the test can tell the two forests apart
    np.testing.assert_array_equal(pred, on_4)


@pytest.mark.parametrize("method", ["gmm", "gmm-elev", "hmt"])
def test_one_predict_computes_each_raw_density_once(workdir, monkeypatch, method):
    """A prediction of either family evaluates each class's raw density once
    over the scene; its posterior and its MAP labeling share them."""
    scene = load_scene(str(workdir / "scene.sgrid"))
    model, _ = cli._train(method, scene, load_labels(str(workdir / "labels.txt")), cli.RunConfig(max_iter=2))
    rows, log_pdf = [], hmt.log_pdf

    def counting(g, x, **out):
        rows.append(np.shape(x)[0])
        return log_pdf(g, x, **out)

    monkeypatch.setattr(hmt, "log_pdf", counting)
    classes, scores = cli._predict(model, scene)
    assert rows == [scene.n_pixels] * 2
    assert classes.shape == scores.shape == (scene.height, scene.width)


@pytest.mark.parametrize("method", ["hmt", "gmm"])
def test_predict_takes_no_neighborhood_flag(workdir, tmp_path, method):
    """The model file alone says which forest a model decodes on, so the flag
    is a usage error for either family, before any grid is written."""
    run = tmp_path / "run"
    train = ["train", "--method", method, "--scene", str(workdir / "scene.sgrid"),
             "--labels", str(workdir / "labels.txt"), "--out", str(run)]
    assert cli.main(train) == 0
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--model", str(run / "model.txt"), "--scene", str(workdir / "scene.sgrid"),
                  "--neighborhood", "4", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def _write_grids(tmp_path, pred, score, truth):
    scene = RasterScene(
        width=truth.shape[1], height=truth.shape[0], channels=1,
        data=np.zeros(truth.size), truth=truth,
    )
    save_scene(scene, str(tmp_path / "truth.sgrid"))
    cli._save_grid(pred.astype(float), str(tmp_path / "pred.sgrid"))
    cli._save_grid(score, str(tmp_path / "score.sgrid"))


def test_eval_perfect_and_inverted(tmp_path, rng, capsys):
    truth = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
    truth[0, 0], truth[0, 1] = 0, 1
    _write_grids(tmp_path, truth, truth.astype(float), truth)
    rc = cli.main(
        [
            "eval",
            "--pred", str(tmp_path / "pred.sgrid"),
            "--score", str(tmp_path / "score.sgrid"),
            "--truth", str(tmp_path / "truth.sgrid"),
            "--name", "perfect",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert "perfect,dry,1.000000,1.000000,1.000000" in report
    assert "perfect,flood,1.000000,1.000000,1.000000" in report

    _write_grids(tmp_path, 1 - truth, 1.0 - truth.astype(float), truth)
    cli.main(
        [
            "eval",
            "--pred", str(tmp_path / "pred.sgrid"),
            "--score", str(tmp_path / "score.sgrid"),
            "--truth", str(tmp_path / "truth.sgrid"),
            "--name", "inv",
            "--out", str(tmp_path),
        ]
    )
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert "inv,dry,0.000000,0.000000,0.000000" in report
    assert "inv,flood,0.000000,0.000000,0.000000" in report


def test_eval_rejects_a_transposed_score_grid(tmp_path, rng, capsys):
    truth = rng.integers(0, 2, size=(2, 3)).astype(np.uint8)
    truth[0, 0], truth[0, 1] = 0, 1
    _write_grids(tmp_path, truth, rng.random((3, 2)), truth)
    rc = cli.main(["eval", "--pred", str(tmp_path / "pred.sgrid"),
                   "--score", str(tmp_path / "score.sgrid"),
                   "--truth", str(tmp_path / "truth.sgrid"),
                   "--name", "t", "--out", str(tmp_path)])
    assert rc == 3
    assert "shape" in capsys.readouterr().err


def test_eval_checkerboard_salt_pepper(tmp_path):
    truth = (np.indices((6, 6)).sum(axis=0) % 2).astype(np.uint8)
    _write_grids(tmp_path, truth, truth.astype(float), truth)
    cli.main(
        [
            "eval",
            "--pred", str(tmp_path / "pred.sgrid"),
            "--score", str(tmp_path / "score.sgrid"),
            "--truth", str(tmp_path / "truth.sgrid"),
            "--name", "board",
            "--neighborhood", "4",
            "--out", str(tmp_path),
        ]
    )
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[report.index("method,salt_pepper_count") + 1] == "board,36"


def test_compare_matches_individual_runs(workdir, tmp_path):
    """compare writes, per method, the files train, predict and eval write, and its
    report holds their report rows block by block, in method order."""
    cmp_dir = tmp_path / "cmp"
    rc = cli.main(
        [
            "compare",
            "--scene", str(workdir / "scene.sgrid"),
            "--labels", str(workdir / "labels.txt"),
            "--out", str(cmp_dir),
        ]
    )
    assert rc == 0
    blocks = {}
    for method in cli.METHODS:
        solo = tmp_path / f"solo_{method}"
        cli.main(
            [
                "train", "--method", method,
                "--scene", str(workdir / "scene.sgrid"),
                "--labels", str(workdir / "labels.txt"),
                "--out", str(solo),
            ]
        )
        cli.main(
            [
                "predict",
                "--model", str(solo / "model.txt"),
                "--scene", str(workdir / "scene.sgrid"),
                "--out", str(solo),
            ]
        )
        cli.main(
            [
                "eval",
                "--pred", str(solo / "pred.sgrid"),
                "--score", str(solo / "score.sgrid"),
                "--truth", str(workdir / "scene.sgrid"),
                "--name", method,
                "--out", str(solo),
            ]
        )
        for name in ("model.txt", "trace.csv", "pred.sgrid", "score.sgrid"):
            stem, ext = name.split(".")
            assert (solo / name).read_bytes() == (cmp_dir / f"{stem}_{method}.{ext}").read_bytes(), name
        assert (solo / f"roc_{method}.csv").read_bytes() == (cmp_dir / f"roc_{method}.csv").read_bytes()
        for line in (solo / "report.csv").read_text().splitlines():
            if line.startswith("method,"):
                header = blocks.setdefault(line, [line])
            else:
                header.append(line)
    assert len(blocks) == 3
    expected = [line for block in blocks.values() for line in block]
    assert (cmp_dir / "compare.csv").read_text().splitlines() == expected


def test_compare_easy_scene_all_methods_near_perfect(tmp_path):
    spec = tmp_path / "easy.txt"
    spec.write_text(
        "width=32\nheight=32\nobstacle_fraction=0\nnoise_sigma=0\nlabels_per_class=20\nseed=5\n"
    )
    cli.main(
        [
            "synth", "--spec", str(spec),
            "--out-scene", str(tmp_path / "easy.sgrid"),
            "--out-labels", str(tmp_path / "easy_labels.txt"),
        ]
    )
    out = tmp_path / "cmp"
    rc = cli.main(
        [
            "compare",
            "--scene", str(tmp_path / "easy.sgrid"),
            "--labels", str(tmp_path / "easy_labels.txt"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    f1 = {}
    for line in (out / "compare.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        if len(parts) == 5 and parts[0] in cli.METHODS:
            f1.setdefault(parts[0], []).append(float(parts[4]))
    for method in cli.METHODS:
        assert sum(f1[method]) / 2 >= 0.99


def test_compare_reproduces_the_headline_ordering(workdir, tmp_path):
    cmp_dir = tmp_path / "cmp"
    cli.main(
        [
            "compare",
            "--scene", str(workdir / "scene.sgrid"),
            "--labels", str(workdir / "labels.txt"),
            "--out", str(cmp_dir),
        ]
    )
    lines = (cmp_dir / "compare.csv").read_text().splitlines()
    f1 = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) == 5 and parts[0] in cli.METHODS:
            f1.setdefault(parts[0], []).append(float(parts[4]))
    avg = {m: sum(v) / len(v) for m, v in f1.items()}
    assert avg["hmt"] >= avg["gmm-elev"] >= avg["gmm"]


def test_sweep_labels_handles_tiny_ratios(workdir, tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(
        [
            "sweep-labels",
            "--scene", str(workdir / "scene.sgrid"),
            "--ratios", "0.001,0.05",
            "--seeds", "1,2,3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "method,ratio,seed,avg_f,reason"
    rows = [line.split(",", 4) for line in lines[1:]]
    assert len(rows) == 2 * 3 * 3  # ratios x seeds x methods
    tiny = [r for r in rows if r[1] == "0.001"]
    assert all(r[3] == "nan" and r[4] for r in tiny)  # 1 label/class cannot initialize
    healthy = [r for r in rows if r[1] == "0.05"]
    assert all(float(r[3]) > 0.5 and not r[4] for r in healthy)
    assert {(r[0], r[2]) for r in healthy} == {
        (m, s) for m in cli.METHODS for s in ("1", "2", "3")
    }


def test_verify_passes_on_fresh_build(capsys):
    assert oracle.run_verify(n_trees=20, seed=3) is True
    out = capsys.readouterr().out
    assert out.count("ok  ") == 5


def test_verify_catches_corrupted_transition_update(monkeypatch):
    real = hmt.m_step

    def corrupted(marginal, tree, lift, model, **work):
        model = real(marginal, tree, lift, model, **work)
        if not isinstance(model, hmt.HmtModel):
            return model  # the mixture's update has no rho to bend
        bent = min(max(model.rho * 0.6, 1e-6), 1.0)
        return hmt.HmtModel(rho=bent, pi1=model.pi1, components=model.components)

    monkeypatch.setattr(hmt, "m_step", corrupted)
    sink = io.StringIO()
    assert oracle.run_verify(n_trees=10, seed=0, out=sink) is False
    assert "FAIL transition update" in sink.getvalue()


def test_verify_catches_a_corrupted_lift(monkeypatch):
    real = gaussian.Lifted.__init__

    def corrupted(self, points):
        real(self, points)
        self.phi[-1] *= 1.0 + 1e-6

    monkeypatch.setattr(gaussian.Lifted, "__init__", corrupted)
    sink = io.StringIO()
    assert oracle.run_verify(n_trees=10, seed=0, out=sink) is False
    assert "FAIL lifted Gaussian" in sink.getvalue()


def test_verify_catches_a_fit_bug_the_lift_and_raw_points_would_share(monkeypatch):
    """The lift line's reference is the oracle's own raw-point fit, so a bug in
    `weighted_mle` cannot cancel out of the comparison."""
    real = gaussian.weighted_mle

    def corrupted(points, weights):
        g = real(points, weights)
        return gaussian.GaussianParams(g.mean * (1.0 + 1e-6), g.cov)

    for module in (gaussian, hmt, oracle):
        monkeypatch.setattr(module, "weighted_mle", corrupted)
    sink = io.StringIO()
    assert oracle.run_verify(n_trees=10, seed=0, out=sink) is False
    assert "FAIL lifted Gaussian" in sink.getvalue()


def test_verify_catches_a_broken_difference_fit(monkeypatch):
    """`m_step` fits its heavier class from the lift's column sums minus the
    lighter class's sums; the lift line checks that fit against the raw points."""
    real = gaussian.Lifted.__init__

    def corrupted(self, points):
        real(self, points)
        self.sums = self.sums * (1.0 + 1e-6)

    monkeypatch.setattr(gaussian.Lifted, "__init__", corrupted)
    sink = io.StringIO()
    assert oracle.run_verify(n_trees=10, seed=0, out=sink) is False
    assert "FAIL lifted Gaussian" in sink.getvalue()


def test_verify_mixture_line_counts_em_maps_and_names_the_stop():
    """Trace row 0 is the initial model, so 100 maps are 101 rows; the 16x16
    fit stops at the cap, and the line says so."""
    sink = io.StringIO()
    assert oracle.run_verify(n_trees=1, seed=0, out=sink) is True
    assert ("ok   mixture EM log likelihood is non-decreasing "
            "(100 EM maps, stop max_iter, worst drop 0)\n") in sink.getvalue()


def test_config_file_with_flag_override(workdir, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        f"method=gmm\nscene={workdir / 'scene.sgrid'}\n"
        f"labels={workdir / 'labels.txt'}\nmax_iter=3\nout={tmp_path / 'a'}\n"
    )
    rc = cli.main(["train", "--config", str(cfgfile)])
    assert rc == 0
    a_rows = (tmp_path / "a" / "trace.csv").read_text().splitlines()
    assert len(a_rows) - 1 <= 4  # config max_iter honored

    rc = cli.main(["train", "--config", str(cfgfile), "--max-iter", "1", "--out", str(tmp_path / "b")])
    assert rc == 0
    b_rows = (tmp_path / "b" / "trace.csv").read_text().splitlines()
    assert len(b_rows) - 1 == 2  # flag beats config: init row + one update


def test_exit_codes(workdir, tmp_path):
    # data error: missing scene file
    rc = cli.main(
        ["train", "--method", "gmm", "--scene", str(tmp_path / "nope.sgrid"),
         "--labels", str(workdir / "labels.txt"), "--out", str(tmp_path)]
    )
    assert rc == 3
    # usage error: unknown method
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--method", "nonsense"])
    assert exc.value.code == 2
    # usage error: neither labels nor ratio
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--method", "gmm", "--scene", str(workdir / "scene.sgrid")])
    assert exc.value.code == 2


def _train_and_predict(workdir, run, method, *extra):
    train = ["train", "--method", method, "--scene", str(workdir / "scene.sgrid"),
             "--labels", str(workdir / "labels.txt"), "--out", str(run), *extra]
    assert cli.main(train) == 0
    predict = ["predict", "--model", str(run / "model.txt"),
               "--scene", str(workdir / "scene.sgrid"), "--out", str(run)]
    return cli.main(predict)


def test_predict_reads_a_tree_model_with_spaced_keys(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train_and_predict(workdir, run, "hmt") == 0
    before = (run / "pred.sgrid").read_bytes()
    model_file = run / "model.txt"
    model_file.write_text(model_file.read_text().replace("=", " = "))
    assert hmt.load_model(str(model_file)).rho > 0.0  # the tree reader accepts spaces
    predict = ["predict", "--model", str(model_file),
               "--scene", str(workdir / "scene.sgrid"), "--out", str(run)]
    assert cli.main(predict) == 0, capsys.readouterr().err
    assert (run / "pred.sgrid").read_bytes() == before


def test_predict_rejects_a_malformed_model_key(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train_and_predict(workdir, run, "gmm") == 0
    model_file = run / "model.txt"
    model_file.write_text(model_file.read_text() + "mean.0.x=1\n")
    capsys.readouterr()
    predict = ["predict", "--model", str(model_file),
               "--scene", str(workdir / "scene.sgrid"), "--out", str(run)]
    assert cli.main(predict) == 3
    assert "mean.0.x" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--rho", "1.5"), ("--rho", "nan"), ("--rho", "0"),
                                         ("--pi", "1.5"), ("--pi", "-0.2")])
def test_train_rejects_out_of_range_parameters(workdir, tmp_path, capsys, flag, value):
    train = ["train", "--method", "hmt", "--scene", str(workdir / "scene.sgrid"),
             "--labels", str(workdir / "labels.txt"), "--max-iter", "0", "--out", str(tmp_path),
             flag, value]
    assert cli.main(train) == 3
    assert ("rho" if flag == "--rho" else "pi1") in capsys.readouterr().err
    assert not (tmp_path / "model.txt").exists()


@pytest.mark.parametrize("key, value", [("rho", "1.5"), ("rho", "nan"), ("rho", "0"),
                                        ("pi1", "-0.2"), ("pi1", "inf")])
def test_predict_rejects_a_model_file_with_out_of_range_values(workdir, tmp_path, capsys, key, value):
    run = tmp_path / "run"
    assert _train_and_predict(workdir, run, "hmt") == 0
    model_file = run / "model.txt"
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
             for line in model_file.read_text().splitlines()]
    model_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    predict = ["predict", "--model", str(model_file),
               "--scene", str(workdir / "scene.sgrid"), "--out", str(run)]
    assert cli.main(predict) == 3
    assert key in capsys.readouterr().err


def test_predict_rejects_an_asymmetric_covariance(workdir, tmp_path, capsys):
    """A model file's covariance is read as it stands: unequal off-diagonal
    entries are a data error naming the class, not averaged into a model."""
    run = tmp_path / "run"
    assert cli.main(["train", "--method", "hmt", "--scene", str(workdir / "scene.sgrid"),
                     "--labels", str(workdir / "labels.txt"), "--out", str(run)]) == 0
    model_file = run / "model.txt"
    edits = {"cov.0.0.1": "0.2", "cov.0.1.0": "0.6"}
    pairs = [line.split("=") for line in model_file.read_text().splitlines()]
    model_file.write_text("".join(f"{key}={edits.get(key, value)}\n" for key, value in pairs))
    capsys.readouterr()
    predict = ["predict", "--model", str(model_file),
               "--scene", str(workdir / "scene.sgrid"), "--out", str(run)]
    assert cli.main(predict) == 3
    assert f"{model_file}: class 0's covariance is not symmetric" in capsys.readouterr().err
    assert not list(run.glob("*.sgrid"))


@pytest.mark.parametrize("method, edit, named", [
    ("hmt", lambda text: text.replace("rho=", "rh0=") + "mean.2.0=7\n", "rh0"),
    ("gmm", lambda text: text + "neighborhood=4\n", "neighborhood"),
    ("gmm", lambda text: text + "mean.1.3=7\n", "mean.1.3"),
])
def test_predict_rejects_unknown_model_keys(workdir, tmp_path, capsys, method, edit, named):
    run = tmp_path / "run"
    assert _train_and_predict(workdir, run, method) == 0
    model_file = run / "model.txt"
    model_file.write_text(edit(model_file.read_text()))
    capsys.readouterr()
    predict = ["predict", "--model", str(model_file),
               "--scene", str(workdir / "scene.sgrid"), "--out", str(run)]
    assert cli.main(predict) == 3
    assert f"unknown key '{named}'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--ratios", "0.01,x"), ("--seeds", "1,two"), ("--seeds", "1,-1"),
                                         ("--ratios", "2"), ("--ratios", "-1"), ("--ratios", "nan,0.01")])
def test_sweep_labels_rejects_a_bad_list_as_usage_error(workdir, tmp_path, flag, value):
    argv = {"--ratios": "0.05", "--seeds": "1", flag: value}
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep-labels", "--scene", str(workdir / "scene.sgrid"),
                  "--ratios", argv["--ratios"], "--seeds", argv["--seeds"],
                  "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("line", ["neighborhood=5", "method=foo"])
@pytest.mark.parametrize("verb", ["train", "compare", "eval"])
def test_a_bad_config_value_fails_before_any_work(workdir, tmp_path, capsys, verb, line):
    """A config value outside its flag's choices is a data error naming its
    line, raised before any output is written."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"tol=1e-3\n{line}\n")
    out = tmp_path / "out"
    scene = str(workdir / "scene.sgrid")
    argv = {
        "train": ["--scene", scene, "--labels", str(workdir / "labels.txt")],
        "compare": ["--scene", scene, "--labels", str(workdir / "labels.txt")],
        "eval": ["--pred", scene, "--score", scene, "--truth", scene],
    }[verb]
    assert cli.main([verb, *argv, "--config", str(cfgfile), "--out", str(out)]) == 3
    assert f"{cfgfile}:2: bad value for {line.split('=')[0]}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("verb", ["synth", "train", "compare", "verify"])
def test_negative_seed_is_a_data_error(workdir, tmp_path, capsys, monkeypatch, verb):
    """Every seed goes through one non-negative cast, before any random
    generator is built: a flag is a usage error, and a config or spec value
    a data error naming its line."""
    def no_generator(*args):
        raise AssertionError("a random generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    scene = str(workdir / "scene.sgrid")
    argv = {
        "synth": ["--out-scene", str(tmp_path / "s.sgrid"), "--out-labels", str(tmp_path / "l.txt")],
        "train": ["--method", "gmm", "--scene", scene, "--ratio", "0.01", "--out", str(tmp_path)],
        "compare": ["--scene", scene, "--ratio", "0.01", "--out", str(tmp_path)],
        "verify": [],
    }[verb]
    given = tmp_path / "given.txt"
    given.write_text("width=16\nseed=-1\n" if verb == "synth" else "tol=1e-3\nseed=-1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, *argv, "--seed", "-1"] + ["--spec", str(workdir / "spec.txt")] * (verb == "synth"))
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    if verb != "verify":
        assert cli.main([verb, *argv, "--spec" if verb == "synth" else "--config", str(given)]) == 3
        assert f"{given}:2: bad value for seed" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["given.txt"]


@pytest.mark.parametrize("trees", [0, -3])
def test_verify_without_trees_is_a_data_error(capsys, trees):
    assert cli.main(["verify", "--trees", str(trees)]) == 3
    captured = capsys.readouterr()
    assert "at least one tree" in captured.err and "ok" not in captured.out


@pytest.mark.parametrize("verb", ["train", "sweep-labels"])
def test_negative_max_iter_is_a_data_error(workdir, tmp_path, capsys, verb):
    # and so is a tol that cannot be a tolerance: inf would stop after one update
    argv = [verb, "--scene", str(workdir / "scene.sgrid"), "--out", str(tmp_path)]
    if verb == "train":
        argv += ["--method", "gmm", "--labels", str(workdir / "labels.txt")]
    else:
        argv += ["--ratios", "0.05", "--seeds", "1"]
    for flag, value in [("--max-iter", "-1"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1")]:
        assert cli.main([*argv, flag, value]) == 3
        assert flag[2:].replace("-", "_") in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "2", "-1", "0.5"])
@pytest.mark.parametrize("verb", ["predict", "compare", "sweep-labels"])
def test_out_of_range_cutoff_is_rejected(workdir, tmp_path, capsys, verb, value):
    """No verb takes a cutoff, in range or out of it: a model's classes are its
    own posterior decision. The flag is a usage error, and the config key is
    unknown, raised before any output."""
    scene = str(workdir / "scene.sgrid")
    argv = [verb, "--scene", scene, "--out", str(tmp_path)] + {
        "predict": ["--model", str(tmp_path / "model.txt")],
        "compare": ["--ratio", "0.05"],
        "sweep-labels": ["--ratios", "0.05", "--seeds", "1"],
    }[verb]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--cutoff", value])
    assert exc.value.code == 2
    assert "--cutoff" in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"tol=1e-3\ncutoff={value}\n")
    assert cli.main([*argv, "--config", str(cfgfile)]) == 3
    assert f"{cfgfile}:2: unknown key 'cutoff'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.sgrid"))


def test_train_warns_when_em_stops_at_the_cap(workdir, tmp_path, capsys):
    run = ["train", "--method", "gmm", "--scene", str(workdir / "scene.sgrid"),
           "--labels", str(workdir / "labels.txt"), "--out", str(tmp_path)]
    assert cli.main(run + ["--max-iter", "2", "--tol", "0"]) == 0
    err = capsys.readouterr().err
    assert "2-iteration cap" in err and "max relative change" in err
    assert cli.main(run + ["--tol", "1"]) == 0  # every update is below a tolerance of 1
    assert "cap" not in capsys.readouterr().err


def test_spec_pairs_must_agree_in_length(tmp_path):
    for text in ("mean0=1,2,3\nmean1=1,2\n", "var0=1,2\nvar1=1\n", "mean0=1,2,3\n",
                 "var0=0\nvar1=1\n", "obstacle_var=1,2\n", "features=3\nobstacle_mean=1,2\n"):
        spec = tmp_path / "spec.txt"
        spec.write_text("width=16\nheight=16\n" + text)
        with pytest.raises(SpecError, match=f"^{spec}: "):
            cli.parse_scene_spec(str(spec))


# Every spec-file key with its default written out.
_SPEC_DEFAULTS = """
width=128
height=128
features=3
ramp_height=100
bump_amplitude=8
bump_periods=3
water_level=median
mean0=40,45,50
mean1=90,95,100
var0=225
var1=225
obstacle_mean=65,70,75
obstacle_var=144
obstacle_fraction=0
noise_sigma=6
labels_per_class=100
seed=0
"""


def test_every_spec_key_is_a_scene_spec_field(tmp_path):
    """The SceneSpec fields are the spec file's keys, each with a cast, and a
    spec that writes out every default builds the scene SceneSpec() does."""
    keys = [line.split("=")[0] for line in _SPEC_DEFAULTS.split()]
    assert sorted(f.name for f in fields(SceneSpec)) == sorted(keys)
    assert all(callable(f.metadata["cast"]) for f in fields(SceneSpec))
    spec = tmp_path / "spec.txt"
    spec.write_text(_SPEC_DEFAULTS)
    (read, read_labels), (default, labels) = (generate_scene(s) for s in (cli.parse_scene_spec(str(spec)),
                                                                           SceneSpec()))
    np.testing.assert_array_equal(read.data, default.data)
    np.testing.assert_array_equal(read.truth, default.truth)
    assert np.array_equal(read_labels.entries, labels.entries)


def test_every_run_setting_has_a_config_cast(tmp_path):
    """Every RunConfig field has a cast and is reachable by a flag of some verb
    and by its config key."""
    flags = {action.dest for verb in cli.build_parser()._subparsers._group_actions[0].choices.values()
             for action in verb._actions}
    for f in fields(cli.RunConfig):
        assert callable(f.metadata["cast"]) and f.name in flags, f.name
        value = {"ratio": "0.5"}.get(f.name, str(f.default))
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{f.name}={value}\n")
        assert cli.load_config(str(cfgfile)) == {f.name: f.metadata["cast"](value)}, f.name


def _verb_parsers(parser):
    return parser._subparsers._group_actions[0].choices


@pytest.mark.parametrize("verb", cli.VERBS)
def test_a_verb_parser_built_alone_prints_the_full_parsers_texts(verb):
    """Built for one verb, the parser holds only that verb's subparser, and it
    prints the full parser's top-level usage (which a usage error prints) and
    the full parser's help for that verb."""
    alone, full = cli.build_parser(verb), cli.build_parser()
    assert list(_verb_parsers(alone)) == [verb]
    assert alone.format_usage() == full.format_usage()
    assert _verb_parsers(alone)[verb].format_help() == _verb_parsers(full)[verb].format_help()


def test_a_usage_error_reads_the_same_under_either_parser(monkeypatch, capsys):
    """`main` builds only the verb's subparser; a verb's own usage error prints
    the top-level usage line, which must still name every verb."""
    argv = ["train", "--method", "gmm", "--ratio", "0.1"]
    errs, build_parser = [], cli.build_parser
    for build in (build_parser, lambda verb=None: build_parser()):
        monkeypatch.setattr(cli, "build_parser", build)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("usage: floodem [-h] {synth,train,predict,eval,compare,sweep-labels,verify} ...\n")
    assert errs[0].endswith("floodem: error: --scene is required\n")


def test_predict_tree_model_on_an_unfit_scene_is_a_data_error(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train_and_predict(workdir, run, "hmt") == 0
    scene = load_scene(str(workdir / "scene.sgrid"))
    no_elevation = RasterScene(scene.width, scene.height, scene.channels, scene.data)
    one_channel_less = RasterScene(scene.width, scene.height, scene.channels - 1, scene.data[1:],
                                   elevation_channel=scene.elevation_channel - 1)
    for bad in (no_elevation, one_channel_less):
        save_scene(bad, str(tmp_path / "bad.sgrid"))
        capsys.readouterr()
        predict = ["predict", "--model", str(run / "model.txt"),
                   "--scene", str(tmp_path / "bad.sgrid"), "--out", str(run)]
        assert cli.main(predict) == 3
        assert "error:" in capsys.readouterr().err


def test_a_scene_without_an_elevation_channel(workdir, tmp_path, capsys):
    """gmm-elev reads the elevation channel as hmt builds its forest from it:
    on a scene without one, both fail alike and write nothing."""
    scene = load_scene(str(workdir / "scene.sgrid"))
    flat = RasterScene(scene.width, scene.height, scene.channels, scene.data, truth=scene.truth)
    with pytest.raises(DataError, match="scene has no elevation channel"):
        flat.feature_matrix(True)
    path = str(tmp_path / "flat.sgrid")
    save_scene(flat, path)
    capsys.readouterr()
    bad = tmp_path / "bad"
    assert cli.main(["train", "--method", "gmm-elev", "--scene", path,
                     "--labels", str(workdir / "labels.txt"), "--out", str(bad)]) == 3
    assert "error: scene has no elevation channel" in capsys.readouterr().err
    assert not (bad / "model.txt").exists()
    run = tmp_path / "run"
    assert _train_and_predict(workdir, run, "gmm-elev") == 0
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(run / "model.txt"), "--scene", path, "--out", str(bad)]) == 3
    assert "error: scene has no elevation channel" in capsys.readouterr().err
    assert not list(bad.glob("*.sgrid"))
    assert cli.main(["compare", "--scene", path, "--labels", str(workdir / "labels.txt"),
                     "--out", str(tmp_path / "cmp")]) == 1
    err = capsys.readouterr().err
    for method in ("gmm-elev", "hmt"):
        assert f"{method}: FAILED (scene has no elevation channel)" in err
    assert "gmm: FAILED" not in err


@pytest.mark.parametrize("method, flag", [("gmm", "use_elevation=0"), ("gmm-elev", "use_elevation=1")])
def test_mixture_model_file_records_its_channels(workdir, tmp_path, method, flag):
    run = tmp_path / "run"
    assert _train_and_predict(workdir, run, method) == 0
    assert flag in (run / "model.txt").read_text().splitlines()


@pytest.mark.parametrize("method, trained_on", [("gmm", "four"), ("gmm-elev", "three")])
def test_predict_rejects_a_mixture_on_a_scene_of_other_channels(workdir, tmp_path, capsys, method, trained_on):
    """A gmm model of a 4-feature scene has the dimension of a 3-feature scene
    with elevation, and a gmm-elev model of the 3-feature scene that of the
    4-feature scene without it. The model file says which channels it reads,
    so neither swap is taken for a fit: each is a data error with no grid."""
    spec = tmp_path / "four.txt"
    spec.write_text("width=24\nheight=24\nfeatures=4\nobstacle_fraction=0.25\nlabels_per_class=20\nseed=9\n")
    assert cli.main(["synth", "--spec", str(spec), "--out-scene", str(tmp_path / "four.sgrid"),
                     "--out-labels", str(tmp_path / "four.txt")]) == 0
    scenes = {"three": (workdir / "scene.sgrid", workdir / "labels.txt"),
              "four": (tmp_path / "four.sgrid", tmp_path / "four.txt")}
    (scene, labels), (other, _) = scenes[trained_on], scenes[{"three": "four", "four": "three"}[trained_on]]
    run = tmp_path / "run"
    assert cli.main(["train", "--method", method, "--scene", str(scene), "--labels", str(labels),
                     "--out", str(run)]) == 0
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(run / "model.txt"), "--scene", str(other),
                     "--out", str(run)]) == 3
    assert "does not match emission dimension" in capsys.readouterr().err
    assert not list(run.glob("*.sgrid"))


def test_train_into_an_unusable_out_fails_before_em(workdir, tmp_path, capsys, monkeypatch):
    """Every verb that writes a stage's files makes its output paths before the
    stage starts working; eval makes them before it reads a grid."""
    scene, labels = str(workdir / "scene.sgrid"), str(workdir / "labels.txt")
    run = tmp_path / "run"
    assert _train_and_predict(workdir, run, "gmm") == 0
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")

    def work(*args, **kwargs):
        raise AssertionError("the verb started working before it made its output paths")

    for step in ("_train", "_predict", "_evaluate", "_load_grid"):
        monkeypatch.setattr(cli, step, work)
    capsys.readouterr()
    for verb, argv in [
        ("train", ["--method", "gmm", "--scene", scene, "--labels", labels]),
        ("predict", ["--model", str(run / "model.txt"), "--scene", scene]),
        ("eval", ["--pred", str(run / "pred.sgrid"), "--score", str(run / "score.sgrid"), "--truth", scene]),
        ("compare", ["--scene", scene, "--labels", labels]),
    ]:
        assert cli.main([verb, *argv, "--out", str(blocker / "sub")]) == 3, verb
        out, err = capsys.readouterr()
        assert "error: cannot create output directory" in err, verb
        assert out == "", verb


@pytest.mark.parametrize("bad", ["a,b", "", "a/b", "a b", "a\nb"])
def test_eval_rejects_a_name_that_is_no_csv_field_or_file_name(tmp_path, capsys, bad):
    """Before --name took only letters, digits and '._-', "a,b" wrote six-field rows
    into the five-column class block and a roc_a,b.csv, "" wrote roc_.csv, and
    "a/b" failed only after report.csv was written."""
    out = tmp_path / "out"
    missing = str(tmp_path / "missing.sgrid")  # read before the name was checked, a data error
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--pred", missing, "--score", missing, "--truth", missing,
                  "--name", bad, "--out", str(out)])
    assert exc.value.code == 2
    assert "--name" in capsys.readouterr().err
    assert not out.exists()


def test_every_method_is_an_eval_name():
    for method in (*cli.METHODS, "pred", "hmt.v2_run-3"):
        assert cli.name(method) == method


def test_compare_warns_once_per_method_at_the_cap(workdir, tmp_path, capsys):
    capsys.readouterr()
    rc = cli.main(["compare", "--scene", str(workdir / "scene.sgrid"),
                   "--labels", str(workdir / "labels.txt"), "--out", str(tmp_path),
                   "--max-iter", "2", "--tol", "0"])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("2-iteration cap") == 3
    for method in cli.METHODS:
        assert f"warning: {method}: EM stopped" in err


def test_sweep_labels_warns_at_the_cap_naming_the_run(workdir, tmp_path, capsys):
    capsys.readouterr()
    rc = cli.main(["sweep-labels", "--scene", str(workdir / "scene.sgrid"),
                   "--ratios", "0.05", "--seeds", "1,2", "--out", str(tmp_path),
                   "--max-iter", "2", "--tol", "0"])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("2-iteration cap") == 2 * len(cli.METHODS)
    for method in cli.METHODS:
        for seed in (1, 2):
            assert f"warning: {method} at ratio 0.05, seed {seed}: EM stopped" in err


@pytest.mark.parametrize(
    "verb, flag",
    [("eval", "--max-iter"), ("eval", "--scene"), ("predict", "--rho"), ("train", "--cutoff"),
     ("sweep-labels", "--labels"), ("sweep-labels", "--seed"), ("sweep-labels", "--ratio")],
)
def test_verbs_reject_flags_they_do_not_read(tmp_path, verb, flag):
    # every other argument is valid, so only the extra flag can be a usage error
    missing = str(tmp_path / "missing")
    required = {
        "eval": ["--pred", missing, "--score", missing, "--truth", missing],
        "predict": ["--model", missing, "--scene", missing],
        "train": ["--scene", missing, "--ratio", "0.05"],
        "sweep-labels": ["--scene", missing, "--ratios", "0.05", "--seeds", "1"],
    }
    assert cli.main([verb, *required[verb]]) == 3  # the missing file is a data error
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, *required[verb], flag, "1"])
    assert exc.value.code == 2


def test_a_config_file_may_name_settings_the_verb_does_not_read(tmp_path, rng):
    truth = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
    truth[0, 0], truth[0, 1] = 0, 1
    _write_grids(tmp_path, truth, truth.astype(float), truth)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("method=hmt\nmax_iter=1\nrho=0.5\nneighborhood=4\n")
    rc = cli.main(["eval", "--pred", str(tmp_path / "pred.sgrid"),
                   "--score", str(tmp_path / "score.sgrid"),
                   "--truth", str(tmp_path / "truth.sgrid"),
                   "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0


_START_UP = """
import sys
from floodem import cli

assert "floodem.oracle" not in sys.modules, "import floodem.cli loaded the oracle"
spec, scene, labels = sys.argv[1:]
assert cli.main(["synth", "--spec", spec, "--out-scene", scene, "--out-labels", labels]) == 0
assert "numpy.ma" not in sys.modules, "synth loaded numpy.ma"
assert "floodem.oracle" not in sys.modules, "synth loaded the oracle"
assert cli.main(["verify", "--trees", "3"]) == 0
"""


def test_a_fresh_process_loads_only_what_its_verb_needs(tmp_path):
    """A CLI call starts a new interpreter, so its imports are start-up cost:
    `import floodem.cli` leaves out the oracle, which only `verify` loads, and
    `synth` takes the median without numpy's ``numpy.ma``."""
    spec = tmp_path / "spec.txt"
    spec.write_text("width=24\nheight=17\nlabels_per_class=10\nseed=3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP, str(spec), str(tmp_path / "s.sgrid"), str(tmp_path / "l.txt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all checks passed"
    assert load_scene(str(tmp_path / "s.sgrid")).truth.shape == (17, 24)
