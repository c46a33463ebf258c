import io
import warnings
from dataclasses import fields

import numpy as np
import pytest

from floodem import cli, gaussian, hmt
from floodem.errors import SpecError
from floodem.grid import RasterScene, load_scene, save_scene

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
    assert header[:3] == ["iter", "rho", "pi1"]
    assert header == (
        ["iter", "rho", "pi1"]
        + [f"mu0.{k}" for k in range(3)] + [f"mu1.{k}" for k in range(3)]
        + [f"sig0.{k}" for k in range(3)] + [f"sig1.{k}" for k in range(3)]
        + ["loglik", "maxrel"]
    )
    first = lines[1].split(",")
    assert float(first[1]) == 0.99
    assert float(first[2]) == 0.5


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
    assert header[:2] == ["iter", "pi1"] and "rho" not in header


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
    assert lines[0].split(",")[:2] == ["iter", "pi1"]
    logliks = [float(row.split(",")[-2]) for row in lines[1:]]
    assert all(b >= a - 1e-8 for a, b in zip(logliks, logliks[1:]))


def test_predict_gmm_class_grid_is_thresholded_score(workdir, tmp_path):
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


def test_predict_hmt_uses_the_saved_neighborhood(workdir, tmp_path, capsys):
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
    predict = ["predict", "--model", model_path, "--scene", scene_path, "--out", str(run)]
    assert cli.main(predict) == 0
    pred = cli._load_grid(str(run / "pred.sgrid")).ravel()
    scene = load_scene(scene_path)
    model = hmt.load_model(model_path)
    feats = scene.feature_matrix(use_elevation=False)
    on_4 = hmt.map_decode(model, hmt.build_flow_tree(scene.elevation(), 4), feats)
    on_8 = hmt.map_decode(model, hmt.build_flow_tree(scene.elevation(), 8), feats)
    assert np.any(on_4 != on_8)  # the test can tell the two forests apart
    np.testing.assert_array_equal(pred, on_4)
    assert cli.main(predict + ["--neighborhood", "4"]) == 0
    capsys.readouterr()
    assert cli.main(predict + ["--neighborhood", "8"]) == 3
    assert "neighborhood" in capsys.readouterr().err


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
    combined = (cmp_dir / "compare.csv").read_text().splitlines()

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
        assert (solo / "model.txt").read_bytes() == (cmp_dir / f"model_{method}.txt").read_bytes()
        assert (solo / "pred.sgrid").read_bytes() == (cmp_dir / f"pred_{method}.sgrid").read_bytes()
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
        solo_rows = (solo / "report.csv").read_text().splitlines()
        for row in solo_rows:
            if row.startswith(method):
                assert row in combined


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
    assert cli.run_verify(n_trees=20, seed=3) is True
    out = capsys.readouterr().out
    assert out.count("ok  ") == 5


def test_verify_catches_corrupted_transition_update(monkeypatch):
    real = hmt.m_step

    def corrupted(posteriors, features, model):
        model = real(posteriors, features, model)
        if not isinstance(model, hmt.HmtModel):
            return model  # the mixture's update has no rho to bend
        bent = min(max(model.rho * 0.6, 1e-6), 1.0)
        return hmt.HmtModel(rho=bent, pi1=model.pi1, components=model.components)

    monkeypatch.setattr(hmt, "m_step", corrupted)
    sink = io.StringIO()
    assert cli.run_verify(n_trees=10, seed=0, out=sink) is False
    assert "FAIL transition update" in sink.getvalue()


def test_verify_catches_a_corrupted_lift(monkeypatch):
    real = gaussian.Lifted.__init__

    def corrupted(self, points):
        real(self, points)
        self.phi[-1] *= 1.0 + 1e-6

    monkeypatch.setattr(gaussian.Lifted, "__init__", corrupted)
    sink = io.StringIO()
    assert cli.run_verify(n_trees=10, seed=0, out=sink) is False
    assert "FAIL lifted Gaussian" in sink.getvalue()


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


@pytest.mark.parametrize("flag, value", [("--ratios", "0.01,x"), ("--seeds", "1,two")])
def test_sweep_labels_rejects_a_bad_list_as_usage_error(workdir, tmp_path, flag, value):
    argv = {"--ratios": "0.05", "--seeds": "1", flag: value}
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep-labels", "--scene", str(workdir / "scene.sgrid"),
                  "--ratios", argv["--ratios"], "--seeds", argv["--seeds"],
                  "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["train", "sweep-labels"])
def test_negative_max_iter_is_a_data_error(workdir, tmp_path, capsys, verb):
    argv = [verb, "--scene", str(workdir / "scene.sgrid"), "--max-iter", "-1",
            "--out", str(tmp_path)]
    if verb == "train":
        argv += ["--method", "gmm", "--labels", str(workdir / "labels.txt")]
    else:
        argv += ["--ratios", "0.05", "--seeds", "1"]
    assert cli.main(argv) == 3
    assert "max_iter" in capsys.readouterr().err


def test_train_warns_when_em_stops_at_the_cap(workdir, tmp_path, capsys):
    run = ["train", "--method", "gmm", "--scene", str(workdir / "scene.sgrid"),
           "--labels", str(workdir / "labels.txt"), "--out", str(tmp_path)]
    assert cli.main(run + ["--max-iter", "2", "--tol", "0"]) == 0
    err = capsys.readouterr().err
    assert "2-iteration cap" in err and "max relative change" in err
    assert cli.main(run + ["--tol", "1"]) == 0  # every update is below a tolerance of 1
    assert "cap" not in capsys.readouterr().err


def test_spec_pairs_must_agree_in_length(tmp_path):
    for text in ("mean0=1,2,3\nmean1=1,2\n", "var0=1,2\nvar1=1\n", "mean0=1,2,3\n"):
        spec = tmp_path / "spec.txt"
        spec.write_text("width=16\nheight=16\n" + text)
        with pytest.raises(SpecError):
            cli.parse_scene_spec(str(spec))


def test_every_run_setting_has_a_config_cast():
    assert set(cli._CONFIG_CASTS) == {f.name for f in fields(cli.RunConfig)}


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


def test_train_into_an_unusable_out_fails_before_em(workdir, tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    capsys.readouterr()
    rc = cli.main(["train", "--method", "gmm", "--scene", str(workdir / "scene.sgrid"),
                   "--labels", str(workdir / "labels.txt"), "--out", str(blocker / "sub")])
    assert rc == 3
    out, err = capsys.readouterr()
    assert "error: cannot create output directory" in err
    assert "EM iterations" not in out  # the output path failed before any training


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
    cfgfile.write_text("method=hmt\nmax_iter=1\nrho=0.5\ncutoff=0.3\nneighborhood=4\n")
    rc = cli.main(["eval", "--pred", str(tmp_path / "pred.sgrid"),
                   "--score", str(tmp_path / "score.sgrid"),
                   "--truth", str(tmp_path / "truth.sgrid"),
                   "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0
