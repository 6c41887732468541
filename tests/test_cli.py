import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgn
from dgn import baselines, cli, data, errors, losses, movmf, network, trainer
from dgn import bank as bank_mod
from dgn.errors import LengthMismatch, ParseError


def test_ablate_seed_param_is_a_parse_error(tmp_path, capsys):
    scene = data.gen_scene(data.SceneSpec(num_classes=2, points_per_class=(5, 5)))
    data.write_scene(str(tmp_path / "scene_000.dgn"), scene)
    out = tmp_path / "table.txt"
    code = cli.main([
        "ablate", "--data", str(tmp_path), "--param", "seed", "--values", "1,2",
        "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert "--seeds" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ["hidden_dims = 0", "hidden_dims = 8, 0", "feat_dim = 0", "feat_dim = -1",
     "alignment = proto_euclid", "alignment = proto_cosine", "alignment = hard",
     "dis_grad_mode = frozen_means", "em_variant = hard", "alignment = movmf",
     "alignment = gmm\nkappa = 50", "kappa = nan", "lr = inf", "em_tol = nan", "seed = -1",
     "epochs = 1_0", "warmup_epochs = \u0663", "hidden_dims = 1_0", "lr = 0.00_3",
     "beta = \u0660.5"],
)
def test_train_rejects_bad_config_with_exit_2(tmp_path, capsys, text):
    scene = data.gen_scene(data.SceneSpec(num_classes=2, points_per_class=(5, 5)))
    data.write_scene(str(tmp_path / "scene_000.dgn"), scene)
    (tmp_path / "bad.cfg").write_text(text + "\n")
    code = cli.main(["train", "--config", str(tmp_path / "bad.cfg"),
                     "--data", str(tmp_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _write_scenes(directory, count=1, **spec):
    for i in range(count):
        scene = data.gen_scene(data.SceneSpec(**{"num_classes": 2, "points_per_class": (5, 5),
                                                 "seed": i, **spec}))
        data.write_scene(str(directory / f"scene_{i:03d}.dgn"), scene)


def _ablate_table(tmp_path, config_text, *flags):
    (tmp_path / "base.cfg").write_text(config_text)
    out = tmp_path / "table.txt"
    code = cli.main(["ablate", "--config", str(tmp_path / "base.cfg"), "--data", str(tmp_path),
                     "--param", "use_con", "--values", "true,false", "--out", str(out), *flags])
    assert code == cli.EXIT_OK
    return out.read_text()


def test_ablate_seeds_sweeps_what_the_config_seed_sets(tmp_path, capsys):
    _write_scenes(tmp_path, count=3, points_per_class=(10, 12))
    base = "epochs = 2\nwarmup_epochs = 1\nlabel_rate = 0.2\nhidden_dims = 4\nfeat_dim = 3\n"
    table = _ablate_table(tmp_path, base, "--seeds", "3")
    assert table == _ablate_table(tmp_path, base + "seed = 3\n")
    assert table != _ablate_table(tmp_path, base)


def test_ablate_rejects_a_bad_value_before_any_fit(tmp_path, capsys, monkeypatch):
    # one CPU, so a fit would run, and be counted, in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    fits = []
    real_fit = trainer.fit
    monkeypatch.setattr(trainer, "fit", lambda *a: fits.append(a) or real_fit(*a))
    _write_scenes(tmp_path, count=2)
    out = tmp_path / "table.txt"
    code = cli.main(["ablate", "--data", str(tmp_path), "--param", "beta",
                     "--values", "0.5,2", "--seeds", "0,1", "--out", str(out)])
    assert code == cli.EXIT_PARSE
    assert capsys.readouterr().err == "error: beta must be in (0, 1]\n"
    assert fits == []
    assert not out.exists()


@pytest.mark.parametrize("scenes, param, values, fraction", [
    (1, "lr", "0.01", "0.2"), (3, "lr", "0.01", "0"), (3, "val_fraction", "0.5,0", "0"),
], ids=["one-scene", "no-fraction", "swept-fraction"])
def test_ablate_rejects_a_grid_without_a_validation_scene_before_any_fit(
        tmp_path, capsys, monkeypatch, scenes, param, values, fraction):
    # every cell would score nan; one CPU, so a fit would be counted here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    fits = []
    real_fit = trainer.fit
    monkeypatch.setattr(trainer, "fit", lambda *a: fits.append(a) or real_fit(*a))
    _write_scenes(tmp_path, count=scenes)
    (tmp_path / "base.cfg").write_text("epochs = 1\n" if param == "val_fraction"
                                       else f"epochs = 1\nval_fraction = {fraction}\n")
    out = tmp_path / "table.txt"
    code = cli.main(["ablate", "--config", str(tmp_path / "base.cfg"), "--data", str(tmp_path),
                     "--param", param, "--values", values, "--out", str(out)])
    assert code == cli.EXIT_PARSE
    assert capsys.readouterr().err == (f"error: val_fraction={fraction} holds out no "
                                       f"validation scene of {scenes}; ablate scores val_miou\n")
    assert fits == []
    assert not out.exists()


def test_ablate_reports_the_first_diverging_fit_as_one_line(tmp_path, capsys, cpus):
    # the second value diverges; its first seed's fit is the one reported
    assert cli.main(["gen-data", "--out", str(tmp_path / "d"), "--scenes", "4",
                     "--classes", "3", "--seed", "1"]) == cli.EXIT_OK
    (tmp_path / "c.cfg").write_text("epochs = 4\nwarmup_epochs = 1\noptimizer = sgd\n")
    scenes = [data.read_scene(str(p)) for p in sorted((tmp_path / "d").glob("*.dgn"))]
    with pytest.raises(errors.NonFiniteOutput) as first:
        trainer.fit(scenes, trainer.TrainConfig(epochs=4, warmup_epochs=1, optimizer="sgd",
                                                lr=1e12, seed=0))
    capsys.readouterr()
    code = cli.main(["ablate", "--config", str(tmp_path / "c.cfg"), "--data",
                     str(tmp_path / "d"), "--param", "lr", "--values", "0.003,1e12",
                     "--seeds", "0,1", "--out", str(tmp_path / "table.txt")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {first.value}\n"
    assert not (tmp_path / "table.txt").exists()


def test_ablate_has_no_seed_flag(tmp_path, capsys):
    # --seeds replaces the seed on every row, so a --seed flag would do nothing
    with pytest.raises(SystemExit) as exc:
        cli.main(["ablate", "--data", str(tmp_path), "--param", "lr", "--values", "0.1",
                  "--seed", "3", "--out", str(tmp_path / "table.txt")])
    assert exc.value.code == cli.EXIT_PARSE
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_gen_data_writes_scenes_that_read_back(tmp_path, capsys):
    out = tmp_path / "data"
    code = cli.main(["gen-data", "--out", str(out), "--scenes", "3", "--classes", "3",
                     "--points", "4:6", "--label-rate", "0.5", "--seed", "7"])
    assert code == cli.EXIT_OK
    paths = sorted(out.glob("*.dgn"))
    assert [p.name for p in paths] == ["scene_000.dgn", "scene_001.dgn", "scene_002.dgn"]
    for i, path in enumerate(paths):
        scene = data.read_scene(str(path))
        want = data.gen_scene(data.SceneSpec(num_classes=3, points_per_class=(4, 6), seed=7 + i))
        assert scene.num_classes == 3
        np.testing.assert_array_equal(scene.gt_labels, want.gt_labels)
        assert 0 < scene.sparse.size < scene.num_points


@pytest.mark.parametrize("rate", [1.0, 0.3])
def test_gen_data_writes_the_bytes_of_one_scene_at_a_time(tmp_path, capsys, cpus, rate):
    # five scenes, more than the workers
    out = tmp_path / "data"
    code = cli.main(["gen-data", "--out", str(out), "--scenes", "5", "--classes", "3",
                     "--points", "4:9", "--label-rate", str(rate), "--seed", "11"])
    assert code == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [f"scene_{i:03d}.dgn" for i in range(5)]
    for i in range(5):
        scene = data.gen_scene(data.SceneSpec(num_classes=3, points_per_class=(4, 9),
                                              seed=11 + i))
        if rate < 1.0:
            scene = data.with_sparse(scene, data.sample_sparse_labels(scene, rate, seed=11 + i))
        data.write_scene(str(tmp_path / "want.dgn"), scene)
        assert (out / f"scene_{i:03d}.dgn").read_bytes() == (tmp_path / "want.dgn").read_bytes()


@pytest.mark.parametrize(
    "flags",
    [["--classes", "1"], ["--points", "0:5"], ["--points", "x"], ["--noise", "-1"],
     ["--label-rate", "0"], ["--label-rate", "1.5"], ["--seed", "-1"],
     ["--points", "1_0:2_0"], ["--scenes", "-3"], ["--scenes", "0"], ["--noise", "nan"],
     ["--noise", "inf"]],
    ids=["classes-1", "points-zero", "points-text", "noise-negative", "rate-zero",
         "rate-above-1", "seed-negative", "points-underscore", "scenes-negative",
         "scenes-zero", "noise-nan", "noise-inf"],
)
def test_gen_data_bad_input_exits_2(tmp_path, capsys, flags):
    # every argument is checked before the output directory is made
    out = tmp_path / "data"
    code = cli.main(["gen-data", "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_train_checks_beta_before_reading_data(tmp_path, capsys):
    (tmp_path / "beta.cfg").write_text("beta = 2\n")
    code = cli.main(["train", "--config", str(tmp_path / "beta.cfg"),
                     "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err == "error: beta must be in (0, 1]\n"


def test_train_with_a_bank_momentum_outside_0_1_exits_2_before_reading_data(tmp_path,
                                                                            capsys):
    (tmp_path / "momentum.cfg").write_text("bank_momentum = 1.5\n")
    code = cli.main(["train", "--config", str(tmp_path / "momentum.cfg"),
                     "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err == "error: bank_momentum must be in [0, 1)\n"
    assert not (tmp_path / "out").exists()


def test_train_on_one_class_scenes_is_a_data_error(tmp_path, capsys):
    # the discriminative loss needs two clusters: bad data, not an internal error
    for i in range(3):
        scene = data.gen_scene(data.SceneSpec(num_classes=2, points_per_class=(5, 5), seed=i))
        one = scene.gt_labels == 0
        data.write_scene(str(tmp_path / f"scene_{i:03d}.dgn"), data.SceneBatch(
            scene.coords[one], scene.extra_feats[one], scene.gt_labels[one],
            data.SparseLabels(np.arange(5), np.zeros(5, dtype=np.int64)), num_classes=1))
    (tmp_path / "train.cfg").write_text("epochs = 1\nwarmup_epochs = 0\n")
    code = cli.main(["train", "--config", str(tmp_path / "train.cfg"),
                     "--data", str(tmp_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert err == "error: discriminative loss needs at least two clusters\n"


@pytest.mark.parametrize("command", [
    ["train", "--data", "missing", "--out", "out"],
    ["explain", "--scene", "missing.dgn", "--checkpoint", "missing.ckpt", "--out", "out"],
    ["cluster", "missing.txt", "--classes", "2", "--out-prefix", "out"],
], ids=["train", "explain", "cluster"])
def test_negative_seed_is_rejected_before_any_input_is_read(tmp_path, capsys, command):
    # the inputs do not exist: reading one would exit 3
    args = [str(tmp_path / a) if a.startswith(("missing", "out")) else a for a in command]
    code = cli.main([*args, "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert "seed must be >= 0, got -1" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_train_on_a_scene_with_an_unknown_label_is_a_data_error(tmp_path, capsys):
    # fit draws its labels from the dense ground truth, which a -1 lacks
    _write_scenes(tmp_path, count=3)
    path = tmp_path / "scene_000.dgn"
    scene = data.read_scene(str(path))
    gt = scene.gt_labels.copy()
    gt[0] = -1
    keep = np.arange(1, scene.num_points)
    data.write_scene(str(path), data.SceneBatch(
        scene.coords, scene.extra_feats, gt, data.SparseLabels(keep, gt[keep]), 2))
    code = cli.main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert err == "error: scene must have dense ground truth to sample labels\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, message",
    [(["--param", "nosuch"], "unknown config key 'nosuch'"),
     (["--param", "lr", "--seeds", "1,x"], "--seeds:1: expected comma-separated integers"),
     (["--param", "lr", "--values", " , "], "--values:1: empty value list"),
     (["--param", "lr", "--seeds", "1,-1"], "seed must be >= 0, got -1"),
     (["--param", "lr", "--seeds", "1_0"], "--seeds:1: expected comma-separated integers"),
     (["--param", "lr", "--values", "0.00_3"], "invalid float: '0.00_3'"),
     (["--param", "beta", "--values", "\u0660.5"], "invalid float: '\u0660.5'")],
    ids=["unknown-param", "seeds-text", "values-empty", "seeds-negative", "seeds-underscore",
         "values-underscore", "values-arabic-indic-digit"],
)
def test_ablate_checks_its_arguments_before_reading_data(tmp_path, capsys, flags, message):
    # the data directory does not exist: reading it would exit 3
    code = cli.main(["ablate", "--data", str(tmp_path / "missing"), "--values", "0.1",
                     "--out", str(tmp_path / "table.txt"), *flags])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err == f"error: {message}\n"
    assert not (tmp_path / "table.txt").exists()


@pytest.mark.parametrize("argv", [
    ["cluster", "m.txt", "--classes", "1_0"],
    ["cluster", "m.txt", "--classes", "2", "--iters", "\u0663"],
    ["train", "--data", "d", "--out", "o", "--seed", "1_0"],
    ["gen-data", "--out", "d", "--scenes", "\uff11"],
], ids=["classes", "iters", "seed", "scenes"])
def test_integer_flags_take_the_one_integer_grammar(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == cli.EXIT_PARSE
    assert "invalid integer value" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cluster", "m.txt", "--classes", "2", "--kappa", "1_0"],
    ["cluster", "m.txt", "--classes", "2", "--tol", "\u0661e-3"],
    ["gen-data", "--out", "d", "--noise", "0_3"],
    ["gen-data", "--out", "d", "--label-rate", "\u0660.5"],
], ids=["kappa", "tol", "noise", "label-rate"])
def test_float_flags_take_the_one_float_grammar(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == cli.EXIT_PARSE
    assert "invalid real value" in capsys.readouterr().err


def test_running_out_of_memory_is_one_line_and_exit_3(tmp_path, capsys, monkeypatch):
    # a config whose widths cannot be allocated ends in numpy's MemoryError
    def fit(scenes, cfg):
        raise MemoryError("Unable to allocate 5.09 TiB for an array")

    _write_scenes(tmp_path)
    monkeypatch.setattr(trainer, "fit", fit)
    code = cli.main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 5.09 TiB for an array\n")


def test_ablate_writes_hidden_dims_cells_in_config_syntax(tmp_path, capsys):
    _write_scenes(tmp_path, count=3, points_per_class=(10, 12))
    (tmp_path / "base.cfg").write_text("epochs = 1\nwarmup_epochs = 1\nfeat_dim = 3\n")
    out = tmp_path / "table.txt"
    code = cli.main(["ablate", "--config", str(tmp_path / "base.cfg"), "--data", str(tmp_path),
                     "--param", "hidden_dims", "--values", "4 4,8", "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = [row.split() for row in out.read_text().splitlines()]
    assert [len(row) for row in rows] == [4, 4]
    cells = [row[0].removeprefix("hidden_dims=") for row in rows]
    assert cells == ["4,4", "8"]
    assert trainer.parse_sweep("hidden_dims", cells) == [(4, 4), (8,)]


def test_eval_scores_a_prediction_file(tmp_path, capsys):
    _write_scenes(tmp_path)
    scene = data.read_scene(str(tmp_path / "scene_000.dgn"))
    pred = scene.gt_labels.copy()
    pred[0] = 1 - pred[0]
    (tmp_path / "pred.txt").write_text("".join(f"{c}\n" for c in pred.tolist()))
    code = cli.main(["eval", "--pred", str(tmp_path / "pred.txt"),
                     "--scene", str(tmp_path / "scene_000.dgn")])
    out = capsys.readouterr().out.splitlines()
    assert code == cli.EXIT_OK
    report = data.miou(pred, scene.gt_labels, 2)
    assert out == [f"miou={report.miou:.6g}",
                   *(f"iou_{c}={v:.6g}" for c, v in enumerate(report.per_class_iou))]
    assert report.miou < 1.0


@pytest.mark.parametrize(
    "text, code, message",
    [("1\n" * 9, cli.EXIT_DATA, "9 labels for 10 rows"),
     ("0\n" * 3 + "x\n" + "0\n" * 6, cli.EXIT_PARSE, ":4: expected one integer"),
     ("0\n" + "99999999999999999999\n" + "0\n" * 8, cli.EXIT_PARSE,
      ":2: label outside the int64 range"),
     ("0\n" * 9 + "2\n", cli.EXIT_DATA, "pred contains invalid class indices"),
     ("0\n" * 3 + "1_0\n" + "0\n" * 6, cli.EXIT_PARSE, ":4: expected one integer"),
     ("0\n" * 3 + "\u0663\n" + "0\n" * 6, cli.EXIT_PARSE, ":4: expected one integer")],
    ids=["short", "not-an-integer", "int64-overflow", "class-out-of-range", "underscore",
         "non-ascii-digit"],
)
def test_eval_rejects_a_bad_prediction_file(tmp_path, capsys, text, code, message):
    _write_scenes(tmp_path)
    (tmp_path / "pred.txt").write_text(text, encoding="utf-8")
    got = cli.main(["eval", "--pred", str(tmp_path / "pred.txt"),
                    "--scene", str(tmp_path / "scene_000.dgn")])
    err = capsys.readouterr().err
    assert got == code
    assert message in err and "Traceback" not in err


def test_ablate_compares_the_training_families(tmp_path, capsys):
    _write_scenes(tmp_path, count=3, points_per_class=(10, 12))
    (tmp_path / "base.cfg").write_text("epochs = 2\nwarmup_epochs = 1\nlabel_rate = 0.2\n"
                                       "hidden_dims = 4\nfeat_dim = 3\n")
    out = tmp_path / "table.txt"
    code = cli.main(["ablate", "--config", str(tmp_path / "base.cfg"), "--data", str(tmp_path),
                     "--param", "alignment", "--values", "soft,gmm", "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = out.read_text().splitlines()
    assert [row.split()[0] for row in rows] == ["alignment=soft", "alignment=gmm"]


def test_import_does_not_load_a_process_pool():
    # gen-data and ablate import multiprocessing when they fork; no other command pays for it
    src = os.path.dirname(os.path.dirname(dgn.__file__))
    probe = ("import sys, dgn.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_does_not_load_scipy():
    # every dgn command pays for what `import dgn.cli` loads
    src = os.path.dirname(os.path.dirname(dgn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, dgn.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_train_explain_and_gen_data_do_not_load_numpy_ma(tmp_path):
    # numpy 2.4's np.unique imports numpy.ma on its first call, 14-18 ms a process
    scenes, config = tmp_path / "data", tmp_path / "train.cfg"
    assert cli.main(["gen-data", "--out", str(scenes), "--scenes", "4", "--classes", "3",
                     "--points", "20:30", "--seed", "5"]) == cli.EXIT_OK
    config.write_text("epochs = 2\nwarmup_epochs = 1\nem_iters = 2\nlabel_rate = 0.2\n")
    commands = [
        ["train", "--config", str(config), "--data", str(scenes), "--out", str(tmp_path / "o")],
        ["explain", "--config", str(config), "--scene", str(scenes / "scene_003.dgn"),
         "--checkpoint", str(tmp_path / "o" / "model.ckpt"), "--out", str(tmp_path / "e")],
        # one scene: generated in this process, not in a forked worker
        ["gen-data", "--out", str(tmp_path / "one"), "--scenes", "1"],
    ]
    src = os.path.dirname(os.path.dirname(dgn.__file__))
    probe = ("import json, sys\nfrom dgn import cli\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    assert cli.main(argv) == 0\n"
             "    print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         check=True)
    assert [line for line in out.stdout.splitlines() if line in ("True", "False")] == [
        "False"] * 3


def test_train_is_bitwise_repeatable_across_processes(tmp_path):
    # the determinism contract: bitwise for a seed and a pinned BLAS thread count
    scenes = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(scenes), "--scenes", "4", "--classes", "3",
                     "--points", "20:30", "--label-rate", "0.2", "--seed", "5"]) == cli.EXIT_OK
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 3\nwarmup_epochs = 1\nem_iters = 3\nhidden_dims = 8, 8\n"
                      "feat_dim = 4\n")
    src = os.path.dirname(os.path.dirname(dgn.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        subprocess.run(
            [sys.executable, "-m", "dgn.cli", "train", "--config", str(config),
             "--data", str(scenes), "--out", str(out), "--seed", "2"],
            env=env, capture_output=True, check=True,
        )
        outputs.append(((out / "model.ckpt").read_bytes(), (out / "report.txt").read_bytes()))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# writers: each output equals the bytes of the per-value writers they replaced

def _old_format_report_line(report):
    fields = [
        ("epoch", str(report.epoch)),
        ("tce", f"{report.tce:.6g}"),
        ("vmf", f"{report.vmf:.6g}"),
        ("dis", f"{report.dis:.6g}"),
        ("con", f"{report.con:.6g}"),
        ("total", f"{report.total:.6g}"),
        ("train_miou", f"{report.train_miou:.6g}"),
        ("val_miou", f"{report.val_miou:.6g}"),
        ("em_iters", str(report.em_iters)),
        ("degenerate", str(report.degenerate)),
    ]
    return " ".join(f"{k}={v}" for k, v in fields)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.floats(), min_size=7, max_size=7),
       st.integers(0, 2**63), st.integers(0, 2**63))
def test_report_line_equals_per_field_format(epoch, floats, em_iters, degenerate):
    report = trainer.EpochReport(epoch, *floats, em_iters, degenerate)
    assert cli._report_line(report) == _old_format_report_line(report)


def test_report_line_special_values():
    report = trainer.EpochReport(3, -0.0, 1e-7, 123456789.0, 0.0, -5897.54, 0.5,
                                 float("nan"), 10**12, 2**40)
    assert cli._report_line(report) == _old_format_report_line(report)
    assert cli._report_line(report) == (
        "epoch=3 tce=-0 vmf=1e-07 dis=1.23457e+08 con=0 total=-5897.54 train_miou=0.5 "
        "val_miou=nan em_iters=1000000000000 degenerate=1099511627776"
    )


def test_epoch_report_fields_are_the_benchmark_report_keys(monkeypatch):
    # the benchmark parses report.txt by these keys
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    import checks

    fields = [f.name for f in dataclasses.fields(trainer.EpochReport)]
    assert fields == list(checks.REPORT_KEYS)


def _old_format_rows(matrix):
    return [" ".join(f"{v:.6g}" for v in row) for row in matrix]


def _old_lines(lines):
    return ("\n".join(lines) + "\n").encode()


def _format_rows(matrix):
    # data._format_rows with the posterior files' row format
    return data._format_rows(matrix, " ".join(["%.6g"] * matrix.shape[1]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda k: st.lists(st.lists(st.floats(), min_size=k, max_size=k), max_size=8)
    .map(lambda rows: np.array(rows, dtype=np.float64).reshape(-1, k))
))
def test_format_rows_equals_per_value_format(matrix):
    assert _format_rows(matrix) == "\n".join(_old_format_rows(matrix))


def test_format_rows_special_values():
    matrix = np.array([
        [np.nan, np.inf, -np.inf, -0.0, 0.0],
        [1e-300, 5e-324, 1.7976931348623157e308, 0.1234565, 123456789.0],
    ])
    assert _format_rows(matrix) == "\n".join(_old_format_rows(matrix))
    assert _format_rows(matrix).split("\n")[0] == "nan inf -inf -0 0"


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 4096, 4097, 9000])
def test_write_rows_equals_whole_matrix_writer(tmp_path, rows):
    # blocks of 1024 rows: none, a partial one, exactly one, one and a
    # row, and several
    matrix = np.random.default_rng(rows).standard_normal((rows, 3)) ** 3
    path = tmp_path / "rows.txt"
    cli._write_rows(str(path), matrix)
    assert path.read_bytes() == _old_lines(_old_format_rows(matrix))


@pytest.mark.parametrize("shape", [(4097, 1), (3, 0), (0, 1)])
def test_write_rows_equals_whole_matrix_writer_on_narrow_matrices(tmp_path, shape):
    matrix = np.random.default_rng(1).standard_normal(shape) ** 3
    path = tmp_path / "rows.txt"
    cli._write_rows(str(path), matrix)
    assert path.read_bytes() == _old_lines(_old_format_rows(matrix))


def _old_write_assignments(path, assignment):
    """The `.assignments` writer before it streamed: the whole file as one
    string."""
    with open(path, "w") as fh:
        fh.write("\n".join(map(str, assignment.tolist())) + "\n")


@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 4097])
def test_write_rows_of_assignments_equals_the_whole_file_writer(tmp_path, rows):
    # one `%d` column, written 1024 rows at a time: a partial block, one
    # block on either side of its edge, and several
    assignment = np.random.default_rng(rows).integers(0, 300, rows)
    assignment[:5] = np.array([-(2**63), 2**63 - 1, -1, 0, 10**12])[:rows]
    cli._write_rows(str(tmp_path / "new"), assignment[:, None], "%d")
    _old_write_assignments(tmp_path / "old", assignment)
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()
    assert (tmp_path / "new").read_text() == "\n".join(map(str, assignment)) + "\n"


def _old_cluster(X, variant, k, seed, labels):
    """The clustering of `dgn cluster` before its init code was shared,
    with each variant's init written out in full."""
    cfg = movmf.EMConfig(10, 1e-6, 10.0)

    def spherical_init(V):
        if labels is None:
            return movmf.normalize_rows(cli._kmeanspp_init(V, k, seed))
        keep = labels >= 0
        sparse = data.SparseLabels(np.flatnonzero(keep), labels[keep])
        return bank_mod.init_centers(V, sparse, bank_mod.empty_bank(k, V.shape[1], 0.9),
                                     seed=seed).centers

    def euclidean_init():
        if labels is None:
            return cli._kmeanspp_init(X, k, seed)
        init = spherical_init(movmf.normalize_rows(X)) * float(
            np.mean(np.linalg.norm(X, axis=1))
        )
        for c in range(k):
            if np.any(labels == c):
                init[c] = X[labels == c].mean(axis=0)
        return init

    if variant in ("soft", "hard"):
        V = movmf.normalize_rows(X)
        run = movmf.soft_movmf_em if variant == "soft" else movmf.hard_movmf_em
        result = run(V, spherical_init(V), cfg)
    elif variant == "gmm":
        result = baselines.gmm_em(X, euclidean_init(), cfg)
    else:
        # the nearest prototype: largest cosine or smallest squared distance
        if variant == "proto-cosine":
            protos = spherical_init(movmf.normalize_rows(X))
            assignment = np.argmax(movmf.normalize_rows(X) @ protos.T, axis=1)
        else:
            diffs = X[:, None, :] - euclidean_init()[None, :, :]
            assignment = np.argmin(np.einsum("nkd,nkd->nk", diffs, diffs), axis=1)
        return assignment, movmf.one_hot(assignment, k)
    return np.argmax(result.posterior, axis=1), result.posterior


def _old_kmeanspp_init(X, k, seed):
    """`cli._kmeanspp_init` before its distances shared one buffer: a fresh
    difference, square and sum per center."""
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    dists = np.sum((X - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = float(dists.sum())
        if total <= 0:
            centers[c] = X[rng.integers(n)]
        else:
            centers[c] = X[rng.choice(n, p=dists / total)]
        dists = np.minimum(dists, np.sum((X - centers[c]) ** 2, axis=1))
    return centers


@pytest.mark.parametrize("rows", ["raw", "unit", "repeated"])
@pytest.mark.parametrize("seed", [0, 7])
def test_kmeanspp_init_equals_the_allocating_form(rows, seed):
    # ~4k rows of mixed magnitudes, their unit rows, and one repeated row
    # (every distance 0, so each center falls back to a uniform draw)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((4099, 7)) * 10.0 ** rng.integers(-3, 4, size=(4099, 1))
    if rows == "unit":
        X = movmf.normalize_rows(X)
    elif rows == "repeated":
        X = np.repeat(X[:1], 4099, axis=0)
    for k in (1, 3, 8):
        got = cli._kmeanspp_init(X, k, seed)
        assert np.array_equal(got.view(np.uint64), _old_kmeanspp_init(X, k, seed).view(np.uint64))


def _cluster_input(tmp_path, labeled):
    scene = data.gen_scene(data.SceneSpec(num_classes=3, points_per_class=(30, 40), seed=4))
    X = scene.network_input()
    path = tmp_path / "matrix.txt"
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in X.tolist()))
    args = [str(path), "--classes", "3", "--seed", "2"]
    labels = None
    if labeled:
        # class 2 has no labels, so its init comes from the seeded fallback
        labels = np.full(X.shape[0], -1)
        labels[[0, 5, 40, 41]] = scene.gt_labels[[0, 5, 40, 41]] % 2
        (tmp_path / "labels.txt").write_text("".join(f"{c}\n" for c in labels.tolist()))
        args += ["--labels", str(tmp_path / "labels.txt")]
    return X, labels, args


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("variant", cli.CLUSTER_VARIANTS)
def test_cluster_outputs_equal_per_value_writers(tmp_path, variant, labeled):
    X, labels, args = _cluster_input(tmp_path, labeled)
    code = cli.main(["cluster", *args, "--variant", variant,
                     "--out-prefix", str(tmp_path / "out")])
    assert code == cli.EXIT_OK

    assignment, posterior = _old_cluster(X, variant, 3, 2, labels)
    assignments = [str(int(c)) for c in assignment]
    assert (tmp_path / "out.assignments").read_bytes() == _old_lines(assignments)
    posteriors = _old_format_rows(posterior)
    assert (tmp_path / "out.posteriors").read_bytes() == _old_lines(posteriors)


@pytest.mark.parametrize("variant", ["soft", "gmm"])
def test_cluster_outputs_equal_per_value_writers_on_4097_rows_of_one_class(tmp_path, variant):
    # a one-column posterior, in one full block of rows and one row more
    X = np.random.default_rng(3).standard_normal((4097, 4)) + 2.0
    path = tmp_path / "matrix.txt"
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in X.tolist()))
    code = cli.main(["cluster", str(path), "--classes", "1", "--seed", "2", "--variant",
                     variant, "--out-prefix", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assignment, posterior = _old_cluster(X, variant, 1, 2, None)
    assert posterior.shape == (4097, 1)
    assignments = [str(int(c)) for c in assignment]
    assert (tmp_path / "out.assignments").read_bytes() == _old_lines(assignments)
    assert (tmp_path / "out.posteriors").read_bytes() == _old_lines(_old_format_rows(posterior))


def test_soft_cluster_peaks_within_2_mib_of_its_live_data(tmp_path):
    # the raw matrix is freed once its unit rows are made, and neither the
    # seeding, the E step nor the writers hold a whole-matrix temporary, so
    # the traced peak of a soft `dgn cluster` stays within 2 MiB of the
    # unit rows and the posterior
    n, d, k = 40_000, 7, 8
    path = tmp_path / "big.txt"
    np.savetxt(path, np.random.default_rng(5).standard_normal((n, d)), fmt="%.17g")
    _, _, args = _cluster_input(tmp_path, labeled=False)
    assert cli.main(["cluster", *args, "--out-prefix", str(tmp_path / "warm")]) == cli.EXIT_OK
    tracemalloc.start()
    try:
        code = cli.main(["cluster", str(path), "--classes", str(k), "--iters", "2",
                         "--out-prefix", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak < (n * d + n * k) * 8 + 2 * 2**20


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("variant", cli.CLUSTER_VARIANTS)
def test_cluster_zero_row_exit_code(tmp_path, capsys, variant, labeled):
    # a zero row has no direction: the spherical variants, which work on
    # unit rows, reject it; the Euclidean ones take the raw rows as they are
    X, labels, args = _cluster_input(tmp_path, labeled)
    rows = X.tolist()
    rows[3] = [0.0] * X.shape[1]
    text = "".join(" ".join(map(repr, r)) + "\n" for r in rows)
    (tmp_path / "matrix.txt").write_text(text)
    code = cli.main(["cluster", *args, "--variant", variant,
                     "--out-prefix", str(tmp_path / "out")])
    euclidean = variant in ("gmm", "proto-euclid")
    assert code == (cli.EXIT_OK if euclidean else cli.EXIT_DATA)
    assert "Traceback" not in capsys.readouterr().err


# the family each proto-* variant fits through, with no EM iteration
_PROTO_FAMILY = {"proto-euclid": "gmm", "proto-cosine": "hard"}


@pytest.mark.parametrize("variant, iters", [
    *((variant, iters) for variant in trainer.FAMILIES for iters in (0, 7)),
    *((variant, 0) for variant in _PROTO_FAMILY)])
def test_cluster_posterior_equals_the_trainer_fit(tmp_path, monkeypatch, variant, iters):
    # `dgn cluster` fits through the family's init and fit in trainer.FAMILIES,
    # the dispatch train_step and explain use: on the same rows, labels, empty
    # bank, seed and EM settings the command writes the dispatch's fit bit for
    # bit, at the init (hard EM soon forgets it) and after EM, and its argmax;
    # a proto-* variant writes the one-hot argmax of its family's fit at the init
    X, labels, args = _cluster_input(tmp_path, labeled=True)
    family = trainer.FAMILIES[_PROTO_FAMILY.get(variant, variant)]
    flags, em = ["--iters", str(iters), "--tol", "0"], {"max_iters": iters, "tol": 0.0}
    if not family.euclidean:
        flags, em = [*flags, "--kappa", "5"], {**em, "kappa": 5.0}
    if variant in _PROTO_FAMILY:
        flags, em = [], {"max_iters": 0}
    written, write_rows = [], cli._write_rows

    def capture_posteriors(path, matrix, *value):
        # the posteriors are kept, the assignments written
        if path.endswith(".posteriors"):
            written.append(matrix)
        else:
            write_rows(path, matrix, *value)

    monkeypatch.setattr(cli, "_write_rows", capture_posteriors)
    code = cli.main(["cluster", *args, "--variant", variant, *flags,
                     "--out-prefix", str(tmp_path / "out")])
    assert code == cli.EXIT_OK

    keep = labels >= 0
    sparse = data.SparseLabels(np.flatnonzero(keep), labels[keep])
    fresh = bank_mod.empty_bank(3, X.shape[1])
    unit = movmf.unit_rows(X)
    init = family.init(X, unit, sparse, fresh, 2)
    result = family.fit(X, unit, init, movmf.EMConfig(**em))[0]
    assert result.iterations == iters
    assignment = np.argmax(result.posterior, axis=1)
    posterior = movmf.one_hot(assignment, 3) if variant in _PROTO_FAMILY else result.posterior
    assert np.array_equal(written[0].view(np.uint64), posterior.view(np.uint64))
    assignments = (tmp_path / "out.assignments").read_text().split()
    assert assignments == [str(c) for c in assignment.tolist()]


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("variant", _PROTO_FAMILY)
def test_cluster_proto_outputs_equal_the_nearest_prototype_rule_on_8_classes(
        tmp_path, variant, labeled):
    # about 4k rows of 8 classes, unlabeled and at 1% labels: the family's E
    # step at the init assigns each row as the direct rule of _old_cluster does
    scene = data.gen_scene(data.SceneSpec(num_classes=8, points_per_class=(450, 550), seed=6))
    X = scene.network_input()
    path = tmp_path / "matrix.txt"
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in X.tolist()))
    args = [str(path), "--classes", "8", "--seed", "5", "--variant", variant,
            "--out-prefix", str(tmp_path / "out")]
    labels = None
    if labeled:
        sparse = data.sample_sparse_labels(scene, 0.01, seed=6)
        labels = np.full(X.shape[0], -1)
        labels[sparse.indices] = sparse.classes
        (tmp_path / "labels.txt").write_text("".join(f"{c}\n" for c in labels.tolist()))
        args += ["--labels", str(tmp_path / "labels.txt")]
    assert cli.main(["cluster", *args]) == cli.EXIT_OK

    assignment, posterior = _old_cluster(X, variant, 8, 5, labels)
    assert (tmp_path / "out.assignments").read_bytes() == _old_lines(map(str, assignment))
    assert (tmp_path / "out.posteriors").read_bytes() == _old_lines(_old_format_rows(posterior))


@pytest.mark.parametrize("variant, code", [("proto-euclid", cli.EXIT_DATA),
                                           ("proto-cosine", cli.EXIT_OK)])
def test_cluster_proto_on_fewer_rows_than_classes(tmp_path, capsys, variant, code):
    # the GMM needs a point per component, as --variant gmm does; the moVMF does not
    (tmp_path / "matrix.txt").write_text("1.0 2.0\n3.0 -1.0\n")
    got = cli.main(["cluster", str(tmp_path / "matrix.txt"), "--classes", "3",
                    "--variant", variant, "--out-prefix", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert got == code
    if code == cli.EXIT_OK:
        assert err == ""
        assert len((tmp_path / "out.assignments").read_text().split()) == 2
    else:
        assert err == "error: need at least 3 points, got 2\n"
        assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("variant", cli.CLUSTER_VARIANTS)
def test_cluster_inits_and_fits_through_the_trainer_dispatch(tmp_path, monkeypatch, variant,
                                                             labeled):
    # labels take the family's init, and every variant fits through its
    # family's fit: proto-euclid gmm's and proto-cosine hard's, with no EM
    # iteration
    calls = []
    real_init, real_fit = trainer.Family.init, trainer.Family.fit
    monkeypatch.setattr(trainer.Family, "init", lambda family, *a:
                        calls.append(("init", family)) or real_init(family, *a))
    monkeypatch.setattr(trainer.Family, "fit", lambda family, *a:
                        calls.append(("fit", family, a[3].max_iters)) or real_fit(family, *a))
    _, _, args = _cluster_input(tmp_path, labeled)
    code = cli.main(["cluster", *args, "--variant", variant,
                     "--out-prefix", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    family = trainer.FAMILIES[_PROTO_FAMILY.get(variant, variant)]
    inits = [("init", family)] if labeled else []
    iters = 0 if variant in _PROTO_FAMILY else movmf.EMConfig.max_iters
    assert calls == [*inits, ("fit", family, iters)]


# each family's EM, labeled init (with the init_centers it calls) and loss
_FAMILY_LAYERS = {
    "soft": ("soft_movmf_em", ("init_centers",), "vmf_loss"),
    "hard": ("hard_movmf_em", ("init_centers",), "vmf_loss"),
    "gmm": ("gmm_em", ("euclidean_init_means", "init_centers"), "gmm_nll_loss"),
}


@pytest.mark.parametrize("alignment", trainer.FAMILIES)
def test_each_family_calls_only_its_own_layer_functions(tmp_path, monkeypatch, alignment):
    # the families look their layer functions up by module attribute at call
    # time, so a wrapped binding (as the bench tracer installs) sees every call
    # of `dgn cluster` and, for a training alignment, of an aligned train_step
    # and explain
    calls = []
    for module, names in [(movmf, ("soft_movmf_em", "hard_movmf_em")),
                          (baselines, ("gmm_em", "gmm_nll_loss")), (losses, ("vmf_loss",)),
                          (bank_mod, ("init_centers", "euclidean_init_means"))]:
        for name in names:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, name=name, real=real, **kw:
                                calls.append(name) or real(*a, **kw))
    em, init, loss = _FAMILY_LAYERS[alignment]
    fit_calls = sorted([em, *init])
    _, _, args = _cluster_input(tmp_path, labeled=True)
    code = cli.main(["cluster", *args, "--variant", alignment,
                     "--out-prefix", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert sorted(calls) == fit_calls
    if alignment not in trainer.ALIGNMENTS:
        return

    calls.clear()
    scene = data.gen_scene(data.SceneSpec(num_classes=3, points_per_class=(20, 30), seed=1))
    scene = data.with_sparse(scene, data.sample_sparse_labels(scene, 0.1, seed=1))
    cfg = trainer.TrainConfig(alignment=alignment, warmup_epochs=0, em_iters=3,
                              hidden_dims=(8,), feat_dim=4)
    params = network.init_params([7, 8, 4], 3, seed=0)
    trainer.train_step(scene, params, bank_mod.empty_bank(3, 4), cfg, epoch=0)
    assert sorted(calls) == sorted([*fit_calls, loss])
    calls.clear()
    trainer.explain(scene, params, cfg)
    assert sorted(calls) == fit_calls


@pytest.mark.parametrize(
    "variant, flags",
    [("gmm", ["--kappa", "5"]), ("proto-euclid", ["--kappa", "10"]),
     ("proto-cosine", ["--iters", "3"]), ("proto-euclid", ["--tol", "0.1"]),
     ("soft", ["--kappa", "nan"]), ("hard", ["--kappa", "inf"]),
     ("soft", ["--tol", "nan"]), ("gmm", ["--tol", "inf"]), ("soft", ["--kappa", "-1"]),
     ("soft", ["--seed", "-1"]), ("soft", ["--classes", "0"])],
    ids=["gmm-kappa", "proto-kappa", "proto-iters", "proto-tol", "kappa-nan", "kappa-inf",
         "tol-nan", "tol-inf", "kappa-negative", "seed-negative", "classes-zero"],
)
def test_cluster_rejects_a_flag_the_variant_cannot_use(tmp_path, capsys, variant, flags):
    _, _, args = _cluster_input(tmp_path, labeled=False)
    code = cli.main(["cluster", *args, "--variant", variant, *flags,
                     "--out-prefix", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("out.*"))


def test_cluster_label_outside_int64_is_a_parse_error(tmp_path, capsys):
    X, _, args = _cluster_input(tmp_path, labeled=False)
    lines = ["-1"] * X.shape[0]
    lines[4] = "99999999999999999999"
    (tmp_path / "labels.txt").write_text("\n".join(lines) + "\n")
    code = cli.main(["cluster", *args, "--labels", str(tmp_path / "labels.txt"),
                     "--out-prefix", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert "labels.txt:5: label outside the int64 range" in err and "Traceback" not in err


@pytest.mark.parametrize("bad", [-2, -5, 3], ids=["minus-2", "minus-5", "classes"])
def test_cluster_label_outside_the_classes_is_a_data_error(tmp_path, capsys, bad):
    # -1 marks an unlabeled row; any other label must name one of the classes
    X, _, args = _cluster_input(tmp_path, labeled=False)
    lines = ["-1"] * X.shape[0]
    lines[4] = str(bad)
    (tmp_path / "labels.txt").write_text("\n".join(lines) + "\n")
    code = cli.main(["cluster", *args, "--labels", str(tmp_path / "labels.txt"),
                     "--out-prefix", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert "outside [-1, --classes)" in err and "Traceback" not in err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("variant", cli.CLUSTER_VARIANTS)
def test_cluster_non_finite_row_is_a_parse_error(tmp_path, capsys, variant, labeled):
    X, _, args = _cluster_input(tmp_path, labeled)
    rows = [" ".join(map(repr, r)) for r in X.tolist()]
    rows[3] = " ".join(["nan"] * X.shape[1])
    (tmp_path / "matrix.txt").write_text("\n".join(rows) + "\n")
    code = cli.main(["cluster", *args, "--variant", variant,
                     "--out-prefix", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err == f"error: {tmp_path / 'matrix.txt'}:4: non-finite number\n"


def test_train_rejects_a_non_finite_scene_value(tmp_path, capsys):
    _write_scenes(tmp_path, count=2)
    path = tmp_path / "scene_001.dgn"
    lines = path.read_text().splitlines()
    lines[3] = "nan " + lines[3].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err == f"error: {path}:4: non-finite number\n"
    assert not (tmp_path / "out").exists()


def test_explain_output_equals_per_value_writer(tmp_path):
    # one label: classes 1 and 2 start from the checkpoint's bank when it has one
    scene = data.gen_scene(data.SceneSpec(num_classes=3, points_per_class=(30, 40), seed=6))
    scene = data.with_sparse(scene, data.SparseLabels(np.array([0]), scene.gt_labels[:1]))
    scene_path = str(tmp_path / "scene.dgn")
    data.write_scene(scene_path, scene)
    params = network.init_params([7, 8, 4], 3, seed=1)
    protos = movmf.normalize_rows(np.random.default_rng(0).standard_normal((3, 4)))
    ckpt = str(tmp_path / "model.ckpt")
    out = tmp_path / "posteriors.txt"
    posteriors = []
    for prototype_bank in (None, bank_mod.MemoryBank(protos, np.ones(3, dtype=bool), 0.9)):
        network.save_checkpoint(ckpt, params, prototype_bank)
        code = cli.main(["explain", "--scene", scene_path, "--checkpoint", ckpt,
                         "--out", str(out)])
        assert code == cli.EXIT_OK

        posterior = trainer.explain(data.read_scene(scene_path), params,
                                    trainer.TrainConfig(), prototype_bank)
        assert out.read_bytes() == _old_lines(_old_format_rows(posterior))
        posteriors.append(posterior)
    assert not np.array_equal(*posteriors)


def _train_tiny(tmp_path, config_text):
    """`dgn train` of four 3-class scenes under ``config_text`` at seed 2:
    the output directory and a scene to explain."""
    scenes = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(scenes), "--scenes", "4", "--classes", "3",
                     "--points", "20:30", "--label-rate", "0.2", "--seed", "5"]) == cli.EXIT_OK
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 2\nwarmup_epochs = 1\nem_iters = 3\nhidden_dims = 8, 8\n"
                      "feat_dim = 4\n" + config_text)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--data", str(scenes),
                     "--out", str(out), "--seed", "2"]) == cli.EXIT_OK
    assert trainer.load_config(str(out / cli.TRAINED_CONFIG)) == dataclasses.replace(
        trainer.load_config(str(config)), seed=2)
    return out, str(scenes / "scene_003.dgn")


def test_explain_without_config_fits_the_family_the_checkpoint_was_trained_with(tmp_path):
    # without the saved config a gmm-trained checkpoint got a soft moVMF fit
    out, scene = _train_tiny(tmp_path, "alignment = gmm\n")
    gmm = tmp_path / "gmm.cfg"
    gmm.write_text("alignment = gmm\nem_iters = 3\nseed = 2\n")
    defaults = tmp_path / "defaults.cfg"
    defaults.write_text("")
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "model.ckpt").write_bytes((out / "model.ckpt").read_bytes())
    posteriors = {}
    for name, ckpt, flags in [("saved", out, []), ("given", out, ["--config", str(gmm)]),
                              ("bare", bare, []), ("default", bare, ["--config", str(defaults)])]:
        path = tmp_path / f"{name}.txt"
        assert cli.main(["explain", "--scene", scene, "--checkpoint", str(ckpt / "model.ckpt"),
                         *flags, "--out", str(path)]) == cli.EXIT_OK
        posteriors[name] = path.read_bytes()
    assert posteriors["saved"] == posteriors["given"]
    # a checkpoint without the file is explained with the defaults, as before
    assert posteriors["bare"] == posteriors["default"] != posteriors["saved"]


@pytest.mark.parametrize("text, name, given, trained", [
    ("kappa = 1", "kappa", "1.0", "10.0"),
    ("alignment = gmm", "alignment", "gmm", "soft"),
])
def test_explain_with_a_config_the_checkpoint_was_not_trained_with_exits_2(
        tmp_path, capsys, text, name, given, trained):
    out, scene = _train_tiny(tmp_path, "")
    config = tmp_path / "explain.cfg"
    explain = ["explain", "--scene", scene, "--checkpoint", str(out / "model.ckpt"),
               "--config", str(config), "--out", str(tmp_path / "post.txt")]
    config.write_text("em_iters = 5\nseed = 9\n")  # agrees on the family and kappa
    assert cli.main(explain) == cli.EXIT_OK
    capsys.readouterr()
    (tmp_path / "post.txt").unlink()
    config.write_text(text + "\n")
    assert cli.main(explain) == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: --config sets {name} = {given}, but the checkpoint was trained with "
        f"{trained} ({out / cli.TRAINED_CONFIG})\n")
    assert not (tmp_path / "post.txt").exists()


@pytest.mark.parametrize("command", ["ablate", "explain-saved", "explain-config"])
def test_alignment_hard_exits_2_in_ablate_and_explain(tmp_path, capsys, command):
    # hard is a `dgn cluster` variant only: a sweep or a config naming it ends
    # before any fit, as does explaining a checkpoint whose saved config names
    # it (`dgn train` is in test_train_rejects_bad_config_with_exit_2)
    out, scene = _train_tiny(tmp_path, "")
    hard = tmp_path / "hard.cfg"
    hard.write_text("alignment = hard\n")
    target = tmp_path / "target"
    argv = {
        "ablate": ["ablate", "--data", str(tmp_path / "data"), "--param", "alignment",
                   "--values", "soft,hard", "--out", str(target)],
        "explain-saved": ["explain", "--scene", scene, "--checkpoint", str(out / "model.ckpt"),
                          "--out", str(target)],
    }
    argv["explain-config"] = [*argv["explain-saved"], "--config", str(hard)]
    if command == "explain-saved":
        (out / cli.TRAINED_CONFIG).write_text("alignment = hard\n")
    capsys.readouterr()
    assert cli.main(argv[command]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: alignment must be one of {trainer.ALIGNMENTS}\n"
    assert not target.exists()


@pytest.mark.parametrize("classes", [3, 8])
def test_explain_of_a_scene_whose_class_count_is_not_the_heads_exits_3(tmp_path, capsys,
                                                                         classes):
    # fewer classes than the head wrote a posterior column per head class,
    # more failed deep in the init
    _write_scenes(tmp_path, num_classes=classes)
    ckpt = tmp_path / "model.ckpt"
    network.save_checkpoint(str(ckpt), network.init_params([7, 4], 6, seed=0))
    out = tmp_path / "posteriors.txt"
    code = cli.main(["explain", "--scene", str(tmp_path / "scene_000.dgn"),
                     "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: the scene has {classes} classes but the model's head has 6\n")
    assert not out.exists()


@pytest.mark.parametrize("shape", [(5, 4), (3, 6)], ids=["classes", "dim"])
def test_explain_of_a_checkpoint_whose_bank_is_not_the_heads_shape_exits_2(tmp_path, capsys,
                                                                            shape):
    _write_scenes(tmp_path, num_classes=3)
    params = network.init_params([7, 4], 3, seed=0)
    ckpt = tmp_path / "model.ckpt"
    network.save_checkpoint(str(ckpt), params)
    at = ckpt.stat().st_size  # the bank shape follows the bank flag
    network.save_checkpoint(str(ckpt), params, bank_mod.empty_bank(*shape))
    out = tmp_path / "posteriors.txt"
    code = cli.main(["explain", "--scene", str(tmp_path / "scene_000.dgn"),
                     "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: {ckpt}:{at}: bank shape {shape} is not the head's (3, 4)\n")
    assert not out.exists()


@pytest.mark.parametrize("momentum, scale, reason", [
    (1.5, 1.0, "momentum must be in [0, 1)"),
    (0.9, 2.0, "seen prototypes must have unit rows"),
    (0.9, 1e300, "seen prototypes must have unit rows"),   # its norm overflows
], ids=["momentum", "prototype", "huge-prototype"])
def test_explain_of_a_checkpoint_whose_bank_is_out_of_range_exits_2(tmp_path, capsys,
                                                                     momentum, scale, reason):
    _write_scenes(tmp_path, num_classes=3)
    params = network.init_params([7, 4], 3, seed=0)
    ckpt = tmp_path / "model.ckpt"
    network.save_checkpoint(str(ckpt), params)
    at = ckpt.stat().st_size
    bank = bank_mod.MemoryBank(np.eye(3, 4), np.ones(3, dtype=bool), 0.9)
    object.__setattr__(bank, "momentum", momentum)   # MemoryBank would reject these
    object.__setattr__(bank, "prototypes", bank.prototypes * scale)
    network.save_checkpoint(str(ckpt), params, bank)
    out = tmp_path / "posteriors.txt"
    code = cli.main(["explain", "--scene", str(tmp_path / "scene_000.dgn"),
                     "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: {ckpt}:{at}: bad bank: {reason}\n"
    assert not out.exists()


def test_explain_of_a_checkpoint_claiming_a_huge_layer_exits_2(tmp_path, capsys):
    _write_scenes(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    network.save_checkpoint(str(ckpt), network.init_params([7, 4], 2, seed=0))
    blob = bytearray(ckpt.read_bytes())
    blob[12:20] = struct.pack("<II", 2**32 - 1, 2**32 - 1)  # the first layer's shape
    ckpt.write_bytes(bytes(blob))
    out = tmp_path / "posteriors.txt"
    code = cli.main(["explain", "--scene", str(tmp_path / "scene_000.dgn"),
                     "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: {ckpt}:28: truncated checkpoint\n"
    assert not out.exists()


def test_explain_of_a_checkpoint_holding_nan_exits_2(tmp_path, capsys):
    _write_scenes(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    network.save_checkpoint(str(ckpt), network.init_params([7, 4], 2, seed=0))
    blob = bytearray(ckpt.read_bytes())
    blob[28:36] = struct.pack("<d", math.nan)  # the first weight
    ckpt.write_bytes(bytes(blob))
    out = tmp_path / "posteriors.txt"
    code = cli.main(["explain", "--scene", str(tmp_path / "scene_000.dgn"),
                     "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: {ckpt}:28: non-finite value\n"
    assert not out.exists()


def test_explain_of_a_checkpoint_that_overflows_exits_3(tmp_path, capsys):
    _write_scenes(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    params = network.init_params([7, 4], 2, seed=0)
    network.save_checkpoint(str(ckpt), network.ModelParams.from_tensors(
        [t * 1e200 for t in params.tensors]))
    out = tmp_path / "posteriors.txt"
    code = cli.main(["explain", "--scene", str(tmp_path / "scene_000.dgn"),
                     "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: the network's outputs are not finite\n"
    assert not out.exists()


def test_explain_whose_features_overflow_exits_3_with_one_line(tmp_path, capsys):
    # finite logits pass the forward's check; the unit rows of the features overflow
    _write_scenes(tmp_path, num_classes=3)
    params = network.init_params([7, 32, 32, 16], 3, seed=0)
    ckpt = tmp_path / "model.ckpt"
    network.save_checkpoint(str(ckpt), network.ModelParams(
        params.layer_weights[:-1] + (params.layer_weights[-1] * 1e160,),
        params.layer_biases[:-1] + (params.layer_biases[-1] * 1e160,),
        params.head_weights * 1e-155))
    out = tmp_path / "posteriors.txt"
    code = cli.main(["explain", "--scene", str(tmp_path / "scene_000.dgn"),
                     "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        "error: the scene's features overflow in clustering: overflow encountered in multiply\n")
    assert not out.exists()


def test_train_that_diverges_exits_3_with_one_line(tmp_path, capsys):
    # "dgn gen-data --scenes 4 --classes 3 --seed 1", then a learning rate that diverges
    assert cli.main(["gen-data", "--out", str(tmp_path / "d"), "--scenes", "4",
                     "--classes", "3", "--seed", "1"]) == cli.EXIT_OK
    (tmp_path / "c.cfg").write_text("epochs = 4\nwarmup_epochs = 1\nlr = 1e12\n"
                                    "optimizer = sgd\n")
    capsys.readouterr()
    code = cli.main(["train", "--config", str(tmp_path / "c.cfg"), "--data",
                     str(tmp_path / "d"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1
    assert err.startswith("error: training diverged at epoch ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("variant", cli.CLUSTER_VARIANTS)
def test_cluster_matrix_that_overflows_exits_3_with_one_line(tmp_path, capsys, variant,
                                                             labeled):
    # finite rows whose squares overflow: no numpy warning, no message about
    # an init row, one error line
    X, _, args = _cluster_input(tmp_path, labeled)
    (tmp_path / "matrix.txt").write_text(
        "".join(" ".join(map(repr, row)) + "\n" for row in (X * 1e200).tolist()))
    code = cli.main(["cluster", *args, "--variant", variant,
                     "--out-prefix", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert err.startswith("error: the matrix overflows in clustering: overflow")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("out.*"))


def test_gen_data_worker_that_dies_exits_3_with_one_line(tmp_path):
    # two workers even on one CPU; the task of scene 1 is killed as for memory
    src = os.path.dirname(os.path.dirname(dgn.__file__))
    probe = ("import os, signal, sys\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "from dgn import cli\n"
             "write = cli._write_generated\n"
             "def task(item):\n"
             "    if item[0].name == 'scene_001.dgn':\n"
             "        os.kill(os.getpid(), signal.SIGKILL)\n"
             "    write(item)\n"
             "cli._write_generated = task\n"
             f"sys.exit(cli.main(['gen-data', '--out', {str(tmp_path / 'd')!r}, "
             "'--scenes', '4']))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == cli.EXIT_DATA
    assert out.stderr == "error: a worker process died (say, killed for memory)\n"


# ---------------------------------------------------------------------------
# _read_matrix: the contract of the per-line float() loop it replaced

def _old_read_matrix(path):
    rows = []
    width = None
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            toks = stripped.split()
            try:
                row = [float(t) for t in toks]
            except ValueError:
                raise ParseError(str(path), line_no, "malformed number")
            if not all(math.isfinite(v) for v in row):
                raise ParseError(str(path), line_no, "non-finite number")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(
                    str(path), line_no, f"expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ParseError(str(path), 1, "empty matrix file")
    return np.asarray(rows)


def _outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return str(exc)


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("1 2\n3 x\n", 2),
        ("1 2\n3 4\n5\n", 3),
        ("1 2\n\n3 4 5\n", 3),
        ("1 2\n3 # 4\n", 2),
        ("1 2 x\n3\n", 1),         # a malformed number is named before the width
        ("", 1),
        ("\n  \n\t\n", 1),
    ],
    ids=["malformed", "ragged", "ragged-after-blank", "hash", "malformed-first",
         "empty", "blank-only"],
)
def test_read_matrix_parse_error_equals_old_loop(tmp_path, text, line):
    path = str(tmp_path / "m.txt")
    _write(path, text)
    with pytest.raises(ParseError) as err:
        cli._read_matrix(path)
    assert err.value.line == line
    assert str(err.value) == _outcome(_old_read_matrix, path)


@pytest.mark.parametrize(
    "text",
    ["\n1 2\n\n  \n3 4\n\n", "1 2\r\n3 4\r\n", "1 2\r3 4\r", "1\n2\n", "1 2 3"],
    ids=["blank-lines", "crlf", "cr", "one-column", "no-final-newline"],
)
def test_read_matrix_accepts_what_old_loop_accepted(tmp_path, text):
    path = str(tmp_path / "m.txt")
    _write(path, text)
    got = cli._read_matrix(path)
    assert got.dtype == np.float64 and got.ndim == 2
    np.testing.assert_array_equal(got, _old_read_matrix(path))


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11"],
                         ids=["underscore", "arabic-indic-digit", "fullwidth-digit"])
def test_read_matrix_rejects_what_loadtxt_cannot_read(tmp_path, token):
    # float() accepts these; the format does not
    path = str(tmp_path / "m.txt")
    _write(path, f"1 2\n3 {token}\n")
    with pytest.raises(ParseError, match="malformed number") as err:
        cli._read_matrix(path)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, line",
    [("1 2\nnan 4\n", 2), ("1 2\n\n3 -inf\n", 3), ("1 2\n3 1e999\n", 2),
     ("1 2\n3 inf\n5\n", 2), ("1 2\n3\n4 nan\n", 2), ("1 x\nnan 2\n", 1)],
    ids=["nan", "inf-after-blank", "overflow", "before-ragged", "after-ragged",
         "after-malformed"],
)
def test_read_matrix_names_the_first_non_finite_line(tmp_path, text, line):
    # a non-finite number is a fault of its line, found in file order with
    # the malformed numbers and ragged rows
    path = str(tmp_path / "m.txt")
    _write(path, text)
    with pytest.raises(ParseError) as err:
        cli._read_matrix(path)
    assert err.value.line == line
    assert str(err.value) == _outcome(_old_read_matrix, path)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda k: st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=k, max_size=k), min_size=1, max_size=8)
))
def test_read_matrix_round_trips_repr(tmp_path_factory, rows):
    path = str(tmp_path_factory.mktemp("m") / "m.txt")
    _write(path, "".join(" ".join(map(repr, row)) + "\n" for row in rows))
    got = cli._read_matrix(path)
    want = np.array(rows, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


_PIECES = st.sampled_from([
    "1", "-0.5", "1e3", "nan", "-inf", "+2.", ".5", "1e", "0x1", "#", "_", "1_0",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028",
    "\xa0", "\x00", "\u0663", "x", ",",
])


def _is_digit_off_ascii(ch):
    return ch.isdecimal() and not ch.isascii()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_PIECES, st.text(max_size=2)), max_size=24).map("".join))
def test_read_matrix_arbitrary_text_matches_old_loop(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("m") / "m.txt")
    _write(path, text)
    new = _outcome(cli._read_matrix, path)     # anything but ParseError escapes
    old = _outcome(_old_read_matrix, path)
    if isinstance(new, np.ndarray):
        assert isinstance(old, np.ndarray)
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
    elif "_" in text or any(_is_digit_off_ascii(ch) for ch in text):
        pass  # float() reads these numbers, loadtxt does not
    else:
        assert new == old


# ---------------------------------------------------------------------------
# _read_labels: the contract of the per-line integer() loop it replaced

def _old_read_labels(path, n):
    labels = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                label = data.integer(stripped)
            except ValueError:
                raise ParseError(str(path), line_no, "expected one integer per line") from None
            if not np.iinfo(np.int64).min <= label <= np.iinfo(np.int64).max:
                raise ParseError(str(path), line_no, "label outside the int64 range")
            labels.append(label)
    if len(labels) != n:
        raise LengthMismatch(f"{path}: {len(labels)} labels for {n} rows")
    return np.asarray(labels, dtype=np.int64)


def _label_outcome(read, path, n):
    try:
        return read(path, n)
    except (ParseError, LengthMismatch) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_PIECES, st.sampled_from(["+", "-", "99999999999999999999",
                                                   "\U000e0000"]),
                          st.text(max_size=2)), max_size=24).map("".join))
def test_read_labels_arbitrary_text_matches_old_loop(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("l") / "labels.txt")
    _write(path, text)
    with open(path) as fh:
        n = sum(1 for line in fh if line.strip())  # the count when every line is a label
    new = _label_outcome(cli._read_labels, path, n)   # any other error escapes
    old = _label_outcome(_old_read_labels, path, n)
    if isinstance(new, np.ndarray):
        assert isinstance(old, np.ndarray) and new.dtype == old.dtype
        assert np.array_equal(new, old)
    else:
        assert new == old
