import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgn import data, errors, network, trainer
from dgn import bank as bank_mod
from dgn.errors import DgnError, InvalidGrid
from dgn.workspace import SCRATCH
from test_network import point_major_softmax


def _scenes(count=5):
    return [
        data.gen_scene(data.SceneSpec(num_classes=3, points_per_class=(20, 30), seed=seed))
        for seed in range(count)
    ]


def _cfg(**kw):
    base = dict(epochs=3, warmup_epochs=1, em_iters=3, hidden_dims=(8, 8), feat_dim=4,
                label_rate=0.05, seed=3)
    base.update(kw)
    return trainer.TrainConfig(**base)


def _param_arrays(params):
    return (*params.layer_weights, *params.layer_biases, params.head_weights)


@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_fit_twice_gives_identical_checkpoint_and_reports(tmp_path, alignment):
    scenes = _scenes()
    cfg = _cfg(alignment=alignment)
    first = trainer.fit(scenes, cfg)
    second = trainer.fit(scenes, cfg)
    assert first.reports == second.reports
    assert len(first.reports) == cfg.epochs
    paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for path, result in zip(paths, (first, second)):
        network.save_checkpoint(str(path), result.params, result.bank)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_fit_gives_the_bits_of_the_point_major_softmax_and_bias_sums(monkeypatch, alignment):
    scenes = _scenes()
    cfg = _cfg(alignment=alignment)
    new = trainer.fit(scenes, cfg)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(network, "softmax", counted("softmax", point_major_softmax))
    monkeypatch.setattr(network, "_sum_columns", counted("sum", lambda dz: dz.sum(axis=0)))
    old = trainer.fit(scenes, cfg)
    assert calls["softmax"] and calls["sum"]
    assert new.reports == old.reports
    for x, y in zip(_param_arrays(new.params), _param_arrays(old.params), strict=True):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("epoch", [0, 1])
def test_train_step_workspace_is_bitwise_neutral(epoch):
    # the shared workspace has served a larger scene before, so stale rows
    # or views of the wrong shape would change the step
    small = _scenes(count=1)[0]
    large = data.gen_scene(data.SceneSpec(num_classes=3, points_per_class=(60, 70), seed=9))
    scene = data.with_sparse(small, data.sample_sparse_labels(small, 0.1, seed=1))
    cfg = _cfg()
    params = network.init_params([7, *cfg.hidden_dims, cfg.feat_dim], 3, seed=cfg.seed)
    prototypes = bank_mod.empty_bank(3, cfg.feat_dim, cfg.bank_momentum)
    opt = network.init_adam_state(params)

    ws = network.Workspace()
    trainer.predict(params, large, ws)
    fresh = trainer.train_step(scene, params, prototypes, cfg, epoch, opt)
    shared = trainer.train_step(scene, params, prototypes, cfg, epoch, opt, ws)

    for x, y in zip(_param_arrays(fresh.params), _param_arrays(shared.params), strict=True):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(fresh.bank.prototypes, shared.bank.prototypes)
    np.testing.assert_array_equal(fresh.bank.seen, shared.bank.seen)
    assert fresh.report == shared.report
    assert fresh.report.em_iters == shared.report.em_iters
    assert fresh.opt_state.step == shared.opt_state.step
    np.testing.assert_array_equal(fresh.opt_state.means, shared.opt_state.means)
    np.testing.assert_array_equal(fresh.opt_state.variances, shared.opt_state.variances)
    np.testing.assert_array_equal(fresh.predictions, shared.predictions)


def _subset(scene, n, seed):
    """n points of ``scene`` drawn without replacement, labeled at rate 0.1."""
    keep = np.sort(np.random.default_rng(seed).choice(scene.num_points, n, replace=False))
    gt = scene.gt_labels[keep]
    cut = data.SceneBatch(scene.coords[keep], scene.extra_feats[keep], gt,
                          data.SparseLabels(np.arange(gt.size), gt), scene.num_classes)
    return data.with_sparse(cut, data.sample_sparse_labels(cut, 0.1, seed=seed))


@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_train_steps_on_one_shared_workspace_equal_steps_on_fresh_ones(alignment):
    # the scenes shrink and grow, so each step finds the buffers that the
    # network, the fit and the losses of a step of another size left behind;
    # a workspace built for the largest scene (80 points) hands out the
    # leading rows of longer buffers instead
    big = data.gen_scene(data.SceneSpec(num_classes=3, points_per_class=(30, 40), seed=4))
    scenes = [_subset(big, n, seed) for seed, n in enumerate((50, 20, 80, 33))]
    cfg = _cfg(alignment=alignment)
    params = network.init_params([7, *cfg.hidden_dims, cfg.feat_dim], 3, seed=cfg.seed)
    prototypes = bank_mod.empty_bank(3, cfg.feat_dim, cfg.bank_momentum)
    fresh = trainer.StepResult(params, prototypes, None, None)
    workspaces = [network.Workspace(), network.Workspace(80)]
    shared = [fresh] * len(workspaces)
    for epoch in (0, 1, 2):  # warmup, then aligned
        for scene in scenes:
            fresh = trainer.train_step(scene, fresh.params, fresh.bank, cfg, epoch,
                                       fresh.opt_state)
            for i, ws in enumerate(workspaces):
                step = shared[i] = trainer.train_step(scene, shared[i].params, shared[i].bank,
                                                      cfg, epoch, shared[i].opt_state, ws)
                for x, y in zip(_param_arrays(fresh.params), _param_arrays(step.params),
                                strict=True):
                    np.testing.assert_array_equal(x, y)
                np.testing.assert_array_equal(fresh.bank.prototypes, step.bank.prototypes)
                np.testing.assert_array_equal(fresh.bank.seen, step.bank.seen)
                assert fresh.report == step.report
                np.testing.assert_array_equal(fresh.predictions, step.predictions)
    assert fresh.report.em_iters > 0


@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_an_aligned_step_on_a_used_workspace_allocates_less_than_one_feature_array(alignment):
    # after one step, every per-point float array of the next lives in the
    # workspace; the step still allocates its predictions, the row norms
    # and backward's rectifier masks
    scene = data.gen_scene(data.SceneSpec(num_classes=4, points_per_class=(1000, 1000), seed=2))
    scene = data.with_sparse(scene, data.sample_sparse_labels(scene, 0.01, seed=1))
    cfg = trainer.TrainConfig(alignment=alignment, warmup_epochs=0, em_iters=3)
    params = network.init_params([7, *cfg.hidden_dims, cfg.feat_dim], 4, seed=0)
    ws = network.Workspace()
    step = trainer.train_step(scene, params, bank_mod.empty_bank(4, cfg.feat_dim), cfg, 0,
                              None, ws)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step = trainer.train_step(scene, step.params, step.bank, cfg, 0, step.opt_state, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step.report.em_iters > 0
    assert peak - start < scene.num_points * cfg.feat_dim * 8


@pytest.mark.parametrize("larger", ["train", "val"])
@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_fit_allocates_each_workspace_buffer_once(monkeypatch, alignment, larger):
    # a later training or validation scene is larger than the first, and the
    # aligned steps after the warmup take wider scratch arrays (feat_dim 4 >
    # 3 classes); the fit's workspace is built for both, so no step or
    # evaluation replaces a buffer that an earlier step took
    big = data.gen_scene(data.SceneSpec(num_classes=3, points_per_class=(40, 50), seed=4))
    sizes = (40, 60, 120, 50) if larger == "train" else (40, 60, 50, 120)
    scenes = [_subset(big, n, seed) for seed, n in enumerate(sizes)]
    cfg = _cfg(alignment=alignment, val_fraction=0.25)
    snapshots, workspaces = [], []
    step = trainer.train_step

    def recording_step(*args):
        result = step(*args)
        workspaces.append(args[-1])
        snapshots.append(dict(args[-1]._buffers))
        return result

    monkeypatch.setattr(trainer, "train_step", recording_step)
    result = trainer.fit(scenes, cfg)
    assert result.reports[-1].em_iters > 0
    assert len(snapshots) == cfg.epochs * 3
    assert all(ws is workspaces[0] for ws in workspaces)
    # the last snapshot is the workspace after the last evaluation
    snapshots.append(dict(workspaces[0]._buffers))
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert all(later[key] is buf for key, buf in earlier.items())
    assert {*SCRATCH, "input", "act0", "unit", "posterior"} <= snapshots[-1].keys()


def test_train_miou_is_the_head_miou_of_the_epochs_own_steps():
    # fit's epochs replayed as a plain loop of train_step: train_miou is the
    # mIoU of each step's head argmax before its update, over all training
    # scenes; the losses, val_miou and the final parameters are fit's, bit
    # for bit
    scenes = _scenes()
    cfg = _cfg()
    result = trainer.fit(scenes, cfg)
    train, val = trainer.split_dataset(scenes, cfg.val_fraction)
    train = [data.with_sparse(s, data.sample_sparse_labels(s, cfg.label_rate,
                                                           seed=cfg.seed + 7919 * i))
             for i, s in enumerate(train)]
    params = network.init_params([7, *cfg.hidden_dims, cfg.feat_dim], 3, seed=cfg.seed)
    prototypes = bank_mod.empty_bank(3, cfg.feat_dim, cfg.bank_momentum)
    opt = None
    train_gt = np.concatenate([s.gt_labels for s in train])
    val_gt = np.concatenate([s.gt_labels for s in val])
    for epoch, report in enumerate(result.reports):
        preds = []
        sums = dict.fromkeys(("tce", "vmf", "dis", "con", "total", "em_iters", "degenerate"), 0)
        for scene in train:
            before = trainer.predict(params, scene)
            step = trainer.train_step(scene, params, prototypes, cfg, epoch, opt)
            np.testing.assert_array_equal(step.predictions, before)
            preds.append(before)
            params, prototypes, opt = step.params, step.bank, step.opt_state
            for name in sums:
                sums[name] += getattr(step.report, name)
        assert report.train_miou == data.miou(np.concatenate(preds), train_gt, 3).miou
        val_pred = np.concatenate([trainer.predict(params, s) for s in val])
        assert report.val_miou == data.miou(val_pred, val_gt, 3).miou
        for name in ("tce", "vmf", "dis", "con", "total"):
            assert getattr(report, name) == sums[name] / len(train)
        assert (report.em_iters, report.degenerate) == (sums["em_iters"], sums["degenerate"])
    for x, y in zip(_param_arrays(params), _param_arrays(result.params), strict=True):
        np.testing.assert_array_equal(x, y)


def test_predict_workspace_is_bitwise_neutral():
    cfg = _cfg()
    params = network.init_params([7, *cfg.hidden_dims, cfg.feat_dim], 3, seed=1)
    ws = network.Workspace()
    for scene in _scenes(count=4):
        np.testing.assert_array_equal(
            trainer.predict(params, scene), trainer.predict(params, scene, ws)
        )



@pytest.mark.parametrize(
    "param, values, match",
    [("seed", [1, 2], "seeds="), ("no_such_key", [1], "no_such_key")],
    ids=["seed", "unknown-key"],
)
def test_ablate_rejects_grid_keys_it_cannot_sweep(param, values, match):
    with pytest.raises(InvalidGrid, match=match):
        trainer.ablate(_scenes(count=2), _cfg(epochs=1), param, values, seeds=[1])


@pytest.mark.parametrize("momentum", [1.0, 1.5, -0.1])
def test_config_rejects_a_bank_momentum_outside_0_1(momentum):
    with pytest.raises(ValueError, match=r"^bank_momentum must be in \[0, 1\)$"):
        trainer.TrainConfig(bank_momentum=momentum)


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_config_accepts_a_bank_momentum_in_0_1(momentum):
    assert trainer.TrainConfig(bank_momentum=momentum).bank_momentum == momentum


def test_ablate_rejects_a_bank_momentum_before_any_fit(monkeypatch):
    fits = []
    monkeypatch.setattr(trainer, "fit", lambda *a: fits.append(a))
    with pytest.raises(ValueError, match="bank_momentum"):
        trainer.ablate(_scenes(count=2), _cfg(epochs=1), "bank_momentum", [0.5, 1.5])
    assert fits == []


def test_ablate_rows_equal_one_fit_after_another(cpus):
    scenes = _scenes(count=4)
    base = _cfg(epochs=2)
    rows = trainer.ablate(scenes, base, "alignment", list(trainer.ALIGNMENTS), seeds=[1, 4])
    for row, value in zip(rows, trainer.ALIGNMENTS, strict=True):
        finals = np.asarray([
            trainer.fit(scenes, dataclasses.replace(base, alignment=value, seed=seed))
            .reports[-1].val_miou
            for seed in (1, 4)
        ])
        assert row == trainer.AblationRow(value, float(finals.mean()),
                                          float(finals.std(ddof=1) / np.sqrt(2)),
                                          tuple(finals.tolist()))


def _moves_training(scenes, off, on):
    return any(
        not np.array_equal(x, y)
        for x, y in zip(_param_arrays(trainer.fit(scenes, off).params),
                        _param_arrays(trainer.fit(scenes, on).params), strict=True)
    )


@pytest.mark.parametrize("term", ["use_vmf", "use_dis", "use_con"])
@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_every_alignment_term_changes_training(alignment, term):
    # no silent knob: each term, switched on after warmup, moves the network
    scenes = _scenes()
    off = _cfg(alignment=alignment, **{term: False})
    assert _moves_training(scenes, off, dataclasses.replace(off, **{term: True}))


@pytest.mark.parametrize("knob, value", [("kappa", 50.0), ("em_iters", 1), ("em_tol", 1e3)])
@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_every_em_knob_changes_training_or_is_rejected(alignment, knob, value):
    base = _cfg(alignment=alignment)
    if (alignment, knob) == ("gmm", "kappa"):
        # gmm has no concentration
        with pytest.raises(ValueError, match="kappa"):
            dataclasses.replace(base, **{knob: value})
        return
    assert _moves_training(_scenes(), base, dataclasses.replace(base, **{knob: value}))


@pytest.mark.parametrize("term", ["use_tce", "use_vmf", "use_dis", "use_con"])
def test_train_step_reports_a_disabled_term_as_zero(term):
    scene = _scenes(count=1)[0]
    scene = data.with_sparse(scene, data.sample_sparse_labels(scene, 0.1, seed=1))
    cfg = _cfg(**{term: False})
    params = network.init_params([7, *cfg.hidden_dims, cfg.feat_dim], 3, seed=cfg.seed)
    prototypes = bank_mod.empty_bank(3, cfg.feat_dim, cfg.bank_momentum)
    report = trainer.train_step(scene, params, prototypes, cfg, cfg.warmup_epochs).report
    values = {name: getattr(report, name) for name in ("tce", "vmf", "dis", "con")}
    assert [name for name, v in values.items() if v == 0.0] == [term.removeprefix("use_")]
    assert report.total == values["tce"] + values["vmf"] + values["dis"] + values["con"]


@pytest.mark.parametrize("epoch", [0, 1], ids=["warmup", "aligned"])
@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_train_step_applies_the_gradient_of_its_reported_total(monkeypatch, alignment, epoch):
    _check_step_gradient(monkeypatch, _cfg(alignment=alignment, warmup_epochs=1), epoch)


def test_train_step_applies_the_gradient_of_its_reported_total_at_a_sharp_kappa(monkeypatch):
    # at the default kappa = 1 the soft posterior on this scene is nearly
    # uniform, so its mean directions coincide and DIS passes a gradient of
    # 1e-10; at kappa = 10 they part and the oracle sees the DIS term
    _check_step_gradient(monkeypatch, _cfg(alignment="soft", warmup_epochs=1, kappa=10.0), 1)


def _check_step_gradient(monkeypatch, cfg, epoch):
    # whole-step oracle: with the fit held at the one taken from the
    # unperturbed features (train_step holds it constant), the gradients
    # handed to the optimizer are the central differences of StepReport.total
    scene = data.gen_scene(data.SceneSpec(num_classes=4, points_per_class=(30, 45), seed=3))
    scene = data.with_sparse(scene, data.sample_sparse_labels(scene, 0.1, seed=1))
    params = network.init_params([7, *cfg.hidden_dims, cfg.feat_dim], 4, seed=cfg.seed)
    prototypes = bank_mod.empty_bank(4, cfg.feat_dim, cfg.bank_momentum)
    fits, grads = [], []
    real_fit, real_adam = trainer.Family.fit, network.adam_step

    def first_fit(family, *args):
        if not fits:
            fits.append(real_fit(family, *args))
        return fits[0]

    monkeypatch.setattr(trainer.Family, "fit", first_fit)
    monkeypatch.setattr(network, "adam_step",
                        lambda p, g, *a: grads.append(g) or real_adam(p, g, *a))

    def total(tensors):
        params = network.ModelParams.from_tensors(tensors)
        return trainer.train_step(scene, params, prototypes, cfg, epoch).report.total

    base = total(params.tensors)
    assert len(fits) == (epoch >= cfg.warmup_epochs)
    h = 1e-6
    for i, grad in enumerate(grads[0].tensors):
        for flat in np.argsort(-np.abs(grad), axis=None)[:3]:   # its 3 largest coordinates
            idx = np.unravel_index(flat, grad.shape)
            moved = []
            for step in (h, -h):
                tensors = [t.copy() for t in params.tensors]
                tensors[i][idx] += step
                moved.append(total(tensors))
            numeric = (moved[0] - moved[1]) / (2 * h)
            assert abs(numeric - grad[idx]) <= 1e-4 * abs(grad[idx]), (i, idx, base)


@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_explain_fits_the_configured_family(alignment):
    scene = _scenes(count=1)[0]
    scene = data.with_sparse(scene, data.sample_sparse_labels(scene, 0.1, seed=1))
    cfg = _cfg(alignment=alignment)
    params = network.init_params([7, *cfg.hidden_dims, cfg.feat_dim], 3, seed=cfg.seed)
    posterior = trainer.explain(scene, params, cfg)
    assert posterior.shape == (scene.num_points, 3)
    np.testing.assert_allclose(posterior.sum(axis=1), 1.0)
    for other in [a for a in trainer.ALIGNMENTS if a != alignment]:
        other_posterior = trainer.explain(scene, params, _cfg(alignment=other))
        assert not np.array_equal(posterior, other_posterior)


@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_train_step_and_explain_fit_through_the_one_dispatch(monkeypatch, alignment):
    fits = []
    real = trainer.Family.fit
    monkeypatch.setattr(trainer.Family, "fit",
                        lambda family, *a: fits.append(family) or real(family, *a))
    scene = _scenes(count=1)[0]
    scene = data.with_sparse(scene, data.sample_sparse_labels(scene, 0.1, seed=1))
    cfg = _cfg(alignment=alignment)
    params = network.init_params([7, *cfg.hidden_dims, cfg.feat_dim], 3, seed=cfg.seed)
    prototypes = bank_mod.empty_bank(3, cfg.feat_dim, cfg.bank_momentum)
    trainer.train_step(scene, params, prototypes, cfg, cfg.warmup_epochs)
    trainer.explain(scene, params, cfg)
    assert fits == [trainer.FAMILIES[alignment]] * 2


@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_fit_survives_a_zero_feature_row(alignment):
    # a point at the origin has a zero input row; the biases start at zero,
    # so its feature row is exactly zero in the first aligned step
    scenes = []
    for scene in _scenes(count=3):
        coords, extra = scene.coords.copy(), scene.extra_feats.copy()
        coords[0] = 0.0
        extra[0] = 0.0
        scenes.append(dataclasses.replace(scene, coords=coords, extra_feats=extra))
    result = trainer.fit(scenes, _cfg(alignment=alignment, warmup_epochs=0))
    for report in result.reports:
        assert all(np.isfinite(getattr(report, k)) for k in ("vmf", "dis", "con"))
    assert all(np.all(np.isfinite(p)) for p in _param_arrays(result.params))


def _lacking_a_class(scene, missing):
    keep = scene.gt_labels != missing
    gt = scene.gt_labels[keep]
    return data.SceneBatch(scene.coords[keep], scene.extra_feats[keep], gt,
                           data.SparseLabels(np.arange(gt.size), gt), scene.num_classes)


_EDGE_SETS = {  # case: (scenes, label_rate)
    # four classes; scene i has no point of class i % 4
    "lacks-classes": (lambda: [
        _lacking_a_class(data.gen_scene(data.SceneSpec(4, (15, 20), seed=i)), i % 4)
        for i in range(5)], 0.05),
    # the rate rounds to no label, and fit draws one per scene
    "one-label": (_scenes, 1e-6),
    "k2": (lambda: [data.gen_scene(data.SceneSpec(2, (20, 30), seed=i)) for i in range(5)],
           0.05),
}


@pytest.mark.parametrize("case", _EDGE_SETS)
@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_fit_stays_finite_on_edge_case_scenes(alignment, case):
    scenes, rate = _EDGE_SETS[case]
    cfg = _cfg(alignment=alignment, label_rate=rate, epochs=10)
    result = trainer.fit(scenes(), cfg)
    assert result.reports[-1].em_iters > 0
    for report in result.reports:
        assert all(np.isfinite(getattr(report, k)) for k in ("tce", "vmf", "dis", "con", "total"))
    assert all(np.all(np.isfinite(p)) for p in _param_arrays(result.params))


@pytest.mark.parametrize("kappa", [
    10.0,
    pytest.param(trainer.TrainConfig.kappa, marks=pytest.mark.xfail(
        strict=True, reason="trained and explained at the training default kappa = 1, the "
        "fit's argmax agrees with the head on 0.51 of the points (ROADMAP items 9 and 12)")),
])
def test_explain_on_an_unlabeled_scene_follows_the_trained_bank(kappa):
    # the held-out scene has no labels, so every EM centre comes from the bank
    scenes = [data.gen_scene(data.SceneSpec(num_classes=4, seed=seed)) for seed in range(20)]
    cfg = trainer.TrainConfig(use_vmf=False, epochs=10, label_rate=0.02, seed=0, kappa=kappa)
    result = trainer.fit(scenes, cfg)
    assert result.bank.seen.all()
    no_labels = data.SparseLabels(np.empty(0, int), np.empty(0, int))
    unlabeled = data.with_sparse(scenes[-1], no_labels)
    posterior = trainer.explain(unlabeled, result.params, cfg, result.bank)
    head = trainer.predict(result.params, unlabeled)
    assert np.mean(np.argmax(posterior, axis=1) == head) > 0.95


def _final_val_mious(scenes, **cfg):
    # the final val mIoU at train seeds 0-2 and rate 0.01
    return np.array([trainer.fit(scenes, trainer.TrainConfig(label_rate=0.01, seed=seed, **cfg))
                     .reports[-1].val_miou for seed in range(3)])


@pytest.fixture(scope="module")
def item1_set():
    """ROADMAP item 1's training set and its TCE-only final val mIoUs."""
    scenes = [data.gen_scene(data.SceneSpec(num_classes=8, noise_sigma=2.0, seed=i))
              for i in range(20)]
    return scenes, _final_val_mious(scenes, use_vmf=False, use_dis=False, use_con=False)


@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_default_training_is_no_worse_than_tce_alone(item1_set, alignment):
    # the paper's mechanism must not make training worse than TCE alone
    scenes, tce = item1_set
    default = _final_val_mious(scenes, alignment=alignment)
    assert default.mean() >= tce.mean() - 2 * tce.std(ddof=1) / np.sqrt(3), (default, tce)


_CONFIG_KEYS = st.sampled_from(
    [f.name for f in dataclasses.fields(trainer.TrainConfig)] + ["nosuch", ""]
)
_CONFIG_VALUES = st.sampled_from([
    "0", "1", "-1", "0.5", "1e400", "nan", "-inf", "true", "off", "soft", "gmm", "adam",
    "8, 8", "8 0", "", "x", "1_0", "\u0663", "99999999999999999999", "# 1",
])
_CONFIG_LINES = st.integers(0, 9).flatmap(
    lambda i: st.text(max_size=10) if i == 0
    else st.tuples(_CONFIG_KEYS, _CONFIG_VALUES).map(" = ".join)
)


@pytest.mark.parametrize("cfg", [
    trainer.TrainConfig(),
    trainer.TrainConfig(alignment="gmm", hidden_dims=(), use_dis=False,
                        lr=0.1 + 0.2, label_rate=5e-324, em_tol=0.0, beta=1.0,
                        val_fraction=0.0, seed=2**40 + 1),
    trainer.TrainConfig(alignment="soft", kappa=1e-300, hidden_dims=(3, 1, 7), feat_dim=1,
                        epochs=0, warmup_epochs=0, em_iters=0, use_tce=False,
                        bank_momentum=1 / 3),
], ids=["defaults", "gmm", "soft"])
def test_format_config_reads_back_to_an_equal_config(cfg):
    assert trainer.parse_config_text(trainer.format_config(cfg)) == cfg


@pytest.mark.parametrize("text", ["epochs = 3\nwarmup_epochs = 1\n",
                                  "epochs = 3\r\nwarmup_epochs = 1\r\n",
                                  "epochs = 3\rwarmup_epochs = 1\r"], ids=["lf", "crlf", "cr"])
def test_a_config_line_ends_at_lf_crlf_or_cr(text):
    cfg = trainer.parse_config_text(text)
    assert (cfg.epochs, cfg.warmup_epochs) == (3, 1)


@pytest.mark.parametrize("text, raw", [
    ("epochs = 3\x0cwarmup_epochs = 1\n", "3\x0cwarmup_epochs = 1"),
    ("epochs = 3\x85bogus", "3\x85bogus"),
], ids=["form-feed", "next-line"])
def test_no_other_break_ends_a_config_line(text, raw):
    # str.splitlines ends a line at both; a table line ends at neither
    with pytest.raises(ValueError) as err:
        trainer.parse_config_text(text, "x.cfg")
    assert str(err.value) == f"x.cfg:1: invalid integer: {raw!r}"


# one value other than the default per TrainConfig field
_CHANGED = {
    "kappa": 20.0, "em_iters": 1, "em_tol": 0.5, "beta": 0.2, "warmup_epochs": 0,
    "epochs": 2, "lr": 0.01, "label_rate": 0.2, "use_tce": False, "use_vmf": False,
    "use_dis": False, "use_con": False, "seed": 1, "alignment": "gmm",
    "bank_momentum": 0.5, "hidden_dims": (8,), "feat_dim": 3, "val_fraction": 0.5,
}
_SHORT_FIT = trainer.TrainConfig(epochs=3, warmup_epochs=1, label_rate=0.05)


def _fit_outputs(cfg):
    result = trainer.fit(_scenes(6), cfg)
    bank = result.bank
    return ([t.tobytes() for t in result.params.tensors], bank.prototypes.tobytes(),
            bank.seen.tobytes(), bank.momentum, result.reports)


@pytest.fixture(scope="module")
def short_fit_outputs():
    outputs = _fit_outputs(_SHORT_FIT)
    assert _fit_outputs(_SHORT_FIT) == outputs  # a nan would differ from itself
    return outputs


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(trainer.TrainConfig)])
def test_every_config_field_changes_a_short_fit(short_fit_outputs, name):
    # a config value that changes nothing in the fit silently does nothing
    assert name in _CHANGED, f"_CHANGED needs a value other than the default for {name}"
    assert _CHANGED[name] != getattr(_SHORT_FIT, name)
    cfg = dataclasses.replace(_SHORT_FIT, **{name: _CHANGED[name]})
    assert _fit_outputs(cfg) != short_fit_outputs


def test_config_rejects_hard_as_a_training_alignment():
    with pytest.raises(ValueError, match=r"^alignment must be one of \('soft', 'gmm'\)$"):
        trainer.TrainConfig(alignment="hard")
    assert "hard" in trainer.FAMILIES   # for `dgn cluster`


@settings(max_examples=300, deadline=None)
@given(st.lists(_CONFIG_LINES, max_size=6).map("\n".join))
def test_parse_config_text_raises_only_typed_errors(text):
    try:
        trainer.parse_config_text(text)
    except (DgnError, ValueError, OSError):
        pass


# ---------------------------------------------------------------------------
# a diverging run ends in one typed error; a warning fails the tests

def _diverging_scenes():
    # the scenes "dgn gen-data --scenes 4 --classes 3 --seed 1" writes
    return [data.gen_scene(data.SceneSpec(num_classes=3, seed=1 + i)) for i in range(4)]


@pytest.mark.parametrize("seed", [0, 1])
# Adam's step is about lr in size: at 1e20 these runs stay finite, at 1e50
# they stop in a step's overflow and from 1e80 in the forward's check
@pytest.mark.parametrize("lr", [1e50, 1e100, 1e300])
@pytest.mark.parametrize("alignment", trainer.ALIGNMENTS)
def test_fit_stops_a_diverging_run_with_one_typed_error(alignment, lr, seed):
    cfg = trainer.TrainConfig(epochs=4, warmup_epochs=1, lr=lr, alignment=alignment,
                              seed=seed)
    with pytest.raises(errors.NonFiniteOutput,
                       match=r"^training diverged at epoch [0-3], "
                             r"(training scene [0-2]|evaluation): ") as err:
        trainer.fit(_diverging_scenes(), cfg)
    assert err.value.exit_code == errors.EXIT_DATA


def test_fit_names_the_evaluation_when_the_last_step_diverges(monkeypatch):
    scenes = _scenes()
    steps_per_epoch = len(trainer.split_dataset(scenes, 0.2)[0])
    real_step, calls = trainer.train_step, []

    def blow_up_last_step(*args):
        step = real_step(*args)
        calls.append(None)
        if len(calls) == steps_per_epoch:
            huge = network.ModelParams.from_tensors([t * 1e300 for t in step.params.tensors])
            step = dataclasses.replace(step, params=huge)
        return step

    monkeypatch.setattr(trainer, "train_step", blow_up_last_step)
    with pytest.raises(errors.NonFiniteOutput, match="^training diverged at epoch 0, "
                       "evaluation: the network's outputs are not finite$"):
        trainer.fit(scenes, _cfg())


def test_train_step_raises_on_non_finite_forward_outputs():
    scene = _scenes(1)[0]
    params = network.init_params([7, 8, 4], 3, seed=0)
    huge = network.ModelParams.from_tensors([t * 1e200 for t in params.tensors])
    with pytest.raises(errors.NonFiniteOutput, match="^the network's outputs are not finite$"):
        trainer.train_step(scene, huge, bank_mod.empty_bank(3, 4), _cfg(), 0)
