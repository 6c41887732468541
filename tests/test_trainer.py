import numpy as np
import pytest

from dgn import data, network, trainer
from dgn import bank as bank_mod


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


@pytest.mark.parametrize("alignment", ["movmf", "gmm"])
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
    assert fresh.em_iterations == shared.em_iterations
    for x, y in zip(fresh.opt_state.means + fresh.opt_state.variances,
                    shared.opt_state.means + shared.opt_state.variances, strict=True):
        np.testing.assert_array_equal(x, y)


def test_predict_workspace_is_bitwise_neutral():
    cfg = _cfg()
    params = network.init_params([7, *cfg.hidden_dims, cfg.feat_dim], 3, seed=1)
    ws = network.Workspace()
    for scene in _scenes(count=4):
        np.testing.assert_array_equal(
            trainer.predict(params, scene), trainer.predict(params, scene, ws)
        )

