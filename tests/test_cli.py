from dgn import cli, data


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
