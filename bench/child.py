"""Child process of the benchmark.

    python3 bench/child.py [--spans FILE] matrix OUT SEED CLASSES LO:HI
    python3 bench/child.py --spans FILE <dgn arguments>

``matrix`` writes the cluster workload's input: one ``data.gen_scene``
scene with CLASSES classes of LO to HI points each, as a text matrix of
its 7 network-input columns. Any other arguments go to ``dgn.cli.main``.
With ``--spans`` every public dgn function is wrapped at each binding
its callers use, and the spans are written to FILE when the command
ends. Expects the repository's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import sys

import tracer


def write_matrix(out: str, seed: int, classes: int, points: str) -> int:
    # imported here, after tracing is installed, to bind the wrapped gen_scene
    from dgn.data import SceneSpec, gen_scene

    lo, hi = (int(p) for p in points.split(":"))
    scene = gen_scene(SceneSpec(num_classes=classes, points_per_class=(lo, hi), seed=seed))
    with open(out, "w") as fh:
        for row in scene.network_input():
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    return 0


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    trace = tracer.Tracer()
    if spans is not None:
        tracer.install_dgn(trace)
    try:
        if argv[:1] == ["matrix"]:
            return write_matrix(argv[1], int(argv[2]), int(argv[3]), argv[4])
        from dgn import cli

        return cli.main(argv)
    finally:
        if spans is not None:
            trace.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
