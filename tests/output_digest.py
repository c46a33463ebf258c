"""Output digest: what train, predict and eval give for each method on two fixed cases.

The cases are the acceptance fixture (128x128, obstacle fraction 0.3, scene
seed 7, ratio 1e-3, label seed 7) and the smooth 256x256 scene of the
benchmark (``noise_sigma=0``, scene seed 7, ratio 1e-3, label seeds 1-3).
Each run goes through the verbs' own steps (``cli._train``,
``cli._predict``, ``cli._evaluate``) with the default settings, on the
scene in memory: a scene file and a model file round-trip exactly, so the
files add nothing. Per run the digest records the EM maps, the stop reason,
the `model_values` vector, the final log likelihood, a hash of the class
grid, avg F and the AUC. `test_output_digest.py` recomputes it and compares
it with the committed ``output_digest.json``.

A change that moves outputs on purpose regenerates the file and shows the
diff:

    PYTHONPATH=src python3 tests/output_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from floodem import cli, hmt
from floodem.grid import SceneSpec, generate_scene, sample_labels

PATH = Path(__file__).with_name("output_digest.json")
RATIO = 1e-3
CASES = {
    "fixture-128": (SceneSpec(width=128, height=128, obstacle_fraction=0.3, seed=7), (7,)),
    "smooth-256": (SceneSpec(width=256, height=256, obstacle_fraction=0.3, noise_sigma=0.0, seed=7), (1, 2, 3)),
}
# Compared exactly; every other field to 1e-9 relative.
EXACT = ("maps", "stop_reason", "class_hash")


def run(scene, labels, method: str) -> dict:
    """One method's train, predict and eval on ``labels``."""
    cfg = cli.RunConfig()
    model, trace = cli._train(method, scene, labels, cfg)
    classes, scores = cli._predict(model, scene)
    report, curve, _ = cli._evaluate(classes, scores, scene.truth, None, cfg.neighborhood)
    return {
        "maps": len(trace.models) - 1,
        "stop_reason": trace.stop_reason,
        "model_values": hmt.model_values(model).tolist(),
        "loglik": trace.logliks[-1],
        "class_hash": hashlib.sha256(np.ascontiguousarray(classes, dtype=np.uint8).tobytes()).hexdigest()[:16],
        "avg_f": report.avg_f,
        "auc": curve.auc,
    }


def digest() -> dict:
    """Every run, keyed ``case/label seed/method``."""
    out = {}
    for case, (spec, label_seeds) in CASES.items():
        scene, _ = generate_scene(spec)
        for seed in label_seeds:
            labels = sample_labels(scene, RATIO, rng_seed=seed)
            for method in cli.METHODS:
                out[f"{case}/{seed}/{method}"] = run(scene, labels, method)
    return out


if __name__ == "__main__":
    text = json.dumps(digest(), indent=1) + "\n"
    if sys.argv[1:] == ["--write"]:
        PATH.write_text(text)
    else:
        sys.stdout.write(text)
