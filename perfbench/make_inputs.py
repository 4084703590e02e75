"""Write the three n=64 observable files of the dilate workload.

``make_inputs.py SEED OUT_DIR [SPANS_JSON]`` builds the sharp, half-line
and vector-generated families with the ``timepovm.model`` builders, the
vector generator's phases drawn from SEED, and saves each one with
``timepovm.formats.save_povm`` as ``OUT_DIR/<kind>-povm.json``.  With
SPANS_JSON the layer tracer records the build and the saves.  The package
directory must be on ``PYTHONPATH``.
"""

import os
import sys

import numpy as np

from tracer import Tracer

N = 64


def build(seed: int) -> dict:
    from timepovm import model

    de = float(np.sqrt(2.0 * np.pi / N))
    selfdual = model.EnergyGrid(N, de, offset=-de * (N // 2))
    half_de = 0.3
    generator = np.exp(2j * np.pi * np.random.default_rng(seed).random(N)) / np.sqrt(N)
    return {
        "sharp": model.build_sharp_time_povm(selfdual),
        "halfline": model.build_halfline_povm(model.EnergyGrid(N, half_de, offset=-half_de * (N // 2)), N // 2),
        "vector": model.vector_generated_povm(selfdual, generator),
    }


def main() -> int:
    seed, out_dir = int(sys.argv[1]), sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    tracer = Tracer()
    if spans_path:
        tracer.install()
    try:
        from timepovm import formats

        for kind, povm in build(seed).items():
            formats.save_povm(povm, os.path.join(out_dir, f"{kind}-povm.json"))
    finally:
        tracer.restore()
        if spans_path:
            tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
