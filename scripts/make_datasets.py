#!/usr/bin/env python3
"""Generate the desk-scale datasets used by the experiments.

Writes three MOL1 containers into the output directory:

* ``textures_train.mol1`` / ``textures_test.mol1`` -- the 4-class oriented
  multi-scale texture problem (16x16 grayscale), test split standardized
  with the training statistics;
* ``fractal.mol1`` -- unlabeled-ish (all class 0 of 2) 1/f-spectrum images
  at 32x32 for the information-curve and spectral analyses.

Exit codes are those of ``datamoll``: 0 success, 2 usage error, 3 data error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from datamoll.cli import exit_code, parse_positive_int, parse_u64
from datamoll.mol1 import save_mol1
from datamoll.streams import derive_seed
from datamoll.study import TEST_COUNT, TRAIN_COUNT, texture_splits
from datamoll.synth import fractal_textures, standardized_dataset

# The fractal set's sub-seed tag (study's corruption tag has the same value).
_TAG_FRACTAL = 103


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=parse_u64, default=0)
    parser.add_argument("--train-count", type=parse_positive_int, default=TRAIN_COUNT)
    parser.add_argument("--test-count", type=parse_positive_int, default=TEST_COUNT)
    parser.add_argument("--fractal-count", type=parse_positive_int, default=256)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    train, test = texture_splits(args.seed, args.train_count, args.test_count)
    save_mol1(train, out / "textures_train.mol1")
    save_mol1(test, out / "textures_test.mol1")

    seed = derive_seed(args.seed, _TAG_FRACTAL)
    fractal = fractal_textures(args.fractal_count, 32, 32, seed=seed)
    ds = standardized_dataset(
        fractal,
        np.zeros(args.fractal_count, dtype=np.int64),
        2,
        provenance=f"fractal seed={args.seed}",
    )
    save_mol1(ds, out / "fractal.mol1")
    print(f"wrote {out}/textures_train.mol1 ({args.train_count} images)")
    print(f"wrote {out}/textures_test.mol1 ({args.test_count} images)")
    print(f"wrote {out}/fractal.mol1 ({args.fractal_count} images)")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
