"""Shared fixtures: the desk-scale test image and trained dictionaries.

Training runs once per session; the acceptance module and several unit
tests reuse the results.
"""

import numpy as np
import pytest

from pksvd.frames import canonical_dual, dct_dictionary
from pksvd.imaging import to_blocks
from pksvd.ksvd import KsvdConfig, ksvd_train
from pksvd.parseval_ksvd import PkvConfig, pksvd_train

BLOCK = 4
N_DIM = BLOCK * BLOCK   # 16
N_ATOMS = 32
BUDGET = 4


@pytest.fixture(scope="session")
def test_image():
    """A textured 128x128 natural-image crop (coins on gravel)."""
    skdata = pytest.importorskip("skimage.data")
    coins = skdata.coins().astype(float)
    return coins[100:228, 150:278].copy()


@pytest.fixture(scope="session")
def desk_run(test_image):
    """Desk-scale training at the canonical shapes (n=16, m=32, N=256).

    Trains K-SVD on the 256 blocks of the image's top-left 64x64 corner,
    then runs the full 200-iteration constraint-penalized loop with
    per-update objective tracking.
    """
    data = to_blocks(test_image[:64, :64], BLOCK, subtract_mean=True).blocks
    assert data.shape == (N_DIM, 256)
    base = ksvd_train(
        data, KsvdConfig(k=BUDGET, iters=20),
        dct_dictionary(N_DIM, N_ATOMS),
    )
    cfg = PkvConfig(rho1=0.1, rho2=1e11, rho3=1e11, max_iters=200)
    synth, analysis, codes, trace = pksvd_train(
        data, cfg, base, track_updates=True
    )
    return {
        "data": data,
        "ksvd_dict": base[0],
        "ksvd_codes": base[1],
        "synth": synth,
        "analysis": analysis,
        "codes": codes,
        "trace": trace,
    }


@pytest.fixture(scope="session")
def app_dictionaries(test_image):
    """Dictionary pairs for the image-recovery experiments.

    Both dictionaries are trained on all 1024 blocks of the test image;
    the baseline pair uses the canonical dual as its analysis operator.
    """
    data = to_blocks(test_image, BLOCK, subtract_mean=True).blocks
    ksvd_dict, ksvd_codes = ksvd_train(
        data, KsvdConfig(k=BUDGET, iters=20),
        dct_dictionary(N_DIM, N_ATOMS),
    )
    cfg = PkvConfig(max_iters=200)
    synth, analysis, _, _ = pksvd_train(data, cfg, (ksvd_dict, ksvd_codes))
    return {
        "parseval": (synth, analysis),
        "ksvd": (ksvd_dict, canonical_dual(ksvd_dict)),
    }
