"""Layer timings with pytest-benchmark; not part of the test suite.

Times ``parseval_ksvd.update_codes`` alone on the inputs of its first call
in a Parseval K-SVD train of ``texture(3)``: the codes of one K-SVD pass,
and the pair after one analysis and one synthesis update. Two shapes:

* ``full``: the ``train-full`` benchmark workload's shapes, 8x8 blocks of
  the whole 128x128 image, m=256, k=64 (256 columns of width 64);
* ``desk``: the ``train-desk`` shapes, 4x4 blocks of the 64x64 top-left
  crop, m=32, k=4 (256 columns of width 4).

The file name does not match ``test_*.py``, so a plain ``pytest`` run
skips it. Run it by name, with one BLAS thread:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_layers.py
"""

import numpy as np
import pytest
from texture import texture

from pksvd.frames import dct_dictionary
from pksvd.imaging import to_blocks
from pksvd.ksvd import KsvdConfig, ksvd_train
from pksvd.parseval_ksvd import (
    AdmmState,
    PkvConfig,
    update_analysis,
    update_codes,
    update_synthesis,
)

SHAPES = {
    # name: (block size, crop side, m, k)
    "full": (8, 128, 256, 64),
    "desk": (4, 64, 32, 4),
}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def code_refresh_inputs(request):
    block, side, m, k = SHAPES[request.param]
    img = texture(3)[:side, :side].astype(float)
    data = to_blocks(img, block, subtract_mean=True).blocks
    n = block * block
    base, codes = ksvd_train(data, KsvdConfig(m=m, k=k, iters=1), dct_dictionary(n, m))
    cfg = PkvConfig(k=k)
    state = AdmmState.zeros(n, m)
    analysis = update_analysis(data, codes, base.mat, state, cfg)
    synth = update_synthesis(data, codes, analysis, state, cfg)
    return data, np.asarray(codes, dtype=float), synth, analysis, cfg


def test_update_codes(benchmark, code_refresh_inputs):
    data, codes, synth, analysis, cfg = code_refresh_inputs
    refreshed = benchmark(update_codes, data, codes, synth, analysis, cfg)
    assert refreshed.shape == codes.shape
