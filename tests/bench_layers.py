"""Layer timings with pytest-benchmark; not part of the test suite.

Times ``parseval_ksvd.update_codes`` alone on the inputs of its first call
in a Parseval K-SVD train: the codes of one K-SVD pass, and the pair after
one analysis and one synthesis update. Three shapes:

* ``full``: the ``train-full`` benchmark workload's shapes, 8x8 blocks of
  the whole 128x128 ``texture(3)``, m=256, k=64 (256 columns of width 64);
* ``desk``: the ``train-desk`` shapes, 4x4 blocks of the 64x64 top-left
  crop of ``texture(3)``, m=32, k=4 (256 columns of width 4);
* ``probe``: the ``recover-desk`` probe train, the desk shapes on the
  32x32 top-left crop of its probe image ``texture(0)`` (64 columns of
  width 4).

Times ``ksvd._update_atoms``, one pass of atom updates, alone at the same
three shapes on the inputs of the first pass of that K-SVD train: the DCT
dictionary and the codes of the first coding. At ``full`` every atom's
columns fit exactly and every atom takes the power step; at ``desk`` and
``probe`` every atom takes the eigensolver.

Times ``sparse_solvers._support_slots``, which lists each column's support
rows first, on three masks: the supports of the first Batch-OMP pass at
the ``desk`` and ``full`` shapes (``support-desk``, 32 x 256, and
``support-full``, 256 x 256), and the ``inpaint-desk`` mask of observed
pixels (16 x 256).

Times Batch-OMP, ``sparse_solvers._omp_columns``, alone at the same two
shapes on the inputs of the first OMP pass of that K-SVD train: the
blocks against the overcomplete DCT dictionary with budget k.

Times the homotopy ``sparse_solvers._homotopy_columns`` alone on the
systems the recovery pipelines pose for ``texture(3)``, with the
self-dual Parseval pair built from the DCT dictionary that the
``recover-desk`` workload uses, and the CLI's seed 0 for the noise and
the mask. Five cases:

* ``denoise-desk``: the ``recover-desk`` denoise, the n x m system R S of
  the pair (A^T = QR) on 4x4 blocks of the 64x64 crop, m=32, sigma=20 and
  the CLI's 12-radius grid (256 paths);
* ``inpaint-desk``: the ``recover-desk`` inpaint, each block's observed
  rows of the pair with 50% of the pixels missing, eps=0.01 (256 stacked
  systems, whose ranks ``inpaint`` passes as their observed-row counts);
* ``denoise-full``: the denoise at full shape, 8x8 blocks of the whole
  image, m=256 (256 paths);
* ``inpaint-full``: the inpaint at full shape, 8x8 blocks of the whole
  image, m=256, 50% missing (256 stacked systems of 32 rows);
* ``inpaint-full-bernoulli``: the same with a Bernoulli mask that keeps
  each pixel with probability 1/2 (seed 0), so the blocks observe
  different counts of rows and their paths run at factor widths 24 to 48.

Times ``applications.random_mask`` alone at the same two shapes as the
inpaint cases: 50% of the pixels of the 64x64 crop in 4x4 blocks
(``desk``) and of the 128x128 image in 8x8 blocks (``full``), seed 0.

Times ``cli.build_parser`` for one command (``denoise``, as ``main``
builds it to run that command) and for all of them (``all``, as ``main``
builds it for ``-h`` or an unknown command): the fixed cost of a command
before any data is read.

Times ``applications.compress_rd`` alone on the ``recover-desk`` compress:
4x4 blocks of the 64x64 crop, the self-dual pair, and the CLI's 9-step
quantizer grid.

The file name does not match ``test_*.py``, so a plain ``pytest`` run
skips it. Run it by name, with one BLAS thread:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_layers.py
"""

import numpy as np
import pytest
from texture import texture
from workloads import PROBE_SEED, self_dual_pair

from pksvd.applications import (
    Mask,
    _observed_systems,
    add_gaussian_noise,
    compress_rd,
    random_mask,
)
from pksvd.cli import COMPRESS_STEP_GRID, DENOISE_EPS_GRID, build_parser
from pksvd.frames import Dictionary, dct_dictionary
from pksvd.imaging import to_blocks
from pksvd.ksvd import KsvdConfig, _code_columns, _update_atoms, ksvd_train
from pksvd.parseval_ksvd import (
    AdmmState,
    PkvConfig,
    update_analysis,
    update_codes,
    update_synthesis,
)
from pksvd.sparse_solvers import _homotopy_columns, _omp_columns, _support_slots

SHAPES = {
    # name: (block size, crop side, m, k)
    "full": (8, 128, 256, 64),
    "desk": (4, 64, 32, 4),
}
# The recover-desk probe train: the desk shapes on a crop of the probe image.
CODE_REFRESH_SHAPES = {**SHAPES, "probe": (4, 32, 32, 4)}


@pytest.fixture(scope="module", params=sorted(CODE_REFRESH_SHAPES))
def code_refresh_inputs(request):
    block, side, m, k = CODE_REFRESH_SHAPES[request.param]
    seed = PROBE_SEED if request.param == "probe" else 3
    img = texture(seed)[:side, :side].astype(float)
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


@pytest.mark.parametrize("shape", sorted(CODE_REFRESH_SHAPES))
def test_update_atoms(benchmark, shape):
    block, side, m, k = CODE_REFRESH_SHAPES[shape]
    seed = PROBE_SEED if shape == "probe" else 3
    data = to_blocks(texture(seed)[:side, :side].astype(float), block,
                     subtract_mean=True).blocks
    init = dct_dictionary(block * block, m).mat
    codes = _code_columns(init, data, k, None)
    _, new_codes = benchmark(_update_atoms, init, data, codes)
    assert np.array_equal(new_codes != 0.0, codes != 0.0)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_omp_columns(benchmark, shape):
    block, side, m, k = SHAPES[shape]
    data = to_blocks(texture(3)[:side, :side].astype(float), block, subtract_mean=True).blocks
    init = dct_dictionary(block * block, m).mat
    codes = benchmark(_omp_columns, init, data, k)
    assert (np.count_nonzero(codes, axis=0) <= k).all()


@pytest.mark.parametrize("case", ["inpaint-desk", "support-desk", "support-full"])
def test_support_slots(benchmark, case):
    if case == "inpaint-desk":
        mask = random_mask((64, 64), 0.5, 0, 4).block_columns(4)
    else:
        block, side, m, k = SHAPES[case.split("-")[1]]
        data = to_blocks(texture(3)[:side, :side].astype(float), block,
                         subtract_mean=True).blocks
        mask = _omp_columns(dct_dictionary(block * block, m).mat, data, k) != 0.0
    count = int(mask.sum(axis=0).max())
    slots = benchmark(_support_slots, mask, count)
    assert slots.shape == (count, mask.shape[1])


HOMOTOPY_CASES = {
    # name: (block size, crop side, m, task)
    "denoise-desk": (4, 64, 32, "denoise"),
    "inpaint-desk": (4, 64, 32, "inpaint"),
    "denoise-full": (8, 128, 256, "denoise"),
    "inpaint-full": (8, 128, 256, "inpaint"),
    "inpaint-full-bernoulli": (8, 128, 256, "bernoulli"),
}


@pytest.fixture(scope="module", params=sorted(HOMOTOPY_CASES))
def homotopy_inputs(request):
    """(system, data, radii, rank) as ``denoise_sweep`` and ``inpaint`` pose
    them."""
    block, side, m, task = HOMOTOPY_CASES[request.param]
    img = texture(3)[:side, :side].astype(float)
    pair = self_dual_pair(dct_dictionary(block * block, m).mat)
    if task == "denoise":
        noisy = add_gaussian_noise(img, 20.0, 0)
        blocks = to_blocks(noisy, block, subtract_mean=True, mean_value=float(img.mean())).blocks
        tri = np.linalg.qr(pair.T, mode="r")
        grid = sorted((float(tok) for tok in DENOISE_EPS_GRID.split(",")), reverse=True)
        return tri @ pair, tri @ blocks, grid, None
    if task == "bernoulli":
        mask = Mask(np.random.default_rng(0).random(img.shape) < 0.5)
    else:
        mask = random_mask(img.shape, 0.5, 0, block)
    corrupted = np.where(mask.observed, img, 0.0)
    blocks = to_blocks(corrupted, block, subtract_mean=True, mean_value=float(img.mean())).blocks
    systems, data, counts = _observed_systems(mask.block_columns(block), blocks, pair)
    return systems, data, [0.01], counts


def test_homotopy_columns(benchmark, homotopy_inputs):
    system, data, radii, rank = homotopy_inputs
    codes = benchmark(_homotopy_columns, system, data, radii, rank)
    assert codes.shape == (len(radii), system.shape[-1], data.shape[1])


MASK_SHAPES = {
    # name: (block size, image side)
    "desk": (4, 64),
    "full": (8, 128),
}


@pytest.mark.parametrize("shape", sorted(MASK_SHAPES))
def test_random_mask(benchmark, shape):
    block, side = MASK_SHAPES[shape]
    mask = benchmark(random_mask, (side, side), 0.5, 0, block)
    assert np.all((~mask.block_columns(block)).sum(axis=0) == block * block // 2)


@pytest.mark.parametrize("command", ["denoise", "all"])
def test_build_parser(benchmark, command):
    parser = benchmark(build_parser, None if command == "all" else command)
    assert parser.prog == "pksvd"


def test_compress_rd(benchmark):
    img = texture(3)[:64, :64].astype(float)
    pair = Dictionary(self_dual_pair(dct_dictionary(16, 32).mat))
    blocked = to_blocks(img, 4, subtract_mean=True)
    steps = [float(tok) for tok in COMPRESS_STEP_GRID.split(",")]
    points = benchmark(compress_rd, blocked, pair, pair, steps)
    assert len(points) == len(steps)
