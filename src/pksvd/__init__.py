"""Frame-based sparse analysis/synthesis signal representations.

Parseval K-SVD dictionary learning, the K-SVD baseline, frame-theoretic
operators, sparse coding solvers, and block-based image recovery
(denoising, rate-distortion compression, inpainting).
"""

from .errors import (
    BadShape,
    ConfigError,
    EmptyBlockMask,
    MalformedFile,
    NearSingularSylvester,
    NoViolationFound,
    NotGeneralPosition,
    PksvdError,
    RankDeficient,
    SingularCoefficientGram,
    SingularMetric,
    SolverDidNotConverge,
    TooLarge,
    UniqueDual,
)
from .frames import (
    Dictionary,
    FrameBounds,
    atom_distance_histogram,
    canonical_dual,
    dct_dictionary,
    frame_bounds,
    is_parseval,
    random_dual,
)
from .matrix_core import pseudo_inverse, solve_sylvester
from .sparse_solvers import ZERO_THRESHOLD, bpdn, omp
from .ksvd import KsvdConfig, ksvd_train
from .parseval_ksvd import (
    AdmmState,
    ConvergenceTrace,
    PkvConfig,
    pksvd_train,
    support_histogram,
    update_analysis,
    update_codes,
    update_multipliers,
    update_synthesis,
)
from .imaging import BlockedImage, from_blocks, psnr, read_pgm, ssim, to_blocks, write_pgm
from .applications import (
    Mask,
    RdPoint,
    add_gaussian_noise,
    compress_rd,
    denoise,
    inpaint,
    random_mask,
    reconstruct_roundtrip,
)
from .theory_lab import (
    CounterexampleReport,
    ProjectionResiduals,
    ProxyTrial,
    bp_bruteforce_oracle,
    cosparsity_floor_check,
    nonexistence_search,
    projection_identity_check,
    proxy_trial,
    spark,
)
from .formats import (
    load_codes,
    load_dictionary,
    save_codes,
    save_dictionary,
    write_trace_csv,
)

__version__ = "0.1.0"
