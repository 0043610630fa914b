"""Reservoir autoencoders for time-series feature extraction.

Recurrent (echo state) and feed-forward (extreme learning) autoencoders
trained by pseudo-inverse readout regression with encoder/decoder weight
tying, plus a linear classifier and a reproducible benchmark harness for
UCR-style classification datasets under clean and Gaussian-noise conditions.
"""

from .autoencoder import (
    KINDS,
    TrainedAutoencoder,
    encode,
    fit,
    load_autoencoder,
    reconstruction_error,
    save_autoencoder,
    train_readout,
)
from .bench import (
    ExperimentReport,
    ExperimentSpec,
    emit_csv,
    emit_markdown,
    load_spec,
    ratio_table,
    run_experiment,
)
from .classifier import (
    ClassifierParams,
    EvalResult,
    LinearClassifier,
    Standardized,
    evaluate,
    standardize,
    train_classifier,
    train_classifiers,
)
from .data import (
    Dataset,
    NoiseSpec,
    inject_noise,
    make_synthetic,
    measured_snr,
    normalize,
    parse_ucr,
    parse_ucr_pair,
    write_ucr,
)
from .errors import DegenerateMatrixError, FormatError, NumericalError, TrainingError
from .linalg import (
    SeededRng,
    pinv,
    sparse_random_matrix,
    spectral_radius,
)
from .reservoir import (
    PRESETS,
    EsnWeights,
    ReservoirConfig,
    init_weights,
    load_weights,
    run_collect,
    save_weights,
)

__version__ = "0.1.0"
