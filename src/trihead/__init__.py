"""Joint aggression / gender-bias / communal-bias comment classification.

A small transformer encoder, trained with a from-scratch reverse-mode
autodiff engine, feeds a pooled sentence vector into three softmax heads,
one per task. Everything runs on numpy at desk scale: the pieces are
sized for study and testing, not for leaderboards.

Layout:

- ``autograd``: Tensor, the differentiable ops, gradient checking
- ``textpipe``: normalization, vocabulary, subword tokenization, batching
- ``encoder``: transformer encoder and masked-token pretraining
- ``pooling``: attention pooling, mean pooling, task heads
- ``optim``: AdamW, gradient clipping, the linear LR schedule, the step loop ``run_steps``
- ``train``: fine-tuning loop, prediction, evaluation
- ``metrics``: micro F1, instance F1, report formatting
- ``data``: TSV datasets, distribution tables, checkpoint files
- ``cli``: the ``trihead`` command
"""

from .autograd import Tensor, grad_check
from .data import (
    Example,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    write_dataset,
)
from .encoder import EncoderConfig, PretrainSchedule, encode_batch, pretrain_mlm
from .errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    DivergenceError,
    NonFiniteError,
)
from .metrics import MetricsReport, TriLabel, score_triples
from .pooling import attention_pool, mean_pool, predict_labels
from .textpipe import EmojiMap, Vocab, balance, batch_encode, build_vocab, normalize
from .train import Checkpoint, TrainConfig, evaluate, predict, train

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "grad_check",
    "Example",
    "load_checkpoint",
    "load_dataset",
    "save_checkpoint",
    "write_dataset",
    "EncoderConfig",
    "PretrainSchedule",
    "encode_batch",
    "pretrain_mlm",
    "CheckpointFormatError",
    "ConfigError",
    "DataError",
    "DivergenceError",
    "NonFiniteError",
    "MetricsReport",
    "TriLabel",
    "score_triples",
    "attention_pool",
    "mean_pool",
    "predict_labels",
    "EmojiMap",
    "Vocab",
    "balance",
    "batch_encode",
    "build_vocab",
    "normalize",
    "Checkpoint",
    "TrainConfig",
    "evaluate",
    "predict",
    "train",
    "__version__",
]
