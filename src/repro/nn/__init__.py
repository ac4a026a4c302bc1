"""A compact numpy autograd neural-network framework.

PyTorch is not available in this environment, so the paper's policy
networks run on this substrate instead: a reverse-mode autograd tensor, the
layers CAMO needs (conv2d, linear, multi-layer Elman RNN, GraphSAGE), SGD
and Adam optimizers, and npz state-dict serialization.  All gradients are
analytic and covered by finite-difference checks in the test suite.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.functional import (
    concat,
    conv2d,
    cross_entropy,
    log_softmax,
    relu,
    sigmoid,
    softmax,
    stack,
    tanh,
)
from repro.nn.module import (
    CHECKPOINT_FORMAT_VERSION,
    Module,
    Parameter,
    Sequential,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn.layers import (
    Conv2d,
    Flatten,
    Linear,
    ReLU,
    Tanh,
)
from repro.nn.rnn import ElmanRNN
from repro.nn.sage import GraphSAGEConv
from repro.nn.optim import SGD, Adam
from repro.nn import init

__all__ = [
    "Tensor",
    "no_grad",
    "concat",
    "conv2d",
    "cross_entropy",
    "log_softmax",
    "relu",
    "sigmoid",
    "softmax",
    "stack",
    "tanh",
    "CHECKPOINT_FORMAT_VERSION",
    "Module",
    "Parameter",
    "Sequential",
    "load_checkpoint",
    "save_checkpoint",
    "Conv2d",
    "Flatten",
    "Linear",
    "ReLU",
    "Tanh",
    "ElmanRNN",
    "GraphSAGEConv",
    "SGD",
    "Adam",
    "init",
]
