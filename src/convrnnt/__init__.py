"""Streaming convolutional-recurrent transducer for speech recognition.

A desk-scale, dependency-light implementation: an autodiff tensor core
whose tape and training are float64 (a model built in float32 holds its
weights and runs its encoder and decoder in float32, for inference only),
a log-STFT feature frontend, causal local (2-D conv) and
global (dilated depthwise 1-D conv + squeeze-excitation) context encoders,
a unidirectional LSTM transducer with exact alignment-marginal loss, greedy
streaming decoding, a training loop, and an analytical FLOPs comparator.
"""

from . import tensor
from .tensor import Tensor, no_grad

__all__ = ["tensor", "Tensor", "no_grad"]
__version__ = "0.1.0"
