"""Montage-agnostic EEG classification.

Preprocess raw multichannel EEG, align channels onto a fixed 23-channel
encoder montage (manually or through a learned temporal-convolution
adapter), train a compact transformer classifier from scratch, and evaluate
at the sample level, the subject level, and zero-shot on unseen classes.
"""

__version__ = "0.1.0"

from .errors import PipelineError  # noqa: F401
