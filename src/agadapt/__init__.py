"""Attention-guided adapter adaptation for bilingual sequence transduction.

Submodules: numerics (tensors, autodiff, AdamW, gradient checking), model
(transformer encoder-decoder with adapters), guidance (head selection and
the guidance loss), training (two-stage procedure), synthtask (synthetic
corpus and metrics), analysis (heatmap export), cli.
"""

__version__ = "0.1.0"
