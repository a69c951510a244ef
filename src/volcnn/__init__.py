"""volcnn: a self-contained volumetric CNN engine and experiment CLI.

Implements a 3D convolutional classifier for three-way brain-scan
classification (CN / MCI / AD) from scratch: tensors, differentiable layers,
the backbone network with its ablation axes, SGD-with-momentum training,
evaluation metrics with bootstrap intervals, and gradient saliency maps.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
