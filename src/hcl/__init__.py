"""Weighted heterogeneous contrastive learning in pure numpy.

Losses with exact hand-derived gradients, a small MLP encoder/classifier
stack, layer-adaptive (LARS) momentum SGD, synthetic multi-view data
machinery, evaluation metrics, and empirical mutual-information bound
checks, wired together by a reproducible command-line interface. Each
name is imported from the module that defines it (``hcl.losses``, ...).
"""

__version__ = "0.1.0"
