"""Exact branching multiplicities for Specht modules of S_m wr S_n."""

from .branching import (YoungLayer, branch_first, branch_second,
                        good_labellings, wreath_specht_dimension, young_layer)
from .lr import lr_coefficient, lr_multi
from .perms import double_coset_reps, rho_cosets
from .shapes import (enumerate_partitions, multipartitions, size_composition,
                     specht_dimension)

__all__ = [
    "YoungLayer", "branch_first", "branch_second", "good_labellings",
    "wreath_specht_dimension", "young_layer",
    "lr_coefficient", "lr_multi",
    "double_coset_reps", "rho_cosets",
    "enumerate_partitions", "multipartitions",
    "size_composition", "specht_dimension",
]
__version__ = "0.1.0"
