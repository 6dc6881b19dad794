"""Exact branching multiplicities for Specht modules of S_m wr S_n."""

from .branching import (GoodLabelling, YoungLayer, branch_first, branch_second,
                        enumerate_good_labellings, filtration_multiplicities,
                        labelling_coefficient, wreath_specht_dimension,
                        young_layer)
from .lr import lr_coefficient, lr_multi
from .perms import (CosetSystem, act_on_tableau, descents, double_coset_reps,
                    enumerate_weakly_increasing, length, rho_cosets,
                    standard_tableau)
from .shapes import (concat_parts, enumerate_partitions, multipartitions,
                     removable_boxes, remove_part_at, size_composition,
                     specht_dimension)
from .tableaux import (content_type, enumerate_skew_ssyt, is_lattice_word,
                       is_semistandard, render, reverse_reading_word)

__all__ = [
    "GoodLabelling", "YoungLayer", "branch_first", "branch_second",
    "enumerate_good_labellings", "filtration_multiplicities",
    "labelling_coefficient", "wreath_specht_dimension", "young_layer",
    "lr_coefficient", "lr_multi",
    "CosetSystem", "act_on_tableau", "descents", "double_coset_reps",
    "enumerate_weakly_increasing", "length", "rho_cosets", "standard_tableau",
    "concat_parts", "enumerate_partitions", "multipartitions",
    "removable_boxes", "remove_part_at", "size_composition",
    "specht_dimension",
    "content_type", "enumerate_skew_ssyt", "is_lattice_word",
    "is_semistandard", "render", "reverse_reading_word",
]
__version__ = "0.1.0"
