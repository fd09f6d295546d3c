"""Transfer systems on finite groups and the operadic calculus around them:
lattice operations, change-of-group functors, admissible-set computations
for discrete operads, and confluence-checked operadic term rewriting."""

from .groups import (
    FiniteGSet,
    Group,
    GroupError,
    Homomorphism,
    Subgroup,
    all_subgroups,
    double_cosets,
    hsets_up_to_iso,
    lattice_of,
    make_group,
)
from .transfer import (
    TransferSystem,
    TransferSystemError,
    cogenerate,
    complete,
    discrete,
    enumerate_transfer_systems,
    generate,
    hasse,
    join,
    meet,
    validate,
)
from .functors import image_L, image_R, preimage_L, preimage_R
from .indexing import IndexingSystem, admissible_sets_of_symseq, generated_transfer
from .operads import CoindAsOperad, SymmetricSequence, free_model, symseq_transfer

__all__ = [
    "FiniteGSet", "Group", "GroupError", "Homomorphism", "Subgroup",
    "all_subgroups", "double_cosets", "hsets_up_to_iso", "lattice_of",
    "make_group",
    "TransferSystem", "TransferSystemError", "cogenerate", "complete",
    "discrete", "enumerate_transfer_systems", "generate", "hasse", "join",
    "meet", "validate",
    "image_L", "image_R", "preimage_L", "preimage_R",
    "IndexingSystem", "admissible_sets_of_symseq", "generated_transfer",
    "CoindAsOperad", "SymmetricSequence", "free_model", "symseq_transfer",
]

__version__ = "0.1.0"
