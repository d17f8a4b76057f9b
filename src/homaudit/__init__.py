"""homaudit: persistent homology of discrete-Morse sublevel filtrations with
exactness audits for Mayer-Vietoris and relative-pair long sequences."""

__version__ = "0.1.0"

from .complexes import (ChainCoordinates, SimplicialComplex, Simplex, betti_numbers,
                        boundary_matrix, close_under_faces, intersect, is_subcomplex,
                        relative_boundary_matrix, union)
from .linalg import Subspace, image_basis, kernel_basis, preimage, rank, restrict_map
from .morse import (Filtration, GradientField, MorseFunction, critical_cells,
                    filtration_from_morse, gradient_field, is_perfect, sublevel,
                    sublevel_filtration, validate_morse)
from .persistence import (Barcode, GradedElement, GradedModule, Interval,
                          PersistenceResult, barcode, compute_persistence,
                          graded_module, relative_persistence)
from .sequences import (LinearSequence, MayerVietorisSystem, PairSystem,
                        SequenceAudit, audit, check_squares, induced_inclusion_map,
                        module_sequence, mv_connecting, ordinary_sequence,
                        pair_connecting, persistent_sequence)

__all__ = [name for name in dir() if not name.startswith("_")]
