"""homaudit: persistent homology of discrete-Morse sublevel filtrations with
exactness audits for Mayer-Vietoris and relative-pair long sequences."""

__version__ = "0.1.0"

from .complexes import (SimplicialComplex, Simplex, betti_numbers, boundary_matrix,
                        close_under_faces, intersect, is_subcomplex, relative_boundary_matrix)
from .linalg import Subspace
from .morse import (Filtration, MorseFunction, critical_cells, filtration_from_morse,
                    is_perfect, sublevel, sublevel_filtration, validate_morse)
from .persistence import (Barcode, Interval, PersistenceResult, barcode, compute_persistence,
                          relative_persistence)
from .sequences import (LinearSequence, MayerVietorisSystem, PairSystem,
                        SequenceAudit, audit, check_squares, induced_inclusion_map,
                        module_sequence, mv_connecting, ordinary_sequence,
                        pair_connecting, persistent_sequence)

__all__ = [name for name in dir() if not name.startswith("_")]
