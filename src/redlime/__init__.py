"""Exact subspace arithmetic over Q and GF(p), organized around the
canonical red (terminating-side) and lime (originating-side) bases."""

from .errors import (DomainError, ParseError, RedlimeError, ResourceError,
                     UsageError)
from .fields import RATIONALS, FieldSpec, Scalar, gf, parse_scalar
from .subspace import (LimeBasis, Subspace, Vector, append_lime,
                       contains_vector, coordinates, element_from_red_entries,
                       is_coordinate_system, lime_basis, originating_index,
                       span_red_basis, subspace_leq, terminating_index)
from .duality import complement, dot, lime_of_complement_from_red
from .matrix import (FullRankFactors, Matrix, apply_column_centric,
                     apply_row_centric, column_space, dependent_columns,
                     extend_rows_to_invertible, full_rank_factorization,
                     nullity, nullspace, pivot_columns, rank, rcef,
                     rcef_factorization, row_space, rref, rref_factorization)
from .signatures import (Mark, Permutation, Signature, is_feasible,
                         permute_presenting_positions, signature,
                         signature_from_indices, sub_terminal_index,
                         subspace_from_pattern, synthesize, truncate_right)
from .oracle import (DEFAULT_BUDGET, all_vectors, brute_complement,
                     brute_indices, enumerate_span, enumerate_subspaces,
                     gaussian_binomial, subspace_count, textbook_rref)
from .matrixfile import (field_header, load_matrix, parse_matrix_text,
                         parse_vector_text, render_matrix)

__version__ = "0.1.0"
