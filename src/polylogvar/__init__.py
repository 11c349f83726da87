"""polylogvar: polylogarithms, monodromy, filtered period matrices, and the
partition-lattice combinatorics behind the logarithmic local system.

The package has four layers:

* exact arithmetic (`exact`, `mpoly`): rationals, polynomials, rational
  reconstruction, exact matrices;
* the analytic engine (`paths`, `analytic`): high-precision polylogarithm
  values, fundamental solution matrices, parallel transport along paths in
  the twice-punctured plane, and exact monodromy extraction;
* structure checks (`hodge`, `forms`): connection matrix, weight/Hodge
  flags, the divided-power block comparison, the explicit de Rham basis on
  the cube with its exact derivative identities, and cube quadrature;
* combinatorics (`partitions`, `poset`, `arnold`): set partitions, order
  complex homology, top Arnol'd components, characters, and the paving and
  graded-dimension identities.
"""

from .exact import (Rational, RationalMatrix, eulerian, nilpotency_index,
                    rational_reconstruct)
from .errors import (DomainError, IntegrationError, PathError,
                     ReconstructionError)
from .paths import Arc, LineTo, PathSpec, canonical_loop
from .analytic import (PeriodMatrix, li_series, monodromy, principal_lambda,
                       transport)
from .hodge import (ConnectionMatrix, FilteredFiber, OneForm, connection,
                    evaluate_connection, flatness_residual,
                    graded_dimensions, hodge_transversality_check,
                    kummer_block_check, trivial_subobject_check)
from .forms import (RationalForm, form_recurrence_check, gauge_exactness_check,
                    gauge_form, integrate_cube, omega)
from .partitions import (SetPartition, bell_number, partitions_of,
                         paving_check, postnikov_graded_check,
                         stirling_first_unsigned)
from .poset import poset_homology
from .arnold import (ArnoldElement, ClassFunction, arnold_basis,
                     arnold_character, arnold_dimension,
                     induced_character_check, induced_cyclic_character,
                     sign_multiplicity)

__version__ = "0.1.0"

__all__ = [
    "Arc", "ArnoldElement", "ClassFunction", "ConnectionMatrix", "DomainError",
    "FilteredFiber", "IntegrationError", "LineTo", "OneForm", "PathError",
    "PathSpec", "PeriodMatrix", "Rational", "RationalForm", "RationalMatrix",
    "ReconstructionError", "SetPartition",
    "arnold_basis", "arnold_character", "arnold_dimension", "bell_number",
    "canonical_loop",
    "connection", "eulerian", "evaluate_connection", "flatness_residual",
    "form_recurrence_check", "gauge_exactness_check", "gauge_form",
    "graded_dimensions", "hodge_transversality_check", "induced_character_check",
    "induced_cyclic_character", "integrate_cube", "kummer_block_check",
    "li_series", "monodromy", "nilpotency_index", "omega", "partitions_of",
    "paving_check", "poset_homology", "postnikov_graded_check",
    "principal_lambda", "rational_reconstruct", "sign_multiplicity",
    "stirling_first_unsigned", "transport", "trivial_subobject_check",
]
