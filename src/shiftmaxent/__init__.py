"""Maximum-entropy invariant measures on the binary full shift under
prescribed cylinder frequencies: feasibility checks, the explicit
zero-block construction with its closed-form entropy, a finite-depth
constrained entropy maximizer, Birkhoff recurrence averages, and
empirical entropy estimators.
"""

__version__ = "0.1.0"

from .errors import ConstraintError, InfeasibleSpecError, StructuralError
from .estimators import entropy_estimates, katok_entropy, word_count_entropy
from .measures import (EXACT, FLOAT, CylinderTable, OrbitSample,
                       ValidationReport, bernoulli_table, conditional_entropy,
                       entropy_ladder, load_table, markov_extend,
                       max_abs_deviation, sample_orbits, table_from_json,
                       table_from_top_level, table_text, table_to_json,
                       truncate_table, validate)
from .optimize import (ComparisonReport, Constraint, ConstraintSet,
                       OptimizationResult, compare_with_closed_form, solve)
from .orbits import (RecurrenceProfile, generic_point_half, match_count,
                     recurrence, recurrence_profile, weighted_deviation)
from .words import all_words, canonical_index, check_word
from .zeroblock import (ClosedFormEntropy, FeasibilityReport, FrequencySpec,
                        boundary_values, build_max_entropy_table,
                        check_feasible, entropy_closed_form, extend_spec,
                        telescoping_increments)

__all__ = [name for name in dir() if not name.startswith("_")]
