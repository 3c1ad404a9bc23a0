"""satlab: exact tooling for clique-saturation extremal problems.

Bitset graphs with graph6 interchange, canonical forms, exact
matching/clique/independent-set counting, saturation checking,
exhaustive extremal search at desk scale, and the matching closed forms.
"""

from .canonical import (
    CanonicalCertificate,
    are_isomorphic,
    automorphism_generators,
    automorphism_group_order,
    canonical_certificate,
    canonical_form,
    certificate_graph,
    nonisomorphic_graphs,
)
from .counting import (
    MotifSpec,
    count_cliques,
    count_indep_sets,
    count_m2_via_degrees,
    count_matchings,
    count_motif,
    matching_number,
)
from .errors import (
    BudgetError,
    DomainError,
    Graph6Error,
    ParameterError,
    SatlabError,
)
from .formulas import (
    falling_factorial,
    indep_lower_bound,
    indep_lower_bound_exact,
    m2_profile_formula,
    m2_profile_quadratic,
    matchings_in_split_exact,
    matchings_in_split_leading,
    sat_cliques_formula,
    sat_edges_formula,
)
from .graphs import MAX_VERTICES, Graph, from_graph6, join, make_split, to_graph6
from .saturation import (
    SaturationReport,
    check_saturation,
    contains_clique,
    creates_clique_on_addition,
)
from .search import (
    EXHAUSTIVE_CAP,
    ExtremalResult,
    ProbeRow,
    SearchBudget,
    enumerate_saturated,
    extremal_count,
    probe_conjecture,
    random_saturated,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CanonicalCertificate",
    "DomainError",
    "EXHAUSTIVE_CAP",
    "ExtremalResult",
    "Graph",
    "Graph6Error",
    "MAX_VERTICES",
    "MotifSpec",
    "ParameterError",
    "ProbeRow",
    "SatlabError",
    "SaturationReport",
    "SearchBudget",
    "are_isomorphic",
    "automorphism_generators",
    "automorphism_group_order",
    "canonical_certificate",
    "canonical_form",
    "certificate_graph",
    "check_saturation",
    "contains_clique",
    "count_cliques",
    "count_indep_sets",
    "count_m2_via_degrees",
    "count_matchings",
    "count_motif",
    "creates_clique_on_addition",
    "enumerate_saturated",
    "extremal_count",
    "falling_factorial",
    "from_graph6",
    "indep_lower_bound",
    "indep_lower_bound_exact",
    "join",
    "m2_profile_formula",
    "m2_profile_quadratic",
    "make_split",
    "matching_number",
    "matchings_in_split_exact",
    "matchings_in_split_leading",
    "nonisomorphic_graphs",
    "probe_conjecture",
    "random_saturated",
    "sat_cliques_formula",
    "sat_edges_formula",
    "to_graph6",
]
