"""Two-subsemigroup covers of groups and left-orderable quotients.

Library surface: group models with exact arithmetic, decidable cone sets,
order/cover conversions, cover normalization and descent, finite covering
numbers, and the bundled verification suites behind the CLI.
"""

from .cones import (
    CoverPair,
    Verdict,
    cone_from_obj,
    cone_to_obj,
    complement,
    contains,
    explicit,
    ext_equal,
    identity_cone,
    intersection,
    invert_cone,
    is_cover_pair,
    is_subsemigroup,
    pullback,
    symmetric_part,
    union,
)
from .covering import (
    CoveringNumberResult,
    all_subgroups,
    maximal_subgroups,
    scorza_check,
    sigma_g,
    subsemigroup_census,
    two_cover_search,
)
from .covers import (
    DescentState,
    check_coset_saturation,
    check_inverse_duality,
    classify_intersection,
    conjugate_split,
    minimal_pair_descent,
    order_witness_from_cover,
    reduce_cover,
    refine_pair,
)
from .errors import SemicoverError
from .groups import (
    FiniteGroup,
    GroupModel,
    Homomorphism,
    element_order,
    format_element,
    is_normal,
    load_finite_group,
    parse_element,
    parse_model,
)
from .orders import (
    LeftOrderWitness,
    cover_from_witness,
    lex_combine,
    merge_covers,
    pullback_cover,
    standard_lex_cone,
    totality_mod_kernel,
    validate_witness,
    witness_ok,
)
from .presentations import PresentationData, analyze_presentation, parse_presentation
from .snf import smith_normal_form

__all__ = [name for name in dir() if not name.startswith("_")]
