"""Finite-group approximation toolkit.

Decides, by exhaustive enumeration over Cayley tables, whether a
homomorphism between finite groups is a localization, cellular cover,
envelope or cover (absolutely or relative to a finite class), computes
Galois and co-Galois groups, class socles and radicals, and runs
theorem suites over a desk-scale corpus of standard group families.
"""

__version__ = "0.1.0"

from .approx import (
    ClassificationReport,
    GroupClass,
    classify_against_class,
    classify_hom,
    f_radical,
    f_socle,
    galois_group,
    image_factorize,
    is_orthogonal,
    local_kernel,
)
from .commutators import (
    LemmaConfig,
    LemmaReport,
    check_commutator_lemmas,
    lower_central_series,
    nilpotency_class,
    upper_central_series,
)
from .corpus import (
    SuiteReport,
    generate_corpus,
    run_theorem_suite,
    search_approximations,
)
from .errors import GrouperError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    are_isomorphic,
    center,
    centralizer,
    describe_structure,
    direct_product,
    isomorphism,
    quotient_group,
    standard_group,
    subgroup_generated,
)
from .homs import (
    AutGroup,
    AutSubgroup,
    HomSet,
    automorphism_group,
    end_set,
    enumerate_homs,
    find_isomorphism,
)
from .simple import (
    CriterionReport,
    simple_envelope_criterion,
    structural_flags,
    subgroups_isomorphic_to,
)
from .specs import GroupSpecFile, parse_group_spec, spec_for_group

__all__ = [
    "AutGroup",
    "AutSubgroup",
    "ClassificationReport",
    "CriterionReport",
    "FiniteGroup",
    "GroupClass",
    "GroupHom",
    "GroupSpecFile",
    "GrouperError",
    "HomSet",
    "LemmaConfig",
    "LemmaReport",
    "Subgroup",
    "SuiteReport",
    "are_isomorphic",
    "automorphism_group",
    "center",
    "centralizer",
    "check_commutator_lemmas",
    "classify_against_class",
    "classify_hom",
    "describe_structure",
    "direct_product",
    "end_set",
    "enumerate_homs",
    "f_radical",
    "f_socle",
    "find_isomorphism",
    "galois_group",
    "generate_corpus",
    "image_factorize",
    "is_orthogonal",
    "isomorphism",
    "local_kernel",
    "lower_central_series",
    "nilpotency_class",
    "quotient_group",
    "run_theorem_suite",
    "search_approximations",
    "simple_envelope_criterion",
    "spec_for_group",
    "standard_group",
    "structural_flags",
    "subgroup_generated",
    "subgroups_isomorphic_to",
    "upper_central_series",
]
