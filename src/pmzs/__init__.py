"""Factorization invariants of plus-minus weighted zero-sum sequence monoids
over finite abelian groups: atoms, sets of lengths, distance sets, exact
minimal distances, the set of minimal distances over divisor-closed
submonoids, and Davenport constants, with a CLI and a mechanical
verification suite.
"""

from .errors import DomainError, PmzsError, ResourceLimitError
from .limits import DEFAULT_LIMITS, Limits
from .groups import (
    Group,
    GroupElement,
    GroupSummary,
    abelian_group_types,
    automorphisms,
    davenport,
    davenport_exhaustive,
    fold_negatives,
    group_invariants,
    make_group,
)
from .sequences import Sequence
from .notation import (
    format_group,
    format_subset,
    parse_group,
    parse_sequence,
    parse_subset,
)
from .atoms import (
    AtomCache,
    AtomSet,
    LengthProfile,
    atom_length_profile,
    davenport_monoid,
    enumerate_atoms,
)
from .relations import (
    FactorizationSet,
    Factorizer,
    delta_of_lengths,
    min_delta,
    min_delta_of_atoms,
    rho_k,
)
from .delta_star import DeltaStarReport, delta_star
from .suite import (
    CharComparison,
    CharReport,
    CheckReport,
    char_compare,
    char_invariants,
    check_elementary_p_gcd,
    check_odd_order_sandwich,
    check_parity,
)

__version__ = "0.1.0"
