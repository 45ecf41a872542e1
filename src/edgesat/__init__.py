"""edgesat: saturations and associated primes of powers of graph edge ideals.

Exact combinatorics throughout: membership of monomials in I^t and its
saturation is decided by matching numbers of vertex-weighted graphs, the
associated primes of I^t are enumerated and classified as covers, and a
brute-force monomial-ideal oracle cross-validates everything.
"""

from .assoc import (
    AssPrimeReport,
    ass_infinity,
    ass_primes,
    ass_primes_2,
    ass_primes_3,
    classify_3_saturating,
    depth_positive,
    is_associated,
    s_gamma,
)
from .graphs import (
    SimpleGraph,
    closed_neighborhood,
    core_of_cover,
    covers_minimal_over,
    is_cover,
    is_minimal_cover,
    is_minimal_over,
    minimal_covers,
)
from .ideals import (
    MonomialIdeal,
    ass_primes_oracle,
    colon_maximal,
    colon_monomial,
    edge_ideal,
    membership,
    power,
    saturate,
)
from .matching import (
    Matching,
    WeightedGraph,
    has_augmenting_walk,
    maximum_matching,
    nu,
    nu_bruteforce,
)
from .saturation import (
    build_strong,
    extend_by_edge,
    facets_delta,
    in_power,
    in_sat_minus_power,
    in_saturation,
    is_strongly_t_saturating,
    is_t_saturating,
    saturating_vectors,
)

__version__ = "0.1.0"
