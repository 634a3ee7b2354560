"""Numerical semigroups, their d-multiples, saturation fibers, monoids of
the form ⟨X⟩ + d·S, closed forms for single-generator multiples, and
quotient-rank tools, all backed by brute-force oracles in tests."""

from .core import (
    NumericalSemigroup,
    WHOLE_N,
    adjoin,
    apery,
    brauer_step,
    from_gaps,
    from_generators,
    intersect,
    is_irreducible,
    is_pseudo_symmetric,
    is_symmetric,
    pseudo_frobenius,
    remove_minimal_generator,
    semigroup_type,
)
from .multiples import (
    MaxMultiplesResult,
    MultipleContext,
    irreducibility_transfer,
    is_d_multiple,
    max_multiples,
    quotient,
)
from .fibers import (
    FiberNode,
    FiberTree,
    TruncationBounds,
    children,
    divisibility_check,
    enumerate_fiber,
    saturate,
    theta,
)
from .monoids import (
    MdMonoid,
    build_monoid,
    decompose_multiple,
    is_md_set,
)
from .ed1 import (
    Ed1Multiple,
    construct_ed1,
    ed1_frobenius,
    ed1_genus,
    ed1_pseudo_frobenius,
    ed1_symmetry_transfer,
    ed1_theta_closure,
    is_gluing_of_n_and_s,
)
from .rank import (
    RankReport,
    UniqueBettiSpec,
    bounded_low_e_multiple_search,
    full_rank_condition,
    j_subset_obstruction,
    rank_sweep,
    unique_betti,
    unique_betti_apery,
)

__version__ = "0.1.0"
