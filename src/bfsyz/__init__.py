"""Exact computational algebra for powers of binary forms.

Library + CLI for studying the coefficient maps of G -> G^a on binary forms:
plethysm characters, transvectant rank-drop loci, power ideals and their
initial ideals, Betti tables via Koszul homology, and Castelnuovo-Mumford
regularity.  All arithmetic is exact (rationals or prime fields with explicit
provenance); nothing is ever reported from floating point.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: E402,F401
    BfsyzError,
    ConventionError,
    EquivarianceError,
    InconclusiveError,
    ResourceLimitError,
)
from .exactalg import EXACT_DIM_LIMIT, KERNEL_BACKEND, ExactMatrix, RankResult  # noqa: E402,F401
from .polyring import (  # noqa: E402,F401
    GradedIdeal,
    MonomialIdeal,
    MultiPoly,
    PolyRing,
    hilbert_function,
    ideal_power,
    initial_ideal_Jab,
    monomial_quotient_hf,
)
from .fhmaps import (  # noqa: E402,F401
    foulkes_howe,
    fh_rank_report,
    hw_triple_report,
    ix_kernel_ideal,
    minors_generate_check,
    phi_matrix,
    power_ideal,
    sr_wr_terms,
)
from .homres import (  # noqa: E402,F401
    BettiTable,
    ExplicitComplex,
    GradedModule,
    betti_reference,
    check_betti,
    coker_hilbert,
    exactness_check,
    initial_ideal_regularity,
    koszul_complex,
    power_ideal_betti,
    power_locus_betti,
    power_resolution,
    regularity,
    tor_betti,
)
