"""Exact symbolic computation in Cuntz algebras O_d.

The package implements the *-algebra of finite rational word combinations
with a canonical normal form, recursive fermion systems and the fermion
families they embed, the standard permutation representation with its
Fock restriction, and recursive parafermion systems of arbitrary order
with their Klein-transformation bookkeeping.
"""

from .algebra import (
    Element,
    Monomial,
    anticommutator,
    commutator,
    element_to_text,
    grade_decompose,
    identity,
    is_u1_invariant,
    isometry,
    iter_monomials,
    monomial_mul,
    parse_element,
    raise_monomial,
)
from .endomorphisms import (
    Endomorphism,
    canonical_endomorphism,
    identity_endomorphism,
    phi1,
    phi2,
    rho,
    validate_endomorphism,
)
from .errors import (
    AlphabetMismatchError,
    ConfigError,
    CuntzError,
    EndomorphismValidationError,
    IndexRangeError,
    ParseError,
    ResourceLimitError,
    SchemaError,
    SystemValidationError,
)
from .parafermion import (
    GreenSystem,
    klein_factor,
    standard_rpfs2,
    standard_rpfs_p,
    validate_green_system,
    verify_cross_commutation,
    verify_green_normalization,
    verify_green_recursive,
    verify_green_relations,
    verify_green_seed,
    verify_klein_identities,
    verify_parafermion,
    verify_parafermion_vacuum,
    verify_spectrum_polynomial,
    verify_trilinear,
)
from .reports import CheckResult, Report
from .representation import (
    StateVector,
    apply_generator,
    apply_generator_adjoint,
    bogoliubov_family,
    decode_index,
    fock_build,
    fock_index,
    rep_apply,
    rep_generator,
    rfs_p_fock_index,
    verify_vacuum,
)
from .rfs import (
    GeneratorFamily,
    RecursiveMap,
    RfsSystem,
    SpanResult,
    compose_with_endomorphism,
    generalized_rfs_o2d,
    span_dimension_check,
    span_rank,
    standard_rfs_o2,
    standard_rfs_p,
    validate_system,
    verify_all,
    verify_car,
    verify_normalization,
    verify_recursive_condition,
    verify_seed_condition,
)

__version__ = "0.1.0"
