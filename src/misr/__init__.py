"""misr: commutative multiplicatively idempotent semirings with absorption.

A term calculus for the variety of commutative multiplicatively idempotent
semirings satisfying x+y+x*y*z = x+y: unique sum-of-products normal forms,
a decision procedure for the word problem, finite Cayley-table models, a
lattice-plus-unit construction, congruence analysis, and enumeration of
the finitely many term functions in each arity.
"""

from .terms import (
    Add,
    Mul,
    One,
    ONE,
    Term,
    TermSyntaxError,
    Var,
    Zero,
    ZERO,
    parse,
    term_size,
    to_text,
    variables,
)
from .normal import (
    Monomial,
    SumOfProducts,
    decide_equal,
    find_reducible,
    flatten,
    is_reduced,
    monomial_key,
    monomial_leq,
    normalize,
    reduce_rep,
    rep_text,
    to_term,
)
from .algebras import (
    ABSORPTION_LAW,
    AlgebraFormatError,
    AxiomCheck,
    AxiomReport,
    BOOLEAN_LAW,
    BUILTIN_NAMES,
    DOUBLE_PRODUCT_ABSORPTION,
    FiniteSemiring,
    Identity,
    MUL_IDEMPOTENCE,
    PRODUCT_ABSORPTION,
    boolean_lattice,
    builtin,
    check_axioms,
    direct_product,
    eval_term,
    format_algebra,
    holds,
    load_algebra,
    lplus1,
    parse_algebra,
    parse_identity,
)
from .congruences import (
    Partition,
    is_congruence,
    is_subdirectly_irreducible,
    principal_congruence,
)
from .enumeration import (
    DEFAULT_ARITY_CAP,
    FreeSpectrumEntry,
    clone_count,
    enumerate_reduced,
    free_spectrum,
    monomials_over,
)

__version__ = "0.1.0"
