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
    variables,
)
from .normal import (
    Monomial,
    SumOfProducts,
    decide_equal,
    find_reducible,
    flatten,
    monomials_over,
    normalize,
    reduce_rep,
    rep_text,
)
from .algebras import (
    ABSORPTION_LAW,
    AlgebraFormatError,
    AxiomCheck,
    AxiomReport,
    BOOLEAN_LAW,
    BUILTIN_NAMES,
    FiniteSemiring,
    Identity,
    MUL_IDEMPOTENCE,
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
    clone_count,
    enumerate_reduced,
)

__version__ = "0.1.0"
