import types

import misr

# Each name misr exports; a name added to or removed from the package's
# public surface must be added to or removed from this set as well.
PUBLIC = {
    # terms
    "Add", "Mul", "One", "ONE", "Term", "TermSyntaxError", "Var", "Zero", "ZERO",
    "parse", "term_size", "variables",
    # normal
    "Monomial", "SumOfProducts", "decide_equal", "find_reducible", "flatten",
    "monomials_over", "normalize", "reduce_rep", "rep_text",
    # algebras
    "ABSORPTION_LAW", "AlgebraFormatError", "AxiomCheck", "AxiomReport",
    "BOOLEAN_LAW", "BUILTIN_NAMES", "FiniteSemiring", "Identity", "MUL_IDEMPOTENCE",
    "boolean_lattice", "builtin", "check_axioms", "direct_product", "eval_term",
    "format_algebra", "holds", "load_algebra", "lplus1", "parse_algebra",
    "parse_identity",
    # congruences
    "Partition", "is_congruence", "is_subdirectly_irreducible", "principal_congruence",
    # enumeration
    "DEFAULT_ARITY_CAP", "clone_count", "enumerate_reduced",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(misr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC
