"""Terms over the semiring signature: constants 0 and 1, variables, + and *.

Variables are numbered from 1 and written ``x1, x2, ...``; the surface
syntax also accepts ``x``, ``y``, ``z`` as shorthand for x1, x2, x3.
Both operators parse left-associatively, ``*`` binds tighter than ``+``,
and juxtaposition is not a product: ``x*y`` is a term, ``xy`` is not.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Immutable fields named by __match_args__, as in a frozen dataclass.  Eq within one class
    and hash use _key: the fields read in one C call (the class if none), unless the class
    defines its own.  Repr, pickle and copy read the fields; repr expands every field that
    holds a record on an explicit stack, so that no depth of nesting recurses."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_key" not in vars(cls):
            cls._key = attrgetter(*cls.__match_args__) if cls.__match_args__ else type

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(self.__match_args__):  # bind names as a call would
            values = dict(zip(self.__match_args__, args), **kwargs)
            if len(args) + len(kwargs) != len(values) or values.keys() != set(self.__match_args__):
                raise TypeError(f"{type(self).__qualname__}() takes the fields {self.__match_args__}")
            args = tuple(map(values.__getitem__, self.__match_args__))
        for name, value in zip(self.__match_args__, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]  # a string is written as it is; a record is expanded
        while stack:
            value = stack.pop()
            if isinstance(value, str):
                out.append(value)
                continue
            out.append(f"{type(value).__qualname__}(")
            stack.append(")")
            for i, name in reversed(list(enumerate(value.__match_args__))):
                field = getattr(value, name)
                stack += [field if isinstance(field, Record) else repr(field), f"{', ' * (i > 0)}{name}="]
        return "".join(out)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])


class Term:
    """Base class for term nodes, which are records: + and * build sums and products."""

    __slots__ = ()

    def __add__(self, other: "Term") -> "Term":
        return Add(self, other)

    def __mul__(self, other: "Term") -> "Term":
        return Mul(self, other)


class Zero(Record, Term):
    __slots__ = ()


class One(Record, Term):
    __slots__ = ()


class Var(Record, Term):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int) -> None:
        if type(index) is not int:  # Var(True) and Var(2.0) would equal Var(1) and Var(2) but print apart
            raise TypeError(f"variable index must be an int, got {index!r}")
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        object.__setattr__(self, "index", index)


class Add(Record, Term):
    __slots__ = __match_args__ = ("left", "right")
    _key = staticmethod(lambda t: tuple(postfix(t)))  # the postfix list: no recursion on depth

    def __init__(self, left: Term, right: Term) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Mul(Record, Term):
    __slots__ = __match_args__ = ("left", "right")
    _key = vars(Add)["_key"]  # the staticmethod itself: Add._key would bind as a method
    __init__ = Add.__init__


ZERO = Zero()
ONE = One()


class TermSyntaxError(ValueError):
    """Raised on malformed input; ``position`` is the 1-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.message, self.position = message, position


_ALIASES = {"x": 1, "y": 2, "z": 3}


def _lex(text: str) -> list[tuple[str, object, int]]:
    # token kinds: each of 0 1 + * ( ) is its own kind, then var and end
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        col = i + 1
        if c in "01+*()":
            tokens.append((c, None, col))
        elif c == "x":
            j = i + 1
            while j < n and text[j] in "0123456789":  # not isdigit: it accepts ² and ٣
                j += 1
            if j == i + 1:
                tokens.append(("var", 1, col))
            else:
                try:
                    index = int(text[i + 1 : j])
                except ValueError:  # more digits than sys.get_int_max_str_digits()
                    raise TermSyntaxError("variable index is too long", col) from None
                if index == 0:
                    raise TermSyntaxError("variable index 0 is not allowed", col)
                tokens.append(("var", index, col))
                i = j
                continue
        elif c in _ALIASES:
            tokens.append(("var", _ALIASES[c], col))
        else:
            raise TermSyntaxError(f"unexpected character {c!r}", col)
        i += 1
    tokens.append(("end", None, n + 1))
    return tokens


def parse(text: str) -> Term:
    """Parse a term; raises TermSyntaxError with a column on bad input.

    >>> parse("x+y*z")
    Add(left=Var(index=1), right=Mul(left=Var(index=2), right=Var(index=3)))
    """
    tokens = _lex(text)
    t, pos = _parse_sum(tokens, 0)
    kind, _, col = tokens[pos]
    if kind != "end":
        raise TermSyntaxError(f"unexpected {_describe(kind)}", col)
    return t


def _parse_sum(tokens: list[tuple[str, object, int]], pos: int) -> tuple[Term, int]:
    """The sum that starts at tokens[pos], and the position after it.  Sums
    and products are loops; only a parenthesis recurses, one frame a level."""
    total = None
    while True:
        product = None
        while True:
            kind, value, col = tokens[pos]
            if kind == "var":
                atom = Var(value)  # type: ignore[arg-type]
            elif kind == "(":
                atom, pos = _parse_sum(tokens, pos + 1)
                kind, _, col = tokens[pos]
                if kind != ")":
                    raise TermSyntaxError("expected ')'", col)
            elif kind in ("0", "1"):
                atom = ONE if kind == "1" else ZERO
            else:
                raise TermSyntaxError(f"expected a term, found {_describe(kind)}", col)
            product = atom if product is None else Mul(product, atom)
            pos += 1
            if tokens[pos][0] != "*":
                break
            pos += 1
        total = product if total is None else Add(total, product)
        if tokens[pos][0] != "+":
            return total, pos
        pos += 1


def _describe(kind: str) -> str:
    return {"var": "variable", "end": "end of input"}.get(kind, f"'{kind}'")


def postfix(*terms: Term) -> list[Term | bool]:
    """The nodes of the terms in postfix order, walked without recursion: a
    leaf (Zero, One or Var) as itself, + as False and * as True.

    >>> postfix(parse("x+y*z"), ONE)
    [Var(index=1), Var(index=2), Var(index=3), True, False, One()]
    """
    code: list[Term | bool] = []
    stack = list(terms)
    while stack:  # root, then right subtree, then left: postfix reversed
        t = stack.pop()
        if isinstance(t, (Add, Mul)):
            code.append(isinstance(t, Mul))
            stack.append(t.left)
            stack.append(t.right)
        elif isinstance(t, (Zero, One, Var)):
            code.append(t)
        else:
            raise TypeError(f"not a term: {t!r}")
    code.reverse()
    return code


def run(code: list[Term | bool], leaf, add, mul) -> list:
    """Evaluate postfix code on a value stack, with leaf(op) the value of a
    leaf and add and mul combining two values; one value per term."""
    stack: list = []
    for op in code:
        if isinstance(op, bool):
            right = stack.pop()
            stack[-1] = (mul if op else add)(stack[-1], right)
        else:
            stack.append(leaf(op))
    return stack


def variables(t: Term) -> frozenset[int]:
    """The set of variable indices occurring in t."""
    return frozenset(op.index for op in postfix(t) if isinstance(op, Var))


def term_size(t: Term) -> int:
    """Number of AST nodes, by recursion: the CLI's `--max-nodes` goes through
    it, so a sum of 3000 summands raises RecursionError, as the benchmark's
    defect entry `defect.long` expects until both change (ROADMAP item 1)."""
    match t:
        case Zero() | One() | Var(_):
            return 1
        case Add(l, r) | Mul(l, r):
            return 1 + term_size(l) + term_size(r)
    raise TypeError(f"not a term: {t!r}")
