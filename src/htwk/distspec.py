"""Parser, validator, and canonical printer for distribution expressions.

Grammar (whitespace free between tokens):

    expr    := NAME "(" body ")"
    body    := mixarms | params
    mixarms := WEIGHT ":" expr ("," WEIGHT ":" expr)*        (mix only)
    params  := param ("," param)*
    param   := [NAME "="] NUMBER | expr                      (children inline)

Leaves: pareto(alpha, kappa), lognormal(mu, sigma),
weibull(shape[, scale]), exponential(rate), point(c).
Combinators: neg(expr), shift(c, expr), mix(w: expr, ...).

Numbers are decimal literals with an optional sign and exponent part.
Arguments may be positional (declared order) or named; the canonical
printer always emits the named form with defaults resolved, so
parse(format_spec(e)) == e.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import SpecSyntaxError, SpecValidationError
from . import tailmath


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


_NO_SPAN = SourceSpan(-1, -1)


@dataclass(frozen=True)
class DistExpr:
    """One node of a parsed distribution expression."""

    kind: str
    params: tuple[tuple[str, float], ...] = ()
    children: tuple["DistExpr", ...] = ()
    weights: tuple[float, ...] = ()
    span: SourceSpan = field(compare=False, default=_NO_SPAN)

    def param(self, name: str) -> float:
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)


# parameter schema: name -> (ordered (param, default-or-None), n_children)
_LEAF_SCHEMA = {
    "pareto": (("alpha", None), ("kappa", None)),
    "lognormal": (("mu", None), ("sigma", None)),
    "weibull": (("shape", None), ("scale", 1.0)),
    "exponential": (("rate", None),),
    "point": (("c", None),),
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[(),:=])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}",
                                  (pos, pos + 1))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            got = tok[1] if tok[1] else "end of input"
            raise SpecSyntaxError(f"expected {want!r}, found {got!r}",
                                  (tok[2], tok[2] + max(1, len(tok[1]))))
        return tok

    def parse(self) -> DistExpr:
        expr = self.parse_expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise SpecSyntaxError(f"trailing input {tok[1]!r}",
                                  (tok[2], tok[2] + len(tok[1])))
        return expr

    def parse_expr(self) -> DistExpr:
        tok = self.expect("name")
        name, start = tok[1], tok[2]
        self.expect("sym", "(")
        if name == "mix":
            node = self._parse_mix(start)
        elif name == "neg":
            child = self.parse_expr()
            node = DistExpr(kind="neg", children=(child,))
        elif name == "shift":
            node = self._parse_shift(start)
        elif name in _LEAF_SCHEMA:
            node = self._parse_leaf(name, start)
        else:
            raise SpecSyntaxError(f"unknown distribution {name!r}",
                                  (start, start + len(name)))
        close = self.expect("sym", ")")
        span = SourceSpan(start, close[2] + 1)
        return DistExpr(kind=node.kind, params=node.params,
                        children=node.children, weights=node.weights, span=span)

    def _parse_number(self) -> float:
        tok = self.expect("number")
        return float(tok[1])

    def _parse_leaf(self, name: str, start: int) -> DistExpr:
        schema = _LEAF_SCHEMA[name]
        values: dict[str, float] = {}
        order = [p for p, _ in schema]
        pos_index = 0
        named_seen = False
        while True:
            tok = self.peek()
            if tok[0] == "sym" and tok[1] == ")":
                break
            if tok[0] == "name":
                key_tok = self.next()
                self.expect("sym", "=")
                key = key_tok[1]
                if key not in order:
                    raise SpecSyntaxError(
                        f"{name} has no parameter {key!r}",
                        (key_tok[2], key_tok[2] + len(key)))
                if key in values:
                    raise SpecSyntaxError(
                        f"duplicate parameter {key!r}",
                        (key_tok[2], key_tok[2] + len(key)))
                values[key] = self._parse_number()
                named_seen = True
            else:
                if named_seen:
                    raise SpecSyntaxError(
                        "positional argument after named argument",
                        (tok[2], tok[2] + max(1, len(tok[1]))))
                if pos_index >= len(order):
                    raise SpecSyntaxError(
                        f"too many arguments for {name}",
                        (tok[2], tok[2] + max(1, len(tok[1]))))
                key = order[pos_index]
                if key in values:
                    raise SpecSyntaxError(
                        f"duplicate parameter {key!r}", (tok[2], tok[2] + 1))
                values[key] = self._parse_number()
                pos_index += 1
            if self.peek()[0] == "sym" and self.peek()[1] == ",":
                self.next()
                continue
            break
        params = []
        for key, default in schema:
            if key in values:
                params.append((key, values[key]))
            elif default is not None:
                params.append((key, default))
            else:
                raise SpecSyntaxError(
                    f"{name} is missing required parameter {key!r}",
                    (start, start + len(name)))
        return DistExpr(kind=name, params=tuple(params))

    def _parse_shift(self, start: int) -> DistExpr:
        tok = self.peek()
        if tok[0] == "name" and tok[1] == "c" \
                and self.tokens[self.i + 1][:2] == ("sym", "="):
            self.next()
            self.next()
            c = self._parse_number()
        elif tok[0] == "number":
            c = self._parse_number()
        else:
            raise SpecSyntaxError("shift requires a numeric offset first",
                                  (tok[2], tok[2] + max(1, len(tok[1]))))
        self.expect("sym", ",")
        child = self.parse_expr()
        return DistExpr(kind="shift", params=(("c", c),), children=(child,))

    def _parse_mix(self, start: int) -> DistExpr:
        weights = []
        children = []
        while True:
            w = self._parse_number()
            self.expect("sym", ":")
            children.append(self.parse_expr())
            weights.append(w)
            if self.peek()[0] == "sym" and self.peek()[1] == ",":
                self.next()
                continue
            break
        return DistExpr(kind="mix", weights=tuple(weights),
                        children=tuple(children))


def parse_spec(text: str) -> DistExpr:
    """Parse and validate a distribution expression."""
    expr = _Parser(text).parse()
    _to_law(expr)
    return expr


def format_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def format_spec(expr: DistExpr) -> str:
    """Canonical text: named parameters, defaults resolved, single spaces."""
    if expr.kind == "mix":
        arms = ", ".join(f"{format_float(w)}: {format_spec(ch)}"
                         for w, ch in zip(expr.weights, expr.children))
        return f"mix({arms})"
    if expr.kind == "neg":
        return f"neg({format_spec(expr.children[0])})"
    if expr.kind == "shift":
        return f"shift(c={format_float(expr.param('c'))}, {format_spec(expr.children[0])})"
    params = ", ".join(f"{k}={format_float(v)}" for k, v in expr.params)
    return f"{expr.kind}({params})"


def _to_law(expr: DistExpr) -> tailmath.Law:
    """The law of an expression node.

    The law constructors are the one validation site: a constructor's
    SpecValidationError is re-raised with the node's source span.
    Children are built first, so the innermost offending node reports.
    """
    children = tuple(_to_law(ch) for ch in expr.children)
    try:
        if expr.kind == "pareto":
            return tailmath.Pareto(alpha=expr.param("alpha"), kappa=expr.param("kappa"))
        if expr.kind == "lognormal":
            return tailmath.Lognormal(mu=expr.param("mu"), sigma=expr.param("sigma"))
        if expr.kind == "weibull":
            return tailmath.Weibull(shape=expr.param("shape"), scale=expr.param("scale"))
        if expr.kind == "exponential":
            return tailmath.Exponential(rate=expr.param("rate"))
        if expr.kind == "point":
            return tailmath.PointMass(c=expr.param("c"))
        if expr.kind == "neg":
            return tailmath.Neg(child=children[0])
        if expr.kind == "shift":
            return tailmath.Shift(c=expr.param("c"), child=children[0])
        if expr.kind == "mix":
            return tailmath.Mixture(weights=expr.weights, children=children)
        raise SpecValidationError(f"unknown distribution {expr.kind!r}")
    except SpecValidationError as err:
        span = (expr.span.start, expr.span.end) if expr.span.start >= 0 else None
        raise SpecValidationError(str(err), span) from None


def spec_to_model(spec: str | DistExpr) -> tailmath.IncrementModel:
    """Build the increment model for an expression (text or parsed).

    A hand-built DistExpr goes through the same law constructors as
    parsed text, so it cannot smuggle an invalid law past validation.
    """
    expr = _Parser(spec).parse() if isinstance(spec, str) else spec
    return tailmath.IncrementModel(law=_to_law(expr), spec_text=format_spec(expr))
