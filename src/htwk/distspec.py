"""Parser, validator, and canonical printer for distribution expressions.

Grammar (whitespace free between tokens):

    expr    := NAME "(" body ")"
    body    := mixarms | args
    mixarms := WEIGHT ":" expr ("," WEIGHT ":" expr)*        (mix only)
    args    := [arg ("," arg)*]                   (parameters, then children)
    arg     := [NAME "="] NUMBER | expr

Leaves: pareto(alpha, kappa), lognormal(mu, sigma),
weibull(shape[, scale]), exponential(rate), point(c).
Combinators: neg(expr), shift(c, expr), mix(w: expr, ...).

A kind's parameters, their order and their defaults are the fields of
its law dataclass in `_LAWS`; the field `child` is its one child.
Numbers are decimal literals with an optional sign and exponent part.
Parameters may be positional (declared order) or named; the canonical
printer always emits the named form with defaults resolved, so
parse(format_spec(e)) == e.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields, replace

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


_LAWS = {
    "pareto": tailmath.Pareto,
    "lognormal": tailmath.Lognormal,
    "weibull": tailmath.Weibull,
    "exponential": tailmath.Exponential,
    "point": tailmath.PointMass,
    "neg": tailmath.Neg,
    "shift": tailmath.Shift,
    "mix": tailmath.Mixture,
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
        if name not in _LAWS:
            raise SpecSyntaxError(f"unknown distribution {name!r}",
                                  (start, start + len(name)))
        node = self._parse_mix() if name == "mix" else self._parse_args(name, start)
        close = self.expect("sym", ")")
        return replace(node, span=SourceSpan(start, close[2] + 1))

    def _at(self, sym: str) -> bool:
        return self.peek()[:2] == ("sym", sym)

    def _parse_number(self) -> float:
        tok = self.expect("number")
        return float(tok[1])

    def _parse_args(self, name: str, start: int) -> DistExpr:
        """Parameters, positional then named, and after them the children."""
        law_fields = fields(_LAWS[name])
        signature = [(f.name, f.default) for f in law_fields if f.name != "child"]
        n_children = len(law_fields) - len(signature)
        order = [p for p, _ in signature]
        values: dict[str, float] = {}
        children: list[DistExpr] = []
        named_seen = False
        more = not self._at(")")
        while more:
            tok = self.peek()
            span = (tok[2], tok[2] + max(1, len(tok[1])))
            if self._at(")"):
                raise SpecSyntaxError("expected an argument after ','", span)
            if tok[0] == "name" and self.tokens[self.i + 1][:2] == ("sym", "("):
                if len(children) == n_children:
                    raise SpecSyntaxError(
                        f"too many child expressions for {name}", span)
                children.append(self.parse_expr())
            elif children:
                raise SpecSyntaxError("parameter after child expression", span)
            elif tok[0] == "name":
                self.next()
                self.expect("sym", "=")
                key = tok[1]
                if key not in order:
                    raise SpecSyntaxError(
                        f"{name} has no parameter {key!r}", span)
                if key in values:
                    raise SpecSyntaxError(
                        f"duplicate parameter {key!r}", span)
                values[key] = self._parse_number()
                named_seen = True
            elif named_seen:
                raise SpecSyntaxError(
                    "positional argument after named argument", span)
            elif len(values) == len(order):
                raise SpecSyntaxError(f"too many arguments for {name}", span)
            else:
                values[order[len(values)]] = self._parse_number()
            more = self._at(",")
            if more:
                self.next()
        if not self._at(")"):
            # a missing ',' is reported where it is missing, not as a
            # missing argument
            self.expect("sym", ")")
        name_span = (start, start + len(name))
        params = []
        for key, default in signature:
            if key in values:
                params.append((key, values[key]))
            elif default is not MISSING:
                params.append((key, default))
            else:
                raise SpecSyntaxError(
                    f"{name} is missing required parameter {key!r}", name_span)
        if len(children) < n_children:
            raise SpecSyntaxError(f"{name} is missing its child expression",
                                  name_span)
        return DistExpr(kind=name, params=tuple(params), children=tuple(children))

    def _parse_mix(self) -> DistExpr:
        weights = []
        children = []
        while True:
            w = self._parse_number()
            self.expect("sym", ":")
            children.append(self.parse_expr())
            weights.append(w)
            if not self._at(","):
                break
            self.next()
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
    args = [f"{k}={format_float(v)}" for k, v in expr.params]
    args += [format_spec(ch) for ch in expr.children]
    return f"{expr.kind}({', '.join(args)})"


def _to_law(expr: DistExpr) -> tailmath.Law:
    """The law of an expression node.

    The law constructors are the one validation site: a constructor's
    SpecValidationError is re-raised with the node's source span.
    Children are built first, so the innermost offending node reports.
    """
    children = tuple(_to_law(ch) for ch in expr.children)
    try:
        law = _LAWS.get(expr.kind)
        if law is None:
            raise SpecValidationError(f"unknown distribution {expr.kind!r}")
        if expr.kind == "mix":
            return law(weights=expr.weights, children=children)
        kwargs = dict(expr.params)
        if children:
            kwargs["child"] = children[0]
        return law(**kwargs)
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
