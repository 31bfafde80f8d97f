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
Numbers are decimal literals with an optional sign and exponent part;
a literal beyond the floating-point range (1e400) is a syntax error.
Parameters may be positional (declared order) or named.  The parser
builds each node's law as the node closes, so the law constructors are
the one validation site and parsing returns the validated law.  The
canonical printer always emits the named form with defaults resolved,
so parse_spec(format_spec(law)) == law.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, fields

from .errors import SpecSyntaxError, SpecValidationError
from . import tailmath

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
_KINDS = {law: name for name, law in _LAWS.items()}

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

    def parse(self) -> tailmath.Law:
        law = self.parse_expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise SpecSyntaxError(f"trailing input {tok[1]!r}",
                                  (tok[2], tok[2] + len(tok[1])))
        return law

    def parse_expr(self) -> tailmath.Law:
        """One node's law, built once its ')' closes.  A constructor's
        SpecValidationError is re-raised with the node's source span;
        children are built first, so the innermost offending node reports."""
        tok = self.expect("name")
        name, start = tok[1], tok[2]
        self.expect("sym", "(")
        if name not in _LAWS:
            raise SpecSyntaxError(f"unknown distribution {name!r}",
                                  (start, start + len(name)))
        kwargs = self._parse_mix() if name == "mix" else self._parse_args(name, start)
        close = self.expect("sym", ")")
        try:
            return _LAWS[name](**kwargs)
        except SpecValidationError as err:
            raise SpecValidationError(str(err), (start, close[2] + 1)) from None

    def _at(self, sym: str) -> bool:
        return self.peek()[:2] == ("sym", sym)

    def _parse_number(self) -> float:
        tok = self.expect("number")
        value = float(tok[1])
        if not math.isfinite(value):
            raise SpecSyntaxError(f"number {tok[1]!r} is out of range",
                                  (tok[2], tok[2] + len(tok[1])))
        return value

    def _parse_args(self, name: str, start: int) -> dict:
        """Parameters, positional then named, and after them the child,
        as the law's keyword arguments."""
        law_fields = fields(_LAWS[name])
        order = [f.name for f in law_fields if f.name != "child"]
        n_children = len(law_fields) - len(order)
        values = {}
        children = []
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
        for f in law_fields:
            if f.name in order and f.name not in values and f.default is MISSING:
                raise SpecSyntaxError(
                    f"{name} is missing required parameter {f.name!r}", name_span)
        if len(children) < n_children:
            raise SpecSyntaxError(f"{name} is missing its child expression",
                                  name_span)
        if children:
            values["child"] = children[0]
        return values

    def _parse_mix(self) -> dict:
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
        return {"weights": tuple(weights), "children": tuple(children)}


def parse_spec(text: str) -> tailmath.Law:
    """The validated law of a distribution expression."""
    return _Parser(text).parse()


def format_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def format_spec(law: tailmath.Law) -> str:
    """Canonical text: named parameters, defaults resolved, single spaces."""
    name = _KINDS[type(law)]
    if name == "mix":
        arms = ", ".join(f"{format_float(w)}: {format_spec(ch)}"
                         for w, ch in zip(law.weights, law.children))
        return f"mix({arms})"
    args = [f"{f.name}={format_float(getattr(law, f.name))}"
            for f in fields(law) if f.name != "child"]
    if hasattr(law, "child"):
        args.append(format_spec(law.child))
    return f"{name}({', '.join(args)})"


def spec_to_model(text: str) -> tailmath.IncrementModel:
    """The increment model of a distribution expression."""
    law = parse_spec(text)
    return tailmath.IncrementModel(law=law, spec_text=format_spec(law))
