"""Round-trip, span, and validation behavior of the distribution grammar."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from htwk.distspec import format_float, format_spec, parse_spec, spec_to_model
from htwk.errors import SpecSyntaxError, SpecValidationError
from htwk.tailmath import Mixture, Neg, Pareto
from pinned_models import DEFAULT_MODEL

# Every production: all five leaves, named and positional arguments,
# defaulted parameters, neg, both shift argument forms, nested shift,
# mixtures with 2+ arms, nested mixtures, scientific and signed numbers.
ROUND_TRIP_CORPUS = [
    "pareto(alpha=1.5, kappa=1)",
    "pareto(1.5, 1)",
    "pareto(2, 1)",
    "pareto(alpha=0.5, kappa=2)",
    "pareto(kappa=1, alpha=1.5)",
    "exponential(rate=1)",
    "exponential(1)",
    "exponential(rate=0.25)",
    "weibull(shape=0.5, scale=2)",
    "weibull(0.5)",
    "weibull(shape=0.7)",
    "weibull(0.3, 4)",
    "lognormal(mu=0, sigma=1)",
    "lognormal(0, 2)",
    "lognormal(mu=-1, sigma=0.5)",
    "point(c=0)",
    "point(2)",
    "point(-3)",
    "point(c=1e3)",
    "neg(pareto(alpha=0.5, kappa=1))",
    "neg(exponential(rate=2))",
    "neg(weibull(shape=0.9, scale=1))",
    "neg(point(5))",
    "neg(lognormal(mu=0, sigma=1))",
    "shift(c=1, pareto(alpha=1.5, kappa=1))",
    "shift(-2, exponential(rate=1))",
    "shift(c=-0.5, weibull(shape=0.8))",
    "shift(3, point(0))",
    "shift(c=2, neg(exponential(rate=1)))",
    "shift(c=0.5, shift(c=0.5, exponential(rate=3)))",
    "mix(0.5: pareto(alpha=1.5, kappa=1), 0.5: neg(pareto(alpha=0.5, kappa=1)))",
    "mix(0.25: exponential(rate=1), 0.75: neg(exponential(rate=0.5)))",
    "mix(0.5: point(1), 0.5: neg(point(2)))",
    "mix(0.2: pareto(alpha=2, kappa=1), 0.3: exponential(rate=1), 0.5: neg(weibull(shape=0.5)))",
    "mix(0.5: mix(0.5: exponential(rate=1), 0.5: point(0)), 0.5: neg(pareto(alpha=0.7, kappa=2)))",
    "mix(0.9: neg(exponential(rate=1)), 0.1: shift(c=4, exponential(rate=2)))",
    "pareto(alpha=1.5e0, kappa=1e0)",
    "exponential(rate=2.5E-1)",
    "weibull(shape=5e-1, scale=1.5)",
    "point(c=-2.25)",
    "pareto(alpha=.75, kappa=1)",
    "exponential( rate = 1 )",
    "mix(0.125: point(0), 0.875: neg(pareto(alpha=0.5, kappa=1)))",
    "neg(shift(c=1, exponential(rate=1)))",
    "shift(c=10, mix(0.5: exponential(rate=1), 0.5: point(3)))",
    "mix(0.5: lognormal(mu=1, sigma=2), 0.5: neg(weibull(shape=0.4, scale=3)))",
    "point(1.5)",
    "weibull(1)",
    "mix(0.6: neg(point(1)), 0.4: pareto(alpha=3, kappa=2))",
    "shift(0, point(0))",
]

MALFORMED = [
    "pareto(oops=1)",
    "pareto(alpha=1.5)",
    "pareto(1.5, 1, 2)",
    "pareto(alpha=1.5, alpha=2, kappa=1)",
    "pareto(alpha=1.5, 1)",
    "gamma(2)",
    "pareto(alpha=1.5 kappa=1)",
    "exponential(rate=)",
    "shift(exponential(rate=1), 1)",
    "mix(0.5 exponential(rate=1), 0.5: point(0))",
    "pareto(alpha=1.5, kappa=1) trailing",
    "pareto(alpha=1.5, kappa=1",
    "",
    "mix(: exponential(rate=1))",
    "pare to(1, 1)",
    "exponential(rate=1)@",
    "neg()",
    "shift(c=1)",
    "neg(c=1, point(1))",
    "point(1, point(2))",
    "neg(point(1), point(2))",
    "shift(1, 2, point(0))",
    "shift(c=1 point(0))",
    "pareto(1.5, 1,)",
    "neg(point(1),)",
]

INVALID = [
    ("pareto(alpha=0, kappa=1)", "alpha"),
    ("pareto(alpha=1.5, kappa=-1)", "kappa"),
    ("exponential(rate=0)", "rate"),
    ("weibull(shape=-1)", "shape"),
    ("lognormal(mu=0, sigma=0)", "sigma"),
    ("mix(0.5: exponential(rate=1))", "two components"),
    ("mix(0.6: exponential(rate=1), 0.6: point(0))", "sum"),
    ("mix(1.5: exponential(rate=1), -0.5: point(0))", "positive"),
    ("neg(point(-1))", "supported on"),
    ("neg(shift(c=-1, exponential(rate=1)))", "supported on"),
]


def test_corpus_has_fifty_expressions():
    assert len(ROUND_TRIP_CORPUS) == 50
    assert len(set(ROUND_TRIP_CORPUS)) == 50


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_round_trip(text):
    law = parse_spec(text)
    canon = format_spec(law)
    again = parse_spec(canon)
    assert again == law, f"{text!r} -> {canon!r} changed the law"
    assert format_spec(again) == canon


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_input_raises_with_span(text):
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec(text)
    start, end = exc.value.span
    assert 0 <= start <= len(text)
    assert start < end <= len(text) + 1
    assert f"(at {start}:{end})" in str(exc.value)


def test_missing_comma_is_reported_where_it_is_missing():
    text = "pareto(alpha=1.5 kappa=1)"
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec(text)
    assert "expected ')', found 'kappa'" in str(exc.value)
    start, end = exc.value.span
    assert text[start:end] == "kappa"


@pytest.mark.parametrize("text,fragment", INVALID)
def test_semantic_violations_raise(text, fragment):
    with pytest.raises(SpecValidationError, match=fragment):
        parse_spec(text)


def test_semantic_violation_reports_the_offending_node():
    text = "mix(0.5: exponential(rate=1), 0.5: neg(point(-2)))"
    with pytest.raises(SpecValidationError, match="supported on") as exc:
        parse_spec(text)
    start, end = exc.value.span
    assert text[start:end] == "neg(point(-2))"


@pytest.mark.parametrize("text,literal", [
    ("pareto(1e400, 1)", "1e400"),
    ("pareto(alpha=1.5, kappa=-1e309)", "-1e309"),
    ("mix(1e400: point(0), 0.5: point(1))", "1e400"),
], ids=["positional", "named", "mixture-weight"])
def test_a_literal_beyond_the_float_range_is_a_syntax_error(text, literal):
    # float() reads it as infinity, which no constructor may see
    with pytest.raises(SpecSyntaxError, match="out of range") as exc:
        spec_to_model(text)
    start, end = exc.value.span
    assert text[start:end] == literal


def test_defaults_are_resolved_in_canonical_text():
    assert format_spec(parse_spec("weibull(0.5)")) == "weibull(shape=0.5, scale=1)"


def test_format_float_prefers_integers():
    assert format_float(1.0) == "1"
    assert format_float(0.5) == "0.5"
    assert format_float(-3.0) == "-3"


def test_model_records_canonical_text():
    model = spec_to_model("pareto(1.5, 1)")
    assert model.spec_text == "pareto(alpha=1.5, kappa=1)"


def test_parsing_returns_the_validated_law():
    law = Mixture((0.5, 0.5), (Pareto(1.5, 1.0), Neg(Pareto(0.5, 1.0))))
    assert parse_spec(DEFAULT_MODEL) == law
    assert format_spec(law) == DEFAULT_MODEL  # already canonical
    # a hand-built law meets the same constructor checks as parsed text
    with pytest.raises(SpecValidationError):
        Pareto(alpha=-1, kappa=1)


_positive_param = st.floats(min_value=0.01, max_value=100.0,
                            allow_nan=False, allow_infinity=False)

_leaf_text = st.one_of(
    st.builds(lambda a, k: f"pareto(alpha={a!r}, kappa={k!r})",
              _positive_param, _positive_param),
    st.builds(lambda r: f"exponential(rate={r!r})", _positive_param),
    st.builds(lambda s, c: f"weibull(shape={s!r}, scale={c!r})",
              _positive_param, _positive_param),
    st.builds(lambda m, s: f"lognormal(mu={m!r}, sigma={s!r})",
              st.floats(min_value=-5, max_value=5, allow_nan=False),
              _positive_param),
    st.builds(lambda c: f"point(c={c!r})", _positive_param),
)

# positive-support composites so a top-level neg wrap stays valid
_pos_text = st.recursive(
    _leaf_text,
    lambda inner: st.one_of(
        st.tuples(st.floats(min_value=0, max_value=10, allow_nan=False), inner)
        .map(lambda t: f"shift(c={t[0]!r}, {t[1]})"),
        st.tuples(inner, inner)
        .map(lambda t: f"mix(0.5: {t[0]}, 0.5: {t[1]})"),
    ),
    max_leaves=4,
)


@given(_pos_text, st.booleans())
def test_round_trip_property(text, wrap_neg):
    if wrap_neg:
        text = f"mix(0.5: {text}, 0.5: neg(exponential(rate=1)))"
    law = parse_spec(text)
    assert parse_spec(format_spec(law)) == law
