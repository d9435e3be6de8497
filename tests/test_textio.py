import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewdd import textio
from skewdd.textio import (format_field_elem, parse_field_elem, parse_series,
                           parse_terms)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_element_round_trip(any_domain, data, monkeypatch):
    """Written text reads back in one match: the term loop never runs."""
    dom = any_domain
    part = st.integers(-10**6, 10**6)
    e = data.draw(st.builds(
        dom.felem, part, part if dom.is_quad else st.just(0),
        st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12, 35, 10**9 + 7])))

    def no_loop(dom, text):
        raise AssertionError(f"{text!r} went to the term loop")

    with monkeypatch.context() as m:
        m.setattr(textio, "parse_terms", no_loop)
        assert parse_field_elem(dom, format_field_elem(e)) == e


def _outcome(parse, dom, text):
    try:
        return parse(dom, text)
    except ValueError as err:
        return str(err)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text(alphabet="0123456789+-/*w \u0663", max_size=12))
def test_one_match_agrees_with_the_term_loop(any_domain, text):
    """On any text, the same element or the same refusal as the loop."""
    assert (_outcome(parse_field_elem, any_domain, text)
            == _outcome(parse_terms, any_domain, text))


@pytest.mark.parametrize("a, b, den, text", [
    (-9, 10, 12, "-3/4+5/6*w"),
    (0, 1, 1, "1*w"),
    (0, -1, 1, "-1*w"),
    (0, 0, 1, "0"),
    (1, 0, 2, "1/2"),
    (-5, 0, 1, "-5"),
    (7, -2, 1, "7-2*w"),
    (3, -1, 6, "1/2-1/6*w"),
])
def test_canonical_format(z5, a, b, den, text):
    e = z5.felem(a, b, den)
    assert format_field_elem(e) == text
    assert parse_field_elem(z5, text) == e


@pytest.mark.parametrize("text, canonical", [
    ("2+3+1*w-w", "5"),
    ("w", "1*w"),
    ("-w", "-1*w"),
    ("1w", "1*w"),
    ("1/2w", "1/2*w"),
    ("007/010", "7/10"),
    (" 1 / 2 + w ", "1/2+1*w"),
    ("-0/5", "0"),
    ("2/4-6/4*w", "1/2-3/2*w"),
    ("1/2+1/3+1/6", "1"),
    ("-37/12+5/4*w", "-37/12+5/4*w"),
])
def test_accepted_forms(z5, text, canonical):
    assert format_field_elem(parse_field_elem(z5, text)) == canonical


@pytest.mark.parametrize("text", [
    "1.5", "2.0", "1e3", "1e-3", "1_000", "٣", "2**w",
    "", "+", "2+", "--2", "/3", "1/2/3", "(1)", "x", "3/-4", "1/0"])
def test_refused_literals(z5, text):
    with pytest.raises(ValueError):
        parse_field_elem(z5, text)


def test_w_outside_the_integers_is_refused(zz):
    with pytest.raises(ValueError, match="integer domain"):
        parse_field_elem(zz, "1+w")
    assert parse_field_elem(zz, "1+w-w") == zz.fone


@pytest.mark.parametrize("text, known_to", [
    ("2+O(x)", 1), ("2+O(x^1)", 1), ("2+O(x^5)", 5), ("1*x^-3+O(x^-2)", -2)])
def test_o_term_reads_like_a_power_of_x(zz, text, known_to):
    assert parse_series(zz, text).known_to == known_to


@pytest.mark.parametrize("text", ["2+O(x5)", "2+O(x^)", "2+O(x^+5)",
                                  "2+O(5)", "2+3*x5"])
def test_o_term_and_power_spellings_are_refused(zz, text):
    with pytest.raises(ValueError):
        parse_series(zz, text)
