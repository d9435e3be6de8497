import importlib
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewdd import cli, textio
from skewdd.domains import get_domain
from skewdd.series import TruncatedSeries
from skewdd.textio import (format_field_elem, parse_field_elem, parse_series,
                           parse_terms)

from reference import reference_parse_series

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402


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


# ------------------------------ one-pass series reader vs. split-then-match
# whole terms, the parts they are made of, and stray characters; the
# valid forms are listed twice, so that about one text in five is
# accepted over a quadratic domain (one in ten over int, which refuses w)
SERIES_TERMS = 2 * ["2", "1/2", "7/10", "w", "2*w", "3w", "(1+1*w)",
                    "(-3/4+5/6*w)", "(2)", "0", "x", "*x", "x^3", "x^-2",
                    "x^0", "2*x^3", "-1/2*x", "(1-w)*x^2", "3x^1",
                    "(2)x^-1", "w*x"] \
    + ["()", "((1))", "2**x", "O(x)", "O(x^4)", "O(x^-1)", "O(x^0)",
       "O(x5)", "O(x^)", "O(3)"]
SERIES_STRAYS = ["+", "-", "(", ")", "^", "x", "*", "/", "w", "O(", " ",
                 "\n", "0", "7", "^-", "x^", "1.5", "\u0663", "\t"]


@st.composite
def series_texts(draw):
    """Signed terms, each sign kept, dropped or doubled, then up to three
    stray characters inserted, characters dropped or doubled."""
    signs = 6 * ["+", "-"] + ["", "--", "+-", "-+"]
    text = "".join(draw(st.sampled_from(signs))
                   + draw(st.sampled_from(SERIES_TERMS))
                   for _ in range(draw(st.integers(0, 6))))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2, 3]))):
        k = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "drop", "double"]))
        if edit == "insert":
            text = text[:k] + draw(st.sampled_from(SERIES_STRAYS)) + text[k:]
        elif edit == "drop":
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k + 1] + text[k:]
    return text


def _series_outcome(parse, dom, text):
    try:
        f = parse(dom, text)
    except ValueError:
        return ValueError
    return f, f.known_to


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=series_texts())
def test_one_pass_series_reader_agrees_with_the_reference(any_domain, text):
    """On any text, the same series with the same known_to, or ValueError
    from both."""
    assert (_series_outcome(parse_series, any_domain, text)
            == _series_outcome(reference_parse_series, any_domain, text))


@pytest.mark.parametrize("seed", [1, 2])
def test_series_reader_agrees_on_the_benchmark_generators(seed):
    for index in range(40):
        job = gen.make_job("extend-window", seed, index)
        dom = get_domain(textio.parse_domain(job.domain))
        for text in json.loads(job.args[job.args.index("--gens") + 1]):
            got = parse_series(dom, text)
            assert (got, got.known_to) \
                == _series_outcome(reference_parse_series, dom, text)


HOSTILE_LENGTH = 200_000
HOSTILE_SECONDS = 2.0
HOSTILE_TEXTS = {
    "w run": "w" * HOSTILE_LENGTH,
    "x run": "x" * HOSTILE_LENGTH,
    "digit run": "7" * HOSTILE_LENGTH,
    "( run": "(" * HOSTILE_LENGTH,
    "^ run": "^" * HOSTILE_LENGTH,
    "(1+ run": "(1+" * (HOSTILE_LENGTH // 3),
    "+1 terms": "+1" * (HOSTILE_LENGTH // 2),
    "(1)*x^i terms": "+".join(f"(1)*x^{i}" for i in range(20_000)),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_TEXTS))
def test_hostile_series_text_is_read_within_a_budget(z5, name):
    """About 200,000 characters each: refused with ValueError or read,
    either within the budget, so no term pattern backtracks without
    bound."""
    text = HOSTILE_TEXTS[name]
    start = time.perf_counter()
    try:
        got = parse_series(z5, text)
    except ValueError:
        got = None
    assert time.perf_counter() - start < HOSTILE_SECONDS
    if name == "+1 terms":
        assert got == TruncatedSeries.const(z5, z5.felem(HOSTILE_LENGTH // 2))
    elif name == "(1)*x^i terms":
        assert got == TruncatedSeries(z5, 0, [z5.fone] * 20_000)
    else:
        assert got is None


@pytest.mark.parametrize("name", ["( run", "x run", "w run", "digit run",
                                  "^ run", "(1+ run"])
def test_hostile_series_text_exits_2_with_one_line(name, capsys):
    """A refusal quotes at most textio.QUOTE_CHARS characters of its
    input, with the input's length: one short line, not an echo of
    200,000 characters."""
    code = cli.main(["extend", "--domain", "int", "--gens",
                     json.dumps([HOSTILE_TEXTS[name]]), "--prec", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200, err


def test_quote_input_clips_only_long_inputs():
    for short in ("", "1+w", "w" * 58, {"hnf": [2, 0, 1]}, [1, 2], 1.5):
        assert textio.quote_input(short) == repr(short)
    long_text = "w" * HOSTILE_LENGTH
    assert textio.quote_input(long_text) == (
        "'" + "w" * 59 + f"... ({HOSTILE_LENGTH} characters)")
    big = {"coeffs": ["1"] * 1000}
    assert textio.quote_input(big) == (
        repr(big)[:60] + f"... ({len(repr(big))} characters)")
    with pytest.raises(ValueError) as err:
        parse_series(get_domain(textio.parse_domain("int")), long_text)
    assert str(err.value) == ("cannot parse element "
                              + textio.quote_input(long_text))


DOCS = Path(__file__).resolve().parent.parent / "docs"


def schema_section(schema):
    return (DOCS / "schemas.md").read_text().split(f"## {schema}\n")[1]


@pytest.mark.parametrize("schema", sorted(textio.CERTIFICATES))
def test_schema_field_table_lists_the_declared_keys(schema):
    """docs/schemas.md's field table for each schema names exactly the
    keys its declaration reads: "schema" and each declared field."""
    section = schema_section(schema)
    # the first table of the section, up to the blank line that ends it
    table = section[section.index("\n|"):].split("\n\n")[0]
    documented = [line.split("`")[1] for line in table.splitlines()
                  if line.startswith("| `")]
    assert documented == ["schema", *textio.CERTIFICATES[schema].KINDS]


# a seed-0 benchmark job that writes a valid certificate of each schema
VALID_JOB = {"extension-cert/v1": ("extend-window", 1),
             "completion-cert/v1": ("complete-p8", 2)}


@pytest.mark.parametrize("schema", sorted(textio.CERTIFICATES))
def test_schema_lists_the_verify_lines(tmp_path, schema):
    """docs/schemas.md's numbered list for each schema names the lines of
    a valid certificate's verify report, in order."""
    section = schema_section(schema)
    # the list after "`verify` prints one line per check ...:", up to
    # the blank line that ends it
    listed = section.split("`verify` prints one line per check")[1]
    listed = listed.split(":\n\n", 1)[1].split("\n\n")[0]
    documented = [line.split("`")[1] for line in listed.splitlines()]
    workload, index = VALID_JOB[schema]
    res = run.run_job(cli.main, gen.make_job(workload, 0, index), tmp_path)
    assert res.ok, res.detail
    cert = textio.certificate_from_json(json.loads(res.data))
    assert cert.SCHEMA == schema
    engine, _, name = cert.VERIFIER.partition(".")
    report = getattr(importlib.import_module(f"skewdd.{engine}"), name)(cert)
    assert report.ok
    assert documented == [check["name"] for check in report.checks]
