"""Document grammar: parsing, rendering, round-trips, and error locations."""

import functools
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dualquat import DualQuaternion, NonFiniteError, ParseError, Quaternion
from dualquat import documents
from dualquat.documents import (
    BASIS,
    SCALAR,
    VECTOR,
    parse_document,
    render_document,
    render_quaternion,
)
from dualquat.errors import DualQuatError, EmptyVectorError

DATA = Path(__file__).parent / "data"


def parse(text):
    return parse_document(text)


@functools.cache
def _piecewise_scanner(scanner=documents._scanner):
    """The lexer's scanner without its literal alternative, which it tries first."""
    pattern = scanner().pattern
    piecewise = re.compile(pattern[pattern.index("(?P<number>"):])
    assert "literal" not in piecewise.groupindex
    return piecewise


def _parse_piecewise(text):
    """``parse_document`` with every literal read token by token by the parser's own rules."""
    with mock.patch.object(documents, "_scanner", _piecewise_scanner):
        return parse_document(text)


def _literal_tokens(text):
    return sum(token[0] == "literal" for token in documents._tokenize(text))


# -- happy paths ---------------------------------------------------------------

def test_scalar_document():
    doc = parse("dq{ std: 1 + 0i + 0j + 0k, inf: 0 + 1i + 0j + 0k }")
    assert doc.kind == SCALAR
    assert doc.payload == DualQuaternion(Quaternion(1), Quaternion(0, 1, 0, 0))


def test_single_real_shorthand():
    doc = parse("dq{ std: 2.5, inf: -3 }")
    assert doc.payload == DualQuaternion(Quaternion(2.5), Quaternion(-3))


def test_signs_and_exponents():
    doc = parse("dq{ std: -1.5e2 + 0.25i - 3j + 1e-3k, inf: 0 }")
    assert doc.payload.std == Quaternion(-150.0, 0.25, -3.0, 0.001)


def test_vector_document():
    doc = parse("vec[ dq{std: 1+0i+0j+0k, inf: 0}, dq{std: 0+1i+0j+0k, inf: 0} ]")
    assert doc.kind == VECTOR
    assert len(doc.payload) == 2
    assert doc.payload[1].std == Quaternion(0, 1, 0, 0)


def test_basis_document():
    doc = parse("basis[ vec[ dq{std: 1, inf: 0} ], vec[ dq{std: 0+1i+0j+0k, inf: 0} ] ]")
    assert doc.kind == BASIS
    assert len(doc.payload) == 2


def test_whitespace_insensitive():
    flat = parse("dq{std:1,inf:0}")
    spread = parse("dq {\n  std : 1 ,\n  inf : 0\n}")
    assert flat.payload == spread.payload


# -- rendering and round-trips ----------------------------------------------------

def test_render_quaternion_always_four_terms():
    assert render_quaternion(Quaternion(1)) == "1.0 + 0.0i + 0.0j + 0.0k"
    assert render_quaternion(Quaternion(-1, 2, -3, 4)) == "-1.0 + 2.0i - 3.0j + 4.0k"


def _raw_quaternion(w, x, y, z):
    # Stores the components as given, -0.0 included, which every constructor
    # would normalize to +0.0.
    q = object.__new__(Quaternion)
    for name, value in zip("wxyz", (w, x, y, z)):
        getattr(Quaternion, name).__set__(q, value)
    return q


@pytest.mark.parametrize("q,text", [
    (Quaternion(5e-324, -5e-324, 1e16, -1e-05), "5e-324 - 5e-324i + 1e+16j - 1e-05k"),
    (Quaternion(-5e-324, 1e-05, -1e16, 0.1), "-5e-324 + 1e-05i - 1e+16j + 0.1k"),
    (Quaternion(-1.7976931348623157e+308, 0.1, -0.1, 1.7976931348623157e+308),
     "-1.7976931348623157e+308 + 0.1i - 0.1j + 1.7976931348623157e+308k"),
    (Quaternion(-0.0, -0.0, -0.0, -0.0), "0.0 + 0.0i + 0.0j + 0.0k"),
    (_raw_quaternion(1.0, -0.0, -0.0, -0.0), "1.0 + 0.0i + 0.0j + 0.0k"),
])
def test_render_quaternion_canonical_text(q, text):
    assert render_quaternion(q) == text


def test_render_document_canonical_text():
    from dualquat import DQVector
    from dualquat.documents import InputDocument

    a = DualQuaternion(Quaternion(5e-324, -5e-324, 1e16, 1e-05), Quaternion(0.1))
    b = DualQuaternion(Quaternion(-0.0, -0.0, -0.0, -0.0), Quaternion(-1.7976931348623157e+308, 0, 0, 0.1))
    a_text = "dq{ std: 5e-324 - 5e-324i + 1e+16j + 1e-05k, inf: 0.1 + 0.0i + 0.0j + 0.0k }"
    b_text = "dq{ std: 0.0 + 0.0i + 0.0j + 0.0k, inf: -1.7976931348623157e+308 + 0.0i + 0.0j + 0.1k }"
    for doc, text in (
        (InputDocument(SCALAR, a), a_text),
        (InputDocument(VECTOR, DQVector((a, b))), f"vec[ {a_text}, {b_text} ]"),
        (InputDocument(BASIS, (DQVector((b,)), DQVector((a, b)))),
         f"basis[ vec[ {b_text} ], vec[ {a_text}, {b_text} ] ]"),
    ):
        assert render_document(doc) == text
        assert parse(text) == doc
        assert _literal_tokens(text) == text.count("dq")


def test_render_parse_round_trip_examples():
    for text in (
        "dq{ std: 1 + 2i + 2j + 0k, inf: 0 + 0.5i + 0j + 0k }",
        "vec[ dq{std: 3, inf: 0}, dq{std: 0+4i+0j+0k, inf: 0} ]",
        "basis[ vec[ dq{std: 1, inf: 0+1i+0j+0k}, dq{std: 0, inf: 0} ], vec[ dq{std: 0, inf: 0}, dq{std: 1, inf: 0} ] ]",
    ):
        doc = parse(text)
        again = parse(render_document(doc))
        assert again.kind == doc.kind
        assert again.payload == doc.payload


finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(*(finite,) * 8), min_size=1, max_size=5))
def test_render_parse_round_trip_random_vectors(rows):
    entries = tuple(
        DualQuaternion(Quaternion(*row[:4]), Quaternion(*row[4:])) for row in rows
    )
    from dualquat import DQVector
    from dualquat.documents import InputDocument

    doc = InputDocument(VECTOR, DQVector(entries))
    again = parse(render_document(doc))
    assert again.payload == doc.payload  # shortest-roundtrip floats are lossless


def test_round_trip_preserves_negative_component_signs():
    rng = random.Random(101)
    for _ in range(200):
        q = DualQuaternion(
            Quaternion(*(rng.uniform(-1e6, 1e6) for _ in range(4))),
            Quaternion(*(rng.uniform(-1e-6, 1e-6) for _ in range(4))),
        )
        from dualquat.documents import InputDocument

        doc = InputDocument(SCALAR, q)
        assert parse(render_document(doc)).payload == q


# -- rejected inputs -----------------------------------------------------------------

def test_nonfinite_literals_rejected():
    with pytest.raises(NonFiniteError):
        parse("dq{ std: 1e999, inf: 0 }")
    with pytest.raises(NonFiniteError):
        parse("dq{ std: inf, inf: 0 }")
    with pytest.raises(NonFiniteError):
        parse("dq{ std: nan, inf: 0 }")


# The 8 component positions of a literal with four-term parts (w, x, y and z
# of std and of inf), and each part in the single-real form.
_OVERFLOW_POSITIONS = [(part, index) for part in (0, 1) for index in range(4)] + [(0, None), (1, None)]


def _literal_holding(part, index, real):
    """A literal with the signed ``real`` at one position and 1 at every other."""
    quaternions = []
    for p in (0, 1):
        if index is None:
            quaternions.append(real if p == part else "1")
        else:
            terms = [real if (p, i) == (part, index) else "+1" for i in range(4)]
            quaternions.append(f"{terms[0]} {terms[1]}i {terms[2]}j {terms[3]}k")
    return f"dq{{ std: {quaternions[0]}, inf: {quaternions[1]} }}"


_PLACES = ["scalar", "last entry", "second vector"]
_OK = "dq{ std: 1 + 0i + 0j + 0k, inf: 0 }"


def _placed(place, literal):
    return {
        "scalar": literal,
        "last entry": f"vec[ {_OK},\n  {literal} ]",
        "second vector": f"basis[ vec[ {_OK}, {_OK} ],\n  vec[ {_OK}, {literal} ] ]",
    }[place]


@pytest.mark.parametrize("part,index", _OVERFLOW_POSITIONS)
@pytest.mark.parametrize("place", _PLACES)
def test_matcher_declines_an_overflow_in_every_position(place, part, index):
    for sign in ("+", "-"):
        text = _placed(place, _literal_holding(part, index, f"{sign}1e999"))
        # The overflow is inside a literal token, so the literal's value
        # build finds it, not the piecewise rules.
        assert _literal_tokens(text) == text.count("dq")
        offset = text.index("1e999")
        line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        with pytest.raises(NonFiniteError) as err:
            parse_document(text)
        assert str(err.value) == f"literal '1e999' overflows the double range at line {line}, column {column}"
        with pytest.raises(NonFiniteError) as piecewise_err:
            _parse_piecewise(text)
        assert str(piecewise_err.value) == str(err.value)


# Runs of digits, dots and an exponent that the literal pattern admits as a
# number and ``float`` rejects: two dots, or no digit before the exponent.
_NOT_NUMBERS = ["1.2.3", "1..2", ".", "..", ".e5", ".5.", "1.2.e3"]


@pytest.mark.parametrize("run", _NOT_NUMBERS)
@pytest.mark.parametrize("place", _PLACES)
def test_a_run_that_is_no_number_leaves_its_literal_to_the_piecewise_rules(place, run):
    # Whatever follows, the text reads as it does token by token: a lexer error
    # anywhere first, then the first parse error in document order, so neither
    # a later '@' nor a later overflow comes before the run's own error.
    scanner = documents._scanner()
    for part, index in _OVERFLOW_POSITIONS:
        for sign in ("", "+", "-") if index in (0, None) else ("+", "-"):
            literal = _literal_holding(part, index, sign + run)
            for later in ("", " @", " dq{ std: 1e999, inf: 0 } 1e999", ",\n 1e999 @"):
                text = _placed(place, literal) + later
                assert _outcome(parse_document, text) == _outcome(_parse_piecewise, text), text
                start = text.index(literal)
                m = scanner.match(text, start)
                assert m.lastgroup == "literal" and m.end() == start + len(literal), text
                with pytest.raises(ValueError):
                    documents._literal_value(m)
                try:
                    tokens = documents._tokenize(text)
                except ParseError:
                    continue  # a lexer error, which the outcomes above agree on
                assert ("ident", "dq", start) in tokens, text


def test_partial_quaternions_rejected():
    with pytest.raises(ParseError) as err:
        parse("dq{ std: 1 + 2i, inf: 0 }")
    assert "j term" in str(err.value)


def test_empty_vector_rejected():
    with pytest.raises(EmptyVectorError):
        parse("vec[ ]")
    with pytest.raises(EmptyVectorError):
        parse("basis[ ]")


def test_error_locations():
    cases = [
        ("dq{ std: , inf: 0 }", 1, 10),
        ("dq[ std: 1, inf: 0 ]", 1, 3),
        ("vec[ dq{std: 1, inf: 0}, ]", 1, 26),
    ]
    for text, line, column in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line
        assert err.value.column == column


def test_multiline_error_location():
    text = "vec[\n  dq{std: 1, inf: 0},\n  dq{std: ?, inf: 0}\n]"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 3
    assert err.value.column == 11


# Every raise site in ``documents``, each on line 3 after CRLF line ends and
# tabs: a tab, a CR and every other character count one column.
_VEC_PREFIX = "vec[\r\n\tdq{ std: 1, inf: 0 },\r\n\t"

RAISE_SITES = [
    # the lexer
    (_VEC_PREFIX + "\fdq{ std: 1, inf: 0 } ]", ParseError, "unexpected character '\\x0c'", 3, 2),
    (_VEC_PREFIX + "\vdq{ std: 1, inf: 0 } ]", ParseError, "unexpected character '\\x0b'", 3, 2),
    (_VEC_PREFIX + "dq{ std: 1\x00, inf: 0 } ]", ParseError, "unexpected character '\\x00'", 3, 12),
    (_VEC_PREFIX + "dq{ std: é, inf: 0 } ]", ParseError, "unexpected character 'é'", 3, 11),
    (_VEC_PREFIX + "\tdq{ std: 1 @ 2i, inf: 0 } ]", ParseError, "unexpected character '@'", 3, 14),
    # _Parser._fail
    (_VEC_PREFIX + "dq{ std: , inf: 0 } ]", ParseError, "expected a number, got ','", 3, 11),
    (_VEC_PREFIX + "dq{ std: 1 + 2i, inf: 0 } ]", ParseError,
     "expected '+' or '-' before the j term, got ','", 3, 17),
    (_VEC_PREFIX + "dq{ std: 1 + 2j + 0j + 0k, inf: 0 } ]", ParseError, "expected unit 'i', got 'j'", 3, 16),
    (_VEC_PREFIX + "dq{ std: 2i, inf: 0 } ]", ParseError,
     "a quaternion literal is a single real or spells out all of the i, j, k terms, got 'i'", 3, 12),
    ("dq{\r\n\tstd: 1,\r\n\t inf 0 }", ParseError, "expected ':', got '0'", 3, 7),
    ("\r\n\r\n\tmatrix[ ]", ParseError, "expected 'dq', 'vec', or 'basis', got 'matrix'", 3, 2),
    ("dq{ std: 1,\r\n\tinf: 0 }\r\n\t  x", ParseError, "unexpected trailing input, got 'x'", 3, 4),
    # the end-of-input token, after a trailing newline
    ("vec[\r\n\tdq{ std: 1, inf: 0 }\r\n", ParseError, "expected ']', got end of input", 3, 1),
    # the non-finite word and the overflow
    (_VEC_PREFIX + "dq{ std: 1, inf: -Infinity } ]", NonFiniteError,
     "non-finite literal 'Infinity' at line 3, column 20", 3, 20),
    (_VEC_PREFIX + "dq{ std: 1 + 1e999i + 0j + 0k, inf: 0 } ]", NonFiniteError,
     "literal '1e999' overflows the double range at line 3, column 15", 3, 15),
    # the empty vector and the empty basis
    ("basis[\r\n\tvec[ dq{ std: 1, inf: 0 } ],\r\n\tvec[\t]\r\n]", EmptyVectorError,
     "empty vector at line 3, column 5", 3, 5),
    ("\r\n\t\r\n\tbasis[ ]", EmptyVectorError, "empty basis at line 3, column 7", 3, 7),
    # decimal digits other than ASCII 0-9: an Arabic-Indic three, and a
    # full-width seven after an ASCII one
    (_VEC_PREFIX + "dq{ std: \u0663, inf: 0 } ]", ParseError, "unexpected character '\u0663'", 3, 11),
    (_VEC_PREFIX + "dq{ std: 1, inf: 7\uff17 } ]", ParseError, "unexpected character '\uff17'", 3, 20),
    # a literal token where another token is expected is reported as its
    # leading 'dq', at the literal's start
    (_VEC_PREFIX + "dq{ std: 1, inf: 0 } dq{ std: 1, inf: 0 } ]", ParseError, "expected ']', got 'dq'", 3, 23),
    (_VEC_PREFIX + "dq{ std: dq{ std: 1, inf: 0 }, inf: 0 } ]", ParseError, "expected a number, got 'dq'", 3, 11),
    ("basis[\r\n\tvec[ dq{ std: 1, inf: 0 } ],\r\n\tdq{ std: 1, inf: 0 } ]", ParseError,
     "expected 'vec', got 'dq'", 3, 2),
    # of several overflows in one literal, the first in w, x, y, z order,
    # standard part first
    (_VEC_PREFIX + "dq{ std: 1 - 2e999i + 0j + 3e999k, inf: 4e999 } ]", NonFiniteError,
     "literal '2e999' overflows the double range at line 3, column 15", 3, 15),
]


@pytest.mark.parametrize(
    "text,error,message,line,column",
    RAISE_SITES,
    ids=[f"{error.__name__}-{index}" for index, (_, error, *_) in enumerate(RAISE_SITES)],
)
def test_every_raise_site_reports_its_position(text, error, message, line, column):
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    if error is ParseError:
        assert str(err.value) == f"line {line}, column {column}: {message}"
        assert (err.value.line, err.value.column) == (line, column)
    else:
        assert str(err.value) == message
        assert message.endswith(f"line {line}, column {column}")


def _naive_position(text, offset):
    line, column = 1, 1
    for ch in text[:offset]:
        if ch == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    return line, column


_number_tokens = st.floats(allow_nan=False, allow_infinity=False, min_value=0.0).map(repr)


@st.composite
def _quaternion_tokens(draw):
    if draw(st.booleans()):
        return [draw(_number_tokens)]
    tokens = [draw(_number_tokens)]
    for unit in "ijk":
        tokens += [draw(st.sampled_from("+-")), draw(_number_tokens), unit]
    return tokens


@st.composite
def _dq_tokens(draw, quaternions=_quaternion_tokens()):
    return [
        "dq", "{", "std", ":", *draw(quaternions), ",",
        "inf", ":", *draw(quaternions), "}",
    ]


def _listed(head, items):
    tokens = [head, "["]
    for index, item in enumerate(items):
        tokens += ([","] if index else []) + item
    return tokens + ["]"]


def _documents_of(dq_tokens):
    vec_tokens = st.lists(dq_tokens, min_size=1, max_size=3).map(lambda dqs: _listed("vec", dqs))
    return st.one_of(
        dq_tokens,
        vec_tokens,
        st.lists(vec_tokens, min_size=1, max_size=3).map(lambda vecs: _listed("basis", vecs)),
    )


_document_tokens = _documents_of(_dq_tokens())
_whitespace_runs = st.text(alphabet=" \t\r\n", max_size=4)


@given(_document_tokens, st.data())
def test_unexpected_character_position_is_a_naive_character_count(tokens, data):
    text, boundaries = "", []
    for token in tokens:
        text += data.draw(_whitespace_runs)
        boundaries.append(len(text))
        text += token
        boundaries.append(len(text))
    text += data.draw(_whitespace_runs)
    boundaries.append(len(text))
    offset = data.draw(st.sampled_from(boundaries))
    spliced = text[:offset] + "?" + text[offset:]
    with pytest.raises(ParseError) as err:
        parse(spliced)
    line, column = _naive_position(spliced, offset)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: unexpected character '?'"


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("dq{std: 1, inf: 0} dq{std: 1, inf: 0}")


def test_unknown_head_rejected():
    with pytest.raises(ParseError):
        parse("matrix[ dq{std: 1, inf: 0} ]")


# -- literal tokens against the piecewise tokens --------------------------------

_real_texts = st.one_of(
    st.from_regex(r"(?:[0-9]{1,3}(?:\.[0-9]{0,3})?|\.[0-9]{1,3})(?:[eE][+-]?[0-9]{1,2})?", fullmatch=True),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "00", "5e-324", "2e-324", "1.7976931348623157e308", "1.7976931348623158e308"]),
)


@st.composite
def _signed_quaternion_tokens(draw):
    # The empty sign joins its whitespace run to the one before it.
    tokens = [draw(st.sampled_from(["", "+", "-"])), draw(_real_texts)]
    if draw(st.booleans()):
        return tokens
    for unit in "ijk":
        tokens += [draw(st.sampled_from("+-")), draw(_real_texts), unit]
    return tokens


_signed_document_tokens = _documents_of(_dq_tokens(_signed_quaternion_tokens()))
_edit_tokens = st.sampled_from([
    "dq", "vec", "basis", "std", "inf", "{", "}", "[", "]", ",", ":", "+", "-",
    "i", "j", "k", "e", "0", ".5", "1.8e308", "1e999", "1.2.3", "..", "Infinity", "x", "@", "é", "\f", "\v", "\xa0",
])


def _spaced(tokens, gaps):
    return "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[len(tokens)]


def _outcome(read, text):
    try:
        return repr(read(text))
    except DualQuatError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@settings(max_examples=50, deadline=None)
@given(_signed_document_tokens, st.data())
def test_parse_document_reads_every_text_as_the_token_parser_does(tokens, data):
    # The text itself, every one-token deletion, insertion and replacement,
    # each list under the other head, the text twice with a comma between,
    # and 1-4 random edits, each spaced by the same whitespace runs.
    n = len(tokens)
    gaps = data.draw(st.lists(_whitespace_runs, min_size=2 * n + 2, max_size=2 * n + 2))
    inserts = data.draw(st.lists(_edit_tokens, min_size=n + 1, max_size=n + 1))
    edited = list(tokens)
    for _ in range(data.draw(st.integers(1, 4))):
        index = data.draw(st.integers(0, len(edited)))
        removed = data.draw(st.integers(0, 1))
        edited[index:index + removed] = data.draw(st.lists(_edit_tokens, max_size=1))
    variants = [tokens, edited, [*tokens, ",", *tokens]]
    variants += [tokens[:i] + tokens[i + 1:] for i in range(n)]
    variants += [tokens[:i] + [inserts[i]] + tokens[i:] for i in range(n + 1)]
    variants += [tokens[:i] + [inserts[i]] + tokens[i + 1:] for i in range(n)]
    swapped = {"vec": "basis", "basis": "vec"}
    variants += [tokens[:i] + [swapped[t]] + tokens[i + 1:] for i, t in enumerate(tokens) if t in swapped]
    for variant in variants:
        text = _spaced(variant, gaps)
        assert _outcome(parse_document, text) == _outcome(_parse_piecewise, text)
    # Every literal of the unedited texts is read as one token.
    for variant in variants[0], variants[2]:
        assert _literal_tokens(_spaced(variant, gaps)) == variant.count("dq")


def test_literal_matcher_reads_every_well_formed_data_file():
    for path in sorted(DATA.glob("*.dq")):
        text = path.read_text(encoding="utf-8")
        assert _outcome(parse_document, text) == _outcome(_parse_piecewise, text), path.name
        if path.name != "broken.dq":
            assert _literal_tokens(text) == text.count("dq") > 0, path.name
