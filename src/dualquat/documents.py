"""Textual input documents for the command line tool.

Three document kinds exist, one per payload shape::

    dq{ std: 1 + 0i + 0j + 0k, inf: 0 + 1i + 0j + 0k }
    vec[ dq{ ... }, dq{ ... } ]
    basis[ vec[ ... ], vec[ ... ] ]

A quaternion literal is either a single real or the full four-term form
``a + bi + cj + dk`` with an explicit sign before each of the i, j, k
terms.  Reals are plain decimals in ASCII digits with an optional exponent;
``inf``, ``nan``, and literals that overflow the double range are rejected.
Whitespace between tokens is any run of space, tab, CR and LF, and no
other character.  Any other character that starts no token, form feed,
vertical tab, NUL and non-ASCII digits among them, is rejected with its
line and column.  A line ends at LF, and every other character, tab
included, is one column.

A document is read by one lexer and one parser.  The lexer reads each
dual-quaternion literal whose value it can build as one token, where
``float`` is the check of each number; the parser defines the grammar and
reports every error, an overflow inside a literal included.

``parse_document`` and ``render_document`` round-trip: rendering uses
shortest round-trip decimals, so parsing the rendered text reproduces the
payload exactly.
"""

from __future__ import annotations

import functools
import math
import re

from ._common import Value
from .dualquaternion import DualQuaternion, _dual_quaternion
from .errors import EmptyVectorError, NonFiniteError, ParseError
from .quaternion import Quaternion, _quaternion
from .vectors import DQVector

__all__ = [
    "SCALAR",
    "VECTOR",
    "BASIS",
    "InputDocument",
    "parse_document",
    "render_document",
    "render_quaternion",
]

SCALAR = "scalar"
VECTOR = "vector"
BASIS = "basis"


class InputDocument(Value):
    __slots__ = ("kind", "payload")

    def __init__(self, kind: str, payload: DualQuaternion | DQVector | tuple[DQVector, ...]):
        object.__setattr__(self, "kind", kind)  # SCALAR, VECTOR, or BASIS
        object.__setattr__(self, "payload", payload)


# -- lexer ----------------------------------------------------------------

# The alternatives are tried in order: a whole ``dq{ std: Q, inf: Q }``
# literal, number, identifier, punctuation, and last any other character but
# whitespace, which the lexer rejects.  So only space, tab, CR and LF match
# nothing, and ``finditer`` skips exactly those.  Inside the literal each
# number is a _RUN of digits and dots with an optional exponent, which sre
# matches as one repeated character class, where _NUMBER takes it through
# nested groups.
# Every _NUMBER text is a run, and over these characters ``float`` accepts a
# run exactly when it is a _NUMBER, so the literal's value build is its number
# check.  A literal token whose runs ``float`` all accepts covers exactly the
# tokens that the other alternatives would give for its text: it starts where
# a token would, and each number, unit or keyword in it is followed by
# whitespace or by a sign, unit or punctuation mark, none of which can extend
# it.  Those tokens are what the parser's piecewise rules accept after "dq",
# so the parser stays the one definition of the grammar and of every error.
# A match whose value cannot be built, as it holds a run that ``float``
# rejects or a number that overflows, is no literal token: the lexer gives its
# "dq" as an identifier and scans on after it with the same pattern, which
# yields the tokens the other alternatives give for the rest.
_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_RUN = r"[0-9.]+(?:[eE][+-]?[0-9]+)?"
_WS = "[ \t\r\n]*"
_NON_FINITE_WORDS = frozenset({"inf", "infinity", "nan"})


@functools.cache
def _scanner() -> re.Pattern:
    """The lexer's one pattern, compiled on first use, not at import."""
    term = rf"{_WS}([+-]){_WS}({_RUN}){_WS}"
    quaternion = rf"{_WS}(?:([+-]){_WS})?({_RUN})(?:{term}i{term}j{term}k)?{_WS}"
    literal = rf"dq{_WS}\{{{_WS}std{_WS}:{quaternion},{_WS}inf{_WS}:{quaternion}\}}"
    return re.compile(
        rf"(?P<literal>{literal})|(?P<number>{_NUMBER})|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
        r"|(?P<punct>[{}\[\]:,+-])|(?P<bad>[^ \t\r\n])"
    )


# A token is (kind, text, offset) with kind "number", "ident", "punct" or
# "end", or ("literal", "dq", offset, value).  The end token has empty text
# and offset len(text).
_Tok = tuple[str, str, int] | tuple[str, str, int, DualQuaternion]


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; every character but LF is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _literal_value(m: re.Match) -> DualQuaternion:
    """The value of a literal match, built by the trusted constructors, or ``ValueError``.

    Groups 2-17 of the match are the sign and number of w, x, y and z of
    each part in turn; an absent group reads as "".  ``float`` is the check
    of each number: it raises ``ValueError`` on a run that is not a number,
    which has two dots or no digit, and only there, since the signs are
    "", "+" or "-".  ``_quaternion`` raises ``NonFiniteError``, a
    ``ValueError``, on a number that overflows.  A single real's absent
    terms read as "0", and ``float("-" + number)`` is ``-float(number)``, the
    piecewise value, since decimal conversion rounds correctly and so
    symmetrically.
    """
    g = m.groups("")
    std = float(g[1] + g[2]), float(g[3] + g[4] or "0"), float(g[5] + g[6] or "0"), float(g[7] + g[8] or "0")
    inf = float(g[9] + g[10]), float(g[11] + g[12] or "0"), float(g[13] + g[14] or "0"), float(g[15] + g[16] or "0")
    return _dual_quaternion(_quaternion(*std), _quaternion(*inf))


def _tokenize(text: str) -> list[_Tok]:
    tokens = []
    resume = 0
    while resume is not None:
        matches, resume = _scanner().finditer(text, resume), None
        for m in matches:
            kind = m.lastgroup
            if kind == "literal":
                try:
                    tokens.append((kind, "dq", m.start(), _literal_value(m)))
                except ValueError:  # no number or an overflow: the text after "dq" is read on piecewise
                    tokens.append(("ident", "dq", m.start()))
                    resume = m.start() + 2
                    break
            elif kind == "bad":
                raise ParseError(f"unexpected character {m[0]!r}", *_position(text, m.start()))
            else:
                tokens.append((kind, m[0], m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# -- parser ---------------------------------------------------------------

_SIGNS = ("+", "-")


class _Parser:
    # A literal token's text is its leading "dq"; apart from that no two
    # kinds share a token text, and only the end token's is empty.  So
    # comparing texts is enough wherever a punctuation mark or a word is
    # expected.  The parser steps past a token only once it has accepted it.

    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._pos = 0

    def _where(self, offset: int) -> str:
        line, column = _position(self._text, offset)
        return f"line {line}, column {column}"

    def _fail(self, message: str, token: _Tok):
        got = "end of input" if token[0] == "end" else repr(token[1])
        raise ParseError(f"{message}, got {got}", *_position(self._text, token[2]))

    def _expect(self, text: str, message: str = "") -> _Tok:
        token = self._tokens[self._pos]
        if token[1] != text:
            self._fail(message or f"expected {text!r}", token)
        self._pos += 1
        return token

    def _unsigned_real(self) -> float:
        token = self._tokens[self._pos]
        kind, text = token[0], token[1]
        if kind == "ident" and text.lower() in _NON_FINITE_WORDS:
            raise NonFiniteError(f"non-finite literal {text!r} at {self._where(token[2])}")
        if kind != "number":
            self._fail("expected a number", token)
        value = float(text)
        if not math.isfinite(value):
            raise NonFiniteError(f"literal {text!r} overflows the double range at {self._where(token[2])}")
        self._pos += 1
        return value

    def _signed_real(self) -> float:
        sign = self._tokens[self._pos][1]
        if sign in _SIGNS:
            self._pos += 1
            if sign == "-":
                return -self._unsigned_real()
        return self._unsigned_real()

    def _quaternion(self) -> Quaternion:
        w = self._signed_real()
        token = self._tokens[self._pos]
        if token[1] in _SIGNS:
            coefficients: list[float] = []
            for unit in ("i", "j", "k"):
                sign = self._tokens[self._pos]
                if sign[1] not in _SIGNS:
                    self._fail(f"expected '+' or '-' before the {unit} term", sign)
                self._pos += 1
                value = self._unsigned_real()
                self._expect(unit, f"expected unit {unit!r}")
                coefficients.append(-value if sign[1] == "-" else value)
            return Quaternion(w, *coefficients)
        if token[1] in ("i", "j", "k"):
            self._fail(
                "a quaternion literal is a single real or spells out "
                "all of the i, j, k terms",
                token,
            )
        return Quaternion(w)

    def _dual_quaternion(self) -> DualQuaternion:
        token = self._tokens[self._pos]
        if token[0] == "literal":
            self._pos += 1
            return token[3]
        self._expect("dq")
        self._expect("{")
        self._expect("std")
        self._expect(":")
        std = self._quaternion()
        self._expect(",")
        self._expect("inf")
        self._expect(":")
        inf = self._quaternion()
        self._expect("}")
        return DualQuaternion(std, inf)

    def _items(self, head: str, noun: str, read) -> tuple:
        """The items of a non-empty ``head[ item, ... ]`` list, each read by ``read``."""
        self._expect(head)
        opener = self._expect("[")
        if self._tokens[self._pos][1] == "]":
            raise EmptyVectorError(f"empty {noun} at {self._where(opener[2])}")
        items = [read()]
        while self._tokens[self._pos][1] == ",":
            self._pos += 1
            items.append(read())
        self._expect("]")
        return tuple(items)

    def _vector(self) -> DQVector:
        return DQVector(self._items("vec", "vector", self._dual_quaternion))

    def document(self) -> InputDocument:
        head = self._tokens[self._pos][1]
        if head == "dq":
            doc = InputDocument(SCALAR, self._dual_quaternion())
        elif head == "vec":
            doc = InputDocument(VECTOR, self._vector())
        elif head == "basis":
            doc = InputDocument(BASIS, self._items("basis", "basis", self._vector))
        else:
            self._fail("expected 'dq', 'vec', or 'basis'", self._tokens[self._pos])
        trailing = self._tokens[self._pos]
        if trailing[0] != "end":
            self._fail("unexpected trailing input", trailing)
        return doc


def parse_document(text: str) -> InputDocument:
    """Parse one document.  Raises ParseError with the failing position."""
    return _Parser(text).document()


# -- renderer ---------------------------------------------------------------

def render_quaternion(q: Quaternion) -> str:
    """Canonical four-term form with shortest round-trip decimals."""
    return (
        f"{q.w!r} {'-' if q.x < 0.0 else '+'} {abs(q.x)!r}i "
        f"{'-' if q.y < 0.0 else '+'} {abs(q.y)!r}j {'-' if q.z < 0.0 else '+'} {abs(q.z)!r}k"
    )


def _render_scalar(value: DualQuaternion) -> str:
    return (
        f"dq{{ std: {render_quaternion(value.std)}, "
        f"inf: {render_quaternion(value.inf)} }}"
    )


def _render_vector(value: DQVector) -> str:
    return "vec[ " + ", ".join([_render_scalar(e) for e in value.entries]) + " ]"


def render_document(doc: InputDocument) -> str:
    """Canonical text for a document; parsing it reproduces the payload."""
    if doc.kind == SCALAR:
        return _render_scalar(doc.payload)
    if doc.kind == VECTOR:
        return _render_vector(doc.payload)
    if doc.kind == BASIS:
        return "basis[ " + ", ".join([_render_vector(v) for v in doc.payload]) + " ]"
    raise ValueError(f"unknown document kind {doc.kind!r}")
