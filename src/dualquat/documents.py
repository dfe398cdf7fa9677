"""Textual input documents for the command line tool.

Three document kinds exist, one per payload shape::

    dq{ std: 1 + 0i + 0j + 0k, inf: 0 + 1i + 0j + 0k }
    vec[ dq{ ... }, dq{ ... } ]
    basis[ vec[ ... ], vec[ ... ] ]

A quaternion literal is either a single real or the full four-term form
``a + bi + cj + dk`` with an explicit sign before each of the i, j, k
terms.  Reals are plain decimals with an optional exponent; ``inf``,
``nan``, and literals that overflow the double range are rejected.
Whitespace is free between tokens.

``parse_document`` and ``render_document`` round-trip: rendering uses
shortest round-trip decimals, so parsing the rendered text reproduces the
payload exactly.
"""

from __future__ import annotations

import math
import re

from ._common import Value
from .dualquaternion import DualQuaternion
from .errors import EmptyVectorError, NonFiniteError, ParseError
from .quaternion import Quaternion
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

class _Token(Value):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        object.__setattr__(self, "kind", kind)  # "ident", "number", "punct", "end"
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)


_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PUNCT = "{}[]:,+-"
_NON_FINITE_WORDS = frozenset({"inf", "infinity", "nan"})


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, line, column = 0, 1, 1
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch == "\n":
            line += 1
            column = 1
            pos += 1
            continue
        if ch in " \t\r":
            column += 1
            pos += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, column))
            column += 1
            pos += 1
            continue
        match = _NUMBER.match(text, pos)
        if match is not None:
            tokens.append(_Token("number", match.group(), line, column))
            column += match.end() - pos
            pos = match.end()
            continue
        match = _IDENT.match(text, pos)
        if match is not None:
            tokens.append(_Token("ident", match.group(), line, column))
            column += match.end() - pos
            pos = match.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


# -- parser ---------------------------------------------------------------

def _describe(token: _Token) -> str:
    if token.kind == "end":
        return "end of input"
    return repr(token.text)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "end":
            self._pos += 1
        return token

    def _fail(self, message: str, token: _Token):
        raise ParseError(f"{message}, got {_describe(token)}", token.line, token.column)

    def _expect_punct(self, ch: str) -> _Token:
        token = self._advance()
        if token.kind != "punct" or token.text != ch:
            self._fail(f"expected {ch!r}", token)
        return token

    def _expect_ident(self, name: str) -> _Token:
        token = self._advance()
        if token.kind != "ident" or token.text != name:
            self._fail(f"expected {name!r}", token)
        return token

    def _unsigned_real(self) -> float:
        token = self._advance()
        if token.kind == "ident" and token.text.lower() in _NON_FINITE_WORDS:
            raise NonFiniteError(
                f"non-finite literal {token.text!r} at line {token.line}, "
                f"column {token.column}"
            )
        if token.kind != "number":
            self._fail("expected a number", token)
        value = float(token.text)
        if not math.isfinite(value):
            raise NonFiniteError(
                f"literal {token.text!r} overflows the double range at line "
                f"{token.line}, column {token.column}"
            )
        return value

    def _signed_real(self) -> float:
        token = self._peek()
        sign = 1.0
        if token.kind == "punct" and token.text in "+-":
            self._advance()
            sign = -1.0 if token.text == "-" else 1.0
        return sign * self._unsigned_real()

    def _quaternion(self) -> Quaternion:
        w = self._signed_real()
        token = self._peek()
        if token.kind == "punct" and token.text in "+-":
            coefficients: list[float] = []
            for unit in ("i", "j", "k"):
                sign_token = self._advance()
                if sign_token.kind != "punct" or sign_token.text not in "+-":
                    self._fail(f"expected '+' or '-' before the {unit} term", sign_token)
                value = self._unsigned_real()
                unit_token = self._advance()
                if unit_token.kind != "ident" or unit_token.text != unit:
                    self._fail(f"expected unit {unit!r}", unit_token)
                coefficients.append(-value if sign_token.text == "-" else value)
            return Quaternion(w, *coefficients)
        if token.kind == "ident" and token.text in ("i", "j", "k"):
            self._fail(
                "a quaternion literal is a single real or spells out "
                "all of the i, j, k terms",
                token,
            )
        return Quaternion(w)

    def _dual_quaternion(self) -> DualQuaternion:
        self._expect_ident("dq")
        self._expect_punct("{")
        self._expect_ident("std")
        self._expect_punct(":")
        std = self._quaternion()
        self._expect_punct(",")
        self._expect_ident("inf")
        self._expect_punct(":")
        inf = self._quaternion()
        self._expect_punct("}")
        return DualQuaternion(std, inf)

    def _vector(self) -> DQVector:
        self._expect_ident("vec")
        opener = self._expect_punct("[")
        if self._peek().kind == "punct" and self._peek().text == "]":
            raise EmptyVectorError(
                f"empty vector at line {opener.line}, column {opener.column}"
            )
        entries = [self._dual_quaternion()]
        while self._peek().kind == "punct" and self._peek().text == ",":
            self._advance()
            entries.append(self._dual_quaternion())
        self._expect_punct("]")
        return DQVector(tuple(entries))

    def _basis(self) -> tuple[DQVector, ...]:
        self._expect_ident("basis")
        opener = self._expect_punct("[")
        if self._peek().kind == "punct" and self._peek().text == "]":
            raise EmptyVectorError(
                f"empty basis at line {opener.line}, column {opener.column}"
            )
        vectors = [self._vector()]
        while self._peek().kind == "punct" and self._peek().text == ",":
            self._advance()
            vectors.append(self._vector())
        self._expect_punct("]")
        return tuple(vectors)

    def document(self) -> InputDocument:
        head = self._peek()
        if head.kind != "ident" or head.text not in ("dq", "vec", "basis"):
            self._fail("expected 'dq', 'vec', or 'basis'", head)
        if head.text == "dq":
            doc = InputDocument(SCALAR, self._dual_quaternion())
        elif head.text == "vec":
            doc = InputDocument(VECTOR, self._vector())
        else:
            doc = InputDocument(BASIS, self._basis())
        trailing = self._peek()
        if trailing.kind != "end":
            self._fail("unexpected trailing input", trailing)
        return doc


def parse_document(text: str) -> InputDocument:
    """Parse one document.  Raises ParseError with the failing position."""
    return _Parser(_tokenize(text)).document()


# -- renderer ---------------------------------------------------------------

def render_quaternion(q: Quaternion) -> str:
    """Canonical four-term form with shortest round-trip decimals."""
    out = [repr(q.w)]
    for value, unit in ((q.x, "i"), (q.y, "j"), (q.z, "k")):
        sign = "-" if value < 0.0 else "+"
        out.append(f"{sign} {abs(value)!r}{unit}")
    return " ".join(out)


def _render_scalar(value: DualQuaternion) -> str:
    return (
        f"dq{{ std: {render_quaternion(value.std)}, "
        f"inf: {render_quaternion(value.inf)} }}"
    )


def _render_vector(value: DQVector) -> str:
    return "vec[ " + ", ".join(_render_scalar(e) for e in value.entries) + " ]"


def render_document(doc: InputDocument) -> str:
    """Canonical text for a document; parsing it reproduces the payload."""
    if doc.kind == SCALAR:
        return _render_scalar(doc.payload)
    if doc.kind == VECTOR:
        return _render_vector(doc.payload)
    if doc.kind == BASIS:
        return "basis[ " + ", ".join(_render_vector(v) for v in doc.payload) + " ]"
    raise ValueError(f"unknown document kind {doc.kind!r}")
