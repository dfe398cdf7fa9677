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

A well-formed document is read one dual-quaternion literal per pattern
match; the token parser defines the grammar, reads every other text, and
reports every error.

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

# The alternatives are tried in order: number, identifier, punctuation, and
# last any other character but whitespace, which the lexer rejects.  So only
# space, tab, CR and LF match nothing, and ``finditer`` skips exactly those.
_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_SCANNER = re.compile(
    rf"(?P<number>{_NUMBER})|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[{}\[\]:,+-])|(?P<bad>[^ \t\r\n])"
)
_NON_FINITE_WORDS = frozenset({"inf", "infinity", "nan"})

# A token is (kind, text, offset) with kind "number", "ident", "punct" or
# "end".  The end token has empty text and offset len(text).
_Tok = tuple[str, str, int]


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; every character but LF is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Tok]:
    tokens = [(m.lastgroup, m[0], m.start()) for m in _SCANNER.finditer(text)]
    for kind, token_text, offset in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {token_text!r}", *_position(text, offset))
    tokens.append(("end", "", len(text)))
    return tokens


# -- parser ---------------------------------------------------------------

_SIGNS = ("+", "-")


class _Parser:
    # No two kinds share a token text, and only the end token's is empty,
    # so comparing texts is enough wherever a punctuation mark or a word is
    # expected.  The parser steps past a token only once it has accepted it.

    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._pos = 0

    def _where(self, token: _Tok) -> str:
        line, column = _position(self._text, token[2])
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
            raise NonFiniteError(f"non-finite literal {text!r} at {self._where(token)}")
        if kind != "number":
            self._fail("expected a number", token)
        value = float(text)
        if not math.isfinite(value):
            raise NonFiniteError(
                f"literal {text!r} overflows the double range at {self._where(token)}"
            )
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

    def _vector(self) -> DQVector:
        self._expect("vec")
        opener = self._expect("[")
        if self._tokens[self._pos][1] == "]":
            raise EmptyVectorError(f"empty vector at {self._where(opener)}")
        entries = [self._dual_quaternion()]
        while self._tokens[self._pos][1] == ",":
            self._pos += 1
            entries.append(self._dual_quaternion())
        self._expect("]")
        return DQVector(tuple(entries))

    def _basis(self) -> tuple[DQVector, ...]:
        self._expect("basis")
        opener = self._expect("[")
        if self._tokens[self._pos][1] == "]":
            raise EmptyVectorError(f"empty basis at {self._where(opener)}")
        vectors = [self._vector()]
        while self._tokens[self._pos][1] == ",":
            self._pos += 1
            vectors.append(self._vector())
        self._expect("]")
        return tuple(vectors)

    def document(self) -> InputDocument:
        head = self._tokens[self._pos][1]
        if head == "dq":
            doc = InputDocument(SCALAR, self._dual_quaternion())
        elif head == "vec":
            doc = InputDocument(VECTOR, self._vector())
        elif head == "basis":
            doc = InputDocument(BASIS, self._basis())
        else:
            self._fail("expected 'dq', 'vec', or 'basis'", self._tokens[self._pos])
        trailing = self._tokens[self._pos]
        if trailing[0] != "end":
            self._fail("unexpected trailing input", trailing)
        return doc


# -- literal matcher --------------------------------------------------------

# A well-formed document is read one dual-quaternion literal per pattern
# match.  The matcher gives up at the first thing it does not recognize and
# the token parser reads the text again, so the parser alone defines the
# grammar and reports every error.  No character that may follow a number
# here can extend it, so the numbers matched are the lexer's tokens; and no
# two whitespace runs can meet in a match, so a failing match backtracks
# over each whitespace run once.  Once all the text has matched, the trusted
# constructors build the values straight from the groups; a real that
# overflows raises NonFiniteError there, and the matcher gives up on it too.
_WS = "[ \t\r\n]*"


@functools.cache
def _literal_patterns() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """The literal, opener and mark patterns, compiled on first use, not at import."""
    term = rf"{_WS}([+-]){_WS}({_NUMBER}){_WS}"
    quaternion = rf"{_WS}(?:([+-]){_WS})?({_NUMBER})(?:{term}i{term}j{term}k)?{_WS}"
    mark = rf"{_WS}(?:([,\]]){_WS})?"  # group 17 of a literal
    literal = rf"{_WS}dq{_WS}\{{{_WS}std{_WS}:{quaternion},{_WS}inf{_WS}:{quaternion}\}}{mark}"
    return re.compile(literal), re.compile(rf"{_WS}(vec|basis){_WS}\["), re.compile(mark)


def _dual_quaternions(literals: list[tuple]) -> tuple[DualQuaternion, ...] | None:
    """The values of matched literals, or None if a real overflows.

    Groups 0-7 of a literal are the sign and number of w, x, y and z of its
    standard part, and groups 8-15 of its infinitesimal part.  An absent
    group reads as "0": a leading zero, which ``float`` ignores, before an
    unsigned number, and "00", 0.0, as a single real's terms.
    ``float("-" + number)`` is ``-float(number)``, the parser's value, since
    decimal conversion rounds correctly and so symmetrically.
    """
    values = []
    try:
        for g in literals:
            values.append(_dual_quaternion(
                _quaternion(float(g[0] + g[1]), float(g[2] + g[3]), float(g[4] + g[5]), float(g[6] + g[7])),
                _quaternion(float(g[8] + g[9]), float(g[10] + g[11]), float(g[12] + g[13]), float(g[14] + g[15])),
            ))
    except NonFiniteError:  # _quaternion raises it on an overflowed real
        return None
    return tuple(values)


def _match_literals(text: str, pos: int, literal: re.Pattern) -> tuple[list[tuple], int, str | None] | None:
    """The groups of the literals from ``pos`` on while a ',' follows each, the
    offset after the last one and its mark, and that mark (None if absent)."""
    literals = []
    while True:
        m = literal.match(text, pos)
        if m is None:
            return None
        literals.append(m.groups("0"))  # an absent sign or term reads as "0"
        if m[17] != ",":
            return literals, m.end(), m[17]
        pos = m.end()


def _match_document(text: str) -> InputDocument | None:
    """The document ``text`` spells if the patterns read all of it, else None.

    Values are built only once the whole text has matched.
    """
    literal, opener, mark = _literal_patterns()
    head = opener.match(text)
    if head is None:
        read = _match_literals(text, 0, literal)
        if read is None or len(read[0]) != 1 or read[2] is not None or read[1] != len(text):
            return None
        values = _dual_quaternions(read[0])
        return None if values is None else InputDocument(SCALAR, values[0])
    kind, runs = head[1], []  # the literals of each vector
    if kind == "vec":
        read = _match_literals(text, head.end(), literal)
        if read is None or read[2] != "]" or read[1] != len(text):
            return None
        runs.append(read[0])
    else:
        pos, separator = head.end(), ","
        while separator == ",":
            head = opener.match(text, pos)
            read = None if head is None or head[1] != "vec" else _match_literals(text, head.end(), literal)
            if read is None or read[2] != "]":
                return None
            runs.append(read[0])
            m = mark.match(text, read[1])
            pos, separator = m.end(), m[1]
        if separator != "]" or pos != len(text):
            return None
    entries = [_dual_quaternions(literals) for literals in runs]
    if None in entries:
        return None
    if kind == "vec":
        return InputDocument(VECTOR, DQVector(entries[0]))
    return InputDocument(BASIS, tuple(map(DQVector, entries)))


def parse_document(text: str) -> InputDocument:
    """Parse one document.  Raises ParseError with the failing position."""
    doc = _match_document(text)
    return doc if doc is not None else _Parser(text).document()


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
