"""Command-line front end.

``dualq`` reads dual-quaternion documents (see :mod:`dualquat.documents`),
runs magnitude, norm, unit, and orthonormality computations, and emits a
deterministic report in either human-readable text or JSON.  Exit status:
0 when every pass flag is true, 1 when a check fails, 2 on parse or usage
errors.

Each command states its report once, as an ordered list of
``(label, key, value)`` fields, and :class:`Report` alone formats them.

Arguments are read by :func:`_read_args` from the ``_COMMANDS`` table,
without argparse, whenever argv has the plain form that argparse reads in
one way only: the command, then that command's flags spelled in full, each
at most once and followed by a separate value that does not start with
``-``, and the one source of a document command.  Any other argv, help,
``--opt=value``, abbreviations and every usage error included, goes to the
argparse parser, which stays the one producer of help, usage and error
text.  A ``dualq`` process reads one document, and importing argparse and
building its parser cost it more than the paper's arithmetic does, so a
well-formed call loads neither argparse nor, in text format, json.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from ._common import UNIT_TOL, check_tolerance
from .documents import BASIS, SCALAR, VECTOR, InputDocument, parse_document, render_document
from .dual import DualNumber
from .errors import DualQuatError, KindMismatchError
from .dualquaternion import magnitude_routes_agree
from .vectors import basis_check, norm_checks, norms


def _bad_value() -> type[Exception]:
    """``argparse.ArgumentTypeError``, the converters' error for a bad value, with argparse
    loaded only once a value is bad: ``_read_args`` names it in an ``except`` clause, which is
    evaluated only after a converter has raised."""
    import argparse

    return argparse.ArgumentTypeError


def _tol_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _bad_value()(f"invalid tolerance {text!r}")
    try:
        check_tolerance(value)
    except ValueError:
        raise _bad_value()(f"tolerance must be finite and nonnegative, got {text!r}")
    return value


def _seed_arg(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise _bad_value()(f"invalid seed {text!r}")
    if not 0 <= value < 2**64:
        raise _bad_value()("seed must fit in 64 bits")
    return value


def _cases_arg(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise _bad_value()(f"invalid case count {text!r}")
    if value < 1:
        raise _bad_value()("cases must be at least 1")
    return value


def _read_source(source: str) -> tuple[str, str]:
    """The text of a document and its label.

    Standard input and files are read as bytes and decoded by one rule:
    strict UTF-8, with CRLF and lone CR line ends read as LF.
    """
    if source == "-":
        data, label = sys.stdin.buffer.read(), "<stdin>"
    else:
        with open(source, "rb") as handle:
            data, label = handle.read(), source
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"), label


def _dual_json(value: DualNumber) -> dict:
    # json.dumps calls this for the one value type it cannot serialize itself.
    return {"std": value.std, "inf": value.inf}


class Report:
    """A command's ordered ``(label, key, value)`` fields, as text or as JSON.

    A field with a label is a ``label: value`` text line, and a field with a
    key is an entry of the JSON ``results``.  Dual numbers print with
    ``str`` and serialize as ``{"std", "inf"}``; a flag prints as ``ok`` or
    ``violated``; a matrix (a tuple of rows) prints one ``row i:`` line per
    row.  A value that does not apply is ``None``: it prints as the text of
    the ``note`` field and is ``null`` in JSON.
    """

    def __init__(self, command: str, inputs: dict, fields: list[tuple], passed: bool):
        self.command = command
        self.inputs = inputs
        self.fields = fields
        self.passed = passed

    def to_text(self) -> str:
        note = next((value for _, key, value in self.fields if key == "note"), None)
        lines = [f"command: {self.command}"]
        for label, _, value in self.fields:
            if label is None:
                continue
            if isinstance(value, tuple):
                lines.append(f"{label}:")
                lines.extend(f"  row {i}: {' '.join(map(repr, row))}" for i, row in enumerate(value))
                continue
            if value is None:
                value = note
            elif isinstance(value, bool):
                value = "ok" if value else "violated"
            lines.append(f"{label}: {value}")
        lines.append(f"pass: {'yes' if self.passed else 'no'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # here, so that a text report does not load it

        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "results": {key: value for _, key, value in self.fields if key is not None},
            "pass": self.passed,
        }
        return json.dumps(payload, indent=2, default=_dual_json) + "\n"


# Each document command maps a document and the parsed arguments to its pass
# flag and its fields; ``main`` adds the echoed input in front.

def _magnitude(doc: InputDocument, args: SimpleNamespace) -> tuple[bool, list[tuple]]:
    """The magnitude by both routes, judged by ``magnitude_routes_agree``."""
    q = doc.payload
    magnitude = q.magnitude()
    via_sqrt = difference = note = None
    passed = True
    if q.is_appreciable:
        via_sqrt = q.magnitude_via_sqrt()
        passed, difference = magnitude_routes_agree(q, magnitude, via_sqrt)
    else:
        note = "not applicable (infinitesimal)"
    return passed, [
        ("magnitude", "magnitude", magnitude),
        ("magnitude via sqrt(qq*)", "magnitude_via_sqrt", via_sqrt),
        ("route difference", "route_difference", difference),
        (None, "note", note),
    ]


def _norms(doc: InputDocument, args: SimpleNamespace) -> tuple[bool, list[tuple]]:
    """The norms, judged by ``norm_checks``: the norm chain and the closed-form 2-norm."""
    vector = doc.payload
    norm1, norm_inf, norm2, norm_inf_index = norms(vector)
    closed = note = None
    if vector.has_appreciable_entry:
        closed = vector.norm2_closed_form()
    else:
        note = "not applicable (no appreciable entry)"
    chain_defect, agree, residual = norm_checks(vector, norm_inf, norm2, norm1, closed)
    chain_ok = chain_defect == 0.0
    return chain_ok and agree, [
        ("norm1", "norm1", norm1),
        ("norm_inf", "norm_inf", norm_inf),
        ("norm_inf attained at index", "norm_inf_index", norm_inf_index),
        ("norm2", "norm2", norm2),
        ("norm2 closed form", "norm2_closed_form", closed),
        ("closed form residual", "closed_form_residual", residual),
        (None, "note", note),
        ("norm chain (inf <= 2 <= 1)", "chain_ok", chain_ok),
    ]


def _check_unit(doc: InputDocument, args: SimpleNamespace) -> tuple[bool, list[tuple]]:
    verdict = doc.payload.unit_check(args.tol)
    if doc.kind == SCALAR:
        residuals = [
            ("norm residual", "norm_residual", verdict.norm_residual),
            ("mixed-sum residual", "mixed_residual", verdict.mixed_residual),
        ]
    else:
        residuals = [
            ("gram residual", "gram_residual", verdict.gram_residual),
            ("norm residual", "norm_residual", verdict.norm_residual),
        ]
    return verdict.passed, [("kind", None, doc.kind), *residuals, ("tolerance", "tolerance", args.tol)]


def _check_orthonormal(doc: InputDocument, args: SimpleNamespace) -> tuple[bool, list[tuple]]:
    verdict = basis_check(doc.payload, args.tol)
    return verdict.passed, [
        ("size", "size", len(verdict.residuals)),
        ("residuals", "residuals", verdict.residuals),
        ("max residual", "max_residual", max(max(row) for row in verdict.residuals)),
        ("tolerance", "tolerance", args.tol),
    ]


def _selfcheck(args: SimpleNamespace) -> tuple[dict, bool, list[tuple]]:
    # Imported here so that the other commands do not pay for loading it.
    from . import selfcheck

    seed = selfcheck.DEFAULT_SEED if args.seed is None else args.seed
    cases = selfcheck.DEFAULT_CASES if args.cases is None else args.cases
    results = selfcheck.run_all(seed=seed, cases=cases)
    passed = sum(r.passed for r in results)
    suites = [
        {"name": r.name, "cases": r.cases, "failures": r.failures, "worst_residual": r.worst_residual, "passed": r.passed}
        for r in results
    ]
    return {"seed": seed, "cases": cases}, passed == len(results), [
        ("seed", None, seed),
        ("cases", None, cases),
        *(
            (f"suite {r.name}", None, f"{'PASS' if r.passed else 'FAIL'} cases={r.cases} failures={r.failures} worst={r.worst_residual!r}")
            for r in results
        ),
        ("suites passed", None, f"{passed}/{len(results)}"),
        (None, "suites", suites),
        (None, "passed", passed),
        (None, "total", len(results)),
    ]


_TOL = ("--tol", _tol_arg, UNIT_TOL, "residual tolerance")
_FORMATS = ("text", "json")  # the --format choices; the first is the default

# Command -> (help, options before --format, document kinds it reads, fields).
# An option is (flag, converter, default, help).
# A command that reads no document takes no source and builds its own inputs.
_COMMANDS = {
    "magnitude": ("magnitude of a dual quaternion, with the sqrt cross-check", (), (SCALAR,), _magnitude),
    "norms": ("1, infinity, and 2 norms of a vector, with the chain check", (), (VECTOR,), _norms),
    "check-unit": ("unit check for a scalar or a vector", (_TOL,), (SCALAR, VECTOR), _check_unit),
    "check-orthonormal": ("orthonormality check for a basis", (_TOL,), (BASIS,), _check_orthonormal),
    "selfcheck": (
        "run the randomized property suites",
        (("--seed", _seed_arg, None, "generator seed"), ("--cases", _cases_arg, None, "cases per suite")),
        (),
        _selfcheck,
    ),
}


def _read_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns, for argv in the plain form
    argparse reads in one way only, or None for any other argv.

    The plain form is the command name, then in any order each of its flags
    at most once, spelled in full and followed by a separate value that does
    not start with ``-`` and that the flag's converter accepts (for
    ``--format``, one of the choices), and for a document command exactly one
    source, ``-`` or a word that does not start with ``-``.  Each value is
    stored under its flag without the leading ``--``, as argparse names it.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, options, kinds, _ = _COMMANDS[argv[0]]
    converters = {flag: convert for flag, convert, _, _ in options}
    converters["--format"] = None
    values = {"command": argv[0], "format": _FORMATS[0]}
    values.update((flag[2:], default) for flag, _, default, _ in options)
    sources = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in converters:
            convert = converters.pop(token)  # a repeated flag is then an unknown one
            value = next(tokens, "-")  # a missing value reads as one that starts with -
            if value.startswith("-"):
                return None
            if convert is None:
                if value not in _FORMATS:
                    return None
            else:
                try:
                    value = convert(value)
                except _bad_value():  # argparse reports it
                    return None
            values[token[2:]] = value
        elif token == "-" or not token.startswith("-"):
            sources.append(token)
        else:
            return None
    if len(sources) != (1 if kinds else 0):
        return None
    if kinds:
        values["source"] = sources[0]
    return SimpleNamespace(**values)


# Built once per process, and only for an argv that _read_args does not read:
# ``parse_args`` fills a fresh namespace on every call, and help and usage text
# read the terminal width when formatted.
@functools.cache
def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="dualq",
        description="Dual quaternion magnitude, norm, and unit checks with a built-in property selfcheck.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, kinds, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kind, default, option_help in options:
            command.add_argument(flag, type=kind, default=default, help=option_help)
        command.add_argument("--format", choices=_FORMATS, default=_FORMATS[0], help="report format")
        if kinds:
            command.add_argument("source", help="input document path, or - for standard input")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv)
    if args is None:  # argparse reads it, or exits 2 with its usage and error text
        args = _build_parser().parse_args(argv, SimpleNamespace())
    _, _, kinds, fields = _COMMANDS[args.command]
    try:
        if not kinds:
            inputs, passed, report_fields = fields(args)
        else:
            try:
                text, label = _read_source(args.source)
            except (OSError, UnicodeDecodeError) as exc:
                print(f"dualq: error: cannot read input: {exc}", file=sys.stderr)
                return 2
            try:
                doc = parse_document(text)
            except DualQuatError as exc:
                print(f"dualq: error: {label}: {exc}", file=sys.stderr)
                return 2
            if doc.kind not in kinds:
                wanted = " or ".join(kinds)
                raise KindMismatchError(f"{args.command} expects a {wanted} document, got {doc.kind}")
            passed, report_fields = fields(doc, args)
            echo = render_document(doc)
            inputs = {"kind": doc.kind, "document": echo}
            report_fields = [("input", None, echo), *report_fields]
    except DualQuatError as exc:
        print(f"dualq: error: {exc}", file=sys.stderr)
        return 2
    report = Report(args.command, inputs, report_fields, passed)
    sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
    return 0 if passed else 1
