"""Command-line front end.

``dualq`` reads dual-quaternion documents (see :mod:`dualquat.documents`),
runs magnitude, norm, unit, and orthonormality computations, and emits a
deterministic report in either human-readable text or JSON.  Exit status:
0 when every pass flag is true, 1 when a check fails, 2 on parse or usage
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Sequence

from ._common import CLOSE_ABS, close
from .documents import BASIS, SCALAR, VECTOR, InputDocument, parse_document, render_document
from .dual import DualNumber, le_defect
from .errors import DualQuatError, KindMismatchError
from .vectors import basis_check

DEFAULT_TOL = 1e-9


def _tol_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}")
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and nonnegative, got {text!r}")
    return value


def _seed_arg(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _cases_arg(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid case count {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("cases must be at least 1")
    return value


def _read_source(source: str) -> tuple[str, str]:
    if source == "-":
        return sys.stdin.read(), "<stdin>"
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read(), source


def _require_kind(doc: InputDocument, allowed: tuple[str, ...], command: str) -> None:
    if doc.kind not in allowed:
        wanted = " or ".join(allowed)
        raise KindMismatchError(f"{command} expects a {wanted} document, got {doc.kind}")


def _dual_json(value: DualNumber) -> dict:
    return {"std": value.std, "inf": value.inf}


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


class Report:
    """Ordered report: same computed values feed both output formats."""

    def __init__(self, command: str, inputs: dict, results: dict, passed: bool, text_lines: list[str]):
        self.command = command
        self.inputs = inputs
        self.results = results
        self.passed = passed
        self.text_lines = text_lines

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        lines.extend(self.text_lines)
        lines.append(f"pass: {_yesno(self.passed)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "pass": self.passed,
        }
        return json.dumps(payload, indent=2) + "\n"


def _cmd_magnitude(doc: InputDocument) -> Report:
    _require_kind(doc, (SCALAR,), "magnitude")
    q = doc.payload
    magnitude = q.magnitude()
    echo = render_document(doc)
    lines = [f"input: {echo}", f"magnitude: {magnitude}"]
    if q.is_appreciable:
        via_sqrt = q.magnitude_via_sqrt()
        difference = max(abs(via_sqrt.std - magnitude.std), abs(via_sqrt.inf - magnitude.inf))
        passed = difference <= CLOSE_ABS * max(1.0, magnitude.std)
        note = None
        lines.append(f"magnitude via sqrt(qq*): {via_sqrt}")
        lines.append(f"route difference: {difference!r}")
        results = {
            "magnitude": _dual_json(magnitude),
            "magnitude_via_sqrt": _dual_json(via_sqrt),
            "route_difference": difference,
            "note": note,
        }
    else:
        note = "not applicable (infinitesimal)"
        lines.append(f"magnitude via sqrt(qq*): {note}")
        lines.append(f"route difference: {note}")
        passed = True
        results = {
            "magnitude": _dual_json(magnitude),
            "magnitude_via_sqrt": None,
            "route_difference": None,
            "note": note,
        }
    return Report("magnitude", {"kind": doc.kind, "document": echo}, results, passed, lines)


def _cmd_norms(doc: InputDocument) -> Report:
    _require_kind(doc, (VECTOR,), "norms")
    vector = doc.payload
    norm1 = vector.norm1()
    norm_inf = vector.norm_inf()
    norm_inf_index = vector.norm_inf_index()
    norm2 = vector.norm2()
    chain_ok = le_defect(norm_inf, norm2) == 0.0 and le_defect(norm2, norm1) == 0.0
    echo = render_document(doc)
    lines = [
        f"input: {echo}",
        f"norm1: {norm1}",
        f"norm_inf: {norm_inf}",
        f"norm_inf attained at index: {norm_inf_index}",
        f"norm2: {norm2}",
    ]
    if vector.has_appreciable_entry:
        closed = vector.norm2_closed_form()
        residual = max(abs(closed.std - norm2.std), abs(closed.inf - norm2.inf))
        agree = close(closed.std, norm2.std) and close(closed.inf, norm2.inf)
        note = None
        lines.append(f"norm2 closed form: {closed}")
        lines.append(f"closed form residual: {residual!r}")
        closed_json = _dual_json(closed)
    else:
        closed = None
        residual = None
        agree = True
        note = "not applicable (no appreciable entry)"
        lines.append(f"norm2 closed form: {note}")
        lines.append(f"closed form residual: {note}")
        closed_json = None
    lines.append(f"norm chain (inf <= 2 <= 1): {'ok' if chain_ok else 'violated'}")
    passed = chain_ok and agree
    results = {
        "norm1": _dual_json(norm1),
        "norm_inf": _dual_json(norm_inf),
        "norm_inf_index": norm_inf_index,
        "norm2": _dual_json(norm2),
        "norm2_closed_form": closed_json,
        "closed_form_residual": residual,
        "note": note,
        "chain_ok": chain_ok,
    }
    return Report("norms", {"kind": doc.kind, "document": echo}, results, passed, lines)


def _cmd_check_unit(doc: InputDocument, tol: float) -> Report:
    _require_kind(doc, (SCALAR, VECTOR), "check-unit")
    echo = render_document(doc)
    lines = [f"input: {echo}", f"kind: {doc.kind}"]
    if doc.kind == SCALAR:
        verdict = doc.payload.unit_check(tol)
        lines.append(f"norm residual: {verdict.norm_residual!r}")
        lines.append(f"mixed-sum residual: {verdict.mixed_residual!r}")
        results = {
            "norm_residual": verdict.norm_residual,
            "mixed_residual": verdict.mixed_residual,
            "tolerance": tol,
        }
    else:
        verdict = doc.payload.unit_check(tol)
        lines.append(f"gram residual: {verdict.gram_residual!r}")
        lines.append(f"norm residual: {verdict.norm_residual!r}")
        results = {
            "gram_residual": verdict.gram_residual,
            "norm_residual": verdict.norm_residual,
            "tolerance": tol,
        }
    lines.append(f"tolerance: {tol!r}")
    return Report(
        "check-unit",
        {"kind": doc.kind, "document": echo},
        results,
        verdict.passed,
        lines,
    )


def _cmd_check_orthonormal(doc: InputDocument, tol: float) -> Report:
    _require_kind(doc, (BASIS,), "check-orthonormal")
    verdict = basis_check(doc.payload, tol)
    size = len(verdict.residuals)
    max_residual = max(max(row) for row in verdict.residuals)
    echo = render_document(doc)
    lines = [f"input: {echo}", f"size: {size}", "residuals:"]
    for index, row in enumerate(verdict.residuals):
        rendered = " ".join(repr(value) for value in row)
        lines.append(f"  row {index}: {rendered}")
    lines.append(f"max residual: {max_residual!r}")
    lines.append(f"tolerance: {tol!r}")
    results = {
        "size": size,
        "residuals": [list(row) for row in verdict.residuals],
        "max_residual": max_residual,
        "tolerance": tol,
    }
    return Report(
        "check-orthonormal",
        {"kind": doc.kind, "document": echo},
        results,
        verdict.passed,
        lines,
    )


def _cmd_selfcheck(seed: int | None, cases: int | None) -> Report:
    # Imported here so that the other commands do not pay for loading it.
    from . import selfcheck

    if seed is None:
        seed = selfcheck.DEFAULT_SEED
    if cases is None:
        cases = selfcheck.DEFAULT_CASES
    results = selfcheck.run_all(seed=seed, cases=cases)
    passed_count = sum(1 for r in results if r.passed)
    lines = [f"seed: {seed}", f"cases: {cases}"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"suite {r.name}: {status} cases={r.cases} failures={r.failures} worst={r.worst_residual!r}"
        )
    lines.append(f"suites passed: {passed_count}/{len(results)}")
    suites_json = [
        {
            "name": r.name,
            "cases": r.cases,
            "failures": r.failures,
            "worst_residual": r.worst_residual,
            "passed": r.passed,
        }
        for r in results
    ]
    report_results = {
        "suites": suites_json,
        "passed": passed_count,
        "total": len(results),
    }
    return Report(
        "selfcheck",
        {"seed": seed, "cases": cases},
        report_results,
        passed_count == len(results),
        lines,
    )


# Built once per process: ``parse_args`` fills a fresh namespace on every
# call, and help and usage text read the terminal width when formatted.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualq",
        description="Dual quaternion magnitude, norm, and unit checks with a built-in property selfcheck.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text", help="report format")

    def add_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("source", help="input document path, or - for standard input")

    p_mag = sub.add_parser("magnitude", help="magnitude of a dual quaternion, with the sqrt cross-check")
    add_format(p_mag)
    add_source(p_mag)

    p_norms = sub.add_parser("norms", help="1, infinity, and 2 norms of a vector, with the chain check")
    add_format(p_norms)
    add_source(p_norms)

    p_unit = sub.add_parser("check-unit", help="unit check for a scalar or a vector")
    p_unit.add_argument("--tol", type=_tol_arg, default=DEFAULT_TOL, help="residual tolerance")
    add_format(p_unit)
    add_source(p_unit)

    p_basis = sub.add_parser("check-orthonormal", help="orthonormality check for a basis")
    p_basis.add_argument("--tol", type=_tol_arg, default=DEFAULT_TOL, help="residual tolerance")
    add_format(p_basis)
    add_source(p_basis)

    p_self = sub.add_parser("selfcheck", help="run the randomized property suites")
    p_self.add_argument("--seed", type=_seed_arg, help="generator seed")
    p_self.add_argument("--cases", type=_cases_arg, help="cases per suite")
    add_format(p_self)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selfcheck":
            report = _cmd_selfcheck(args.seed, args.cases)
        else:
            try:
                text, label = _read_source(args.source)
            except OSError as exc:
                print(f"dualq: error: cannot read input: {exc}", file=sys.stderr)
                return 2
            try:
                doc = parse_document(text)
            except DualQuatError as exc:
                print(f"dualq: error: {label}: {exc}", file=sys.stderr)
                return 2
            if args.command == "magnitude":
                report = _cmd_magnitude(doc)
            elif args.command == "norms":
                report = _cmd_norms(doc)
            elif args.command == "check-unit":
                report = _cmd_check_unit(doc, args.tol)
            else:
                report = _cmd_check_orthonormal(doc, args.tol)
    except DualQuatError as exc:
        print(f"dualq: error: {exc}", file=sys.stderr)
        return 2
    output = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(output)
    return 0 if report.passed else 1
