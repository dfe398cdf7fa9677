"""Seeded inputs, library calls and independent oracles for each workload.

Inputs are generated here as raw floats, so every expected result can be
recomputed from those floats with ``math.fsum`` without going through the
code under test.  Each workload exposes the same small interface:

* ``setup(lib)`` builds the library objects from the generated floats,
  writes the documents the workload reads and calls each operation once;
  with the import of the package before it, it is what ``setup_s`` times.
* ``prepare()`` computes the expected results; it is not timed.
* ``round_ops(r)`` returns the operations of round ``r`` as ``Op`` tuples:
  ``units`` of work, a zero-argument ``call`` and a ``check`` of its result
  that returns an error message or ``None``.
* ``process_jobs()`` returns the fresh-interpreter runs behind
  ``process_ms_p50``: an argv for the ``dualq`` entry point and a check of
  ``(exit code, stdout, stderr)``.

The shape of each workload (vector kinds and lengths, document kinds and
shares, which inputs also run in fresh processes) is fixed; the seed chooses
the values.  That keeps the amount of work the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from typing import Callable, NamedTuple

RTOL = 1e-10  # relative to the sum of absolute terms of the exact expression
UNIT_TOL = 1e-9  # tolerance the library and the CLI use by default
SUITE_COUNT = 41

ZERO = (0.0, 0.0, 0.0, 0.0)


class Op(NamedTuple):
    units: int
    call: Callable[[], object]
    check: Callable[[object], str | None]


class Job(NamedTuple):
    argv: list[str]
    check: Callable[[int, str, str], str | None]


SIZES = {
    "full": {
        "setup_samples": 7,
        "selfcheck_cases": 2,
        "trace_selfcheck_cases": 3,
        # (kind, length) of every vector: each kind gets the same entry count
        # whatever the seed, and a quarter of the vectors are infinitesimal.
        "vectors": (
            ("infinitesimal", 128), ("infinitesimal", 256), ("infinitesimal", 384),
            ("infinitesimal", 512), ("mixed", 192), ("mixed", 320), ("mixed", 448),
            ("appreciable", 192), ("appreciable", 320), ("appreciable", 448),
            ("unit", 128), ("unit", 320), ("unit", 512),
            ("perturbed", 256), ("perturbed", 320), ("perturbed", 384),
        ),
        "basis_size": 12,
        "bases": 4,
        "trace_vectors": 4,
        "corpus_blocks": 12,
        "trace_corpus_blocks": 3,
        "processes": 20,
    },
    "tiny": {
        "setup_samples": 2,
        "selfcheck_cases": 1,
        "trace_selfcheck_cases": 1,
        "vectors": (("infinitesimal", 3), ("mixed", 3), ("unit", 5), ("perturbed", 5)),
        "basis_size": 3,
        "bases": 2,
        "trace_vectors": 2,
        "corpus_blocks": 1,
        "trace_corpus_blocks": 1,
        "processes": 2,
    },
}


# -- raw generators ------------------------------------------------------------

def _quat(rng: random.Random) -> tuple[float, ...]:
    return tuple(rng.uniform(-10.0, 10.0) for _ in range(4))


def _norm(values) -> float:
    return math.sqrt(math.fsum(v * v for v in values))


def _unit_quat(rng: random.Random) -> tuple[float, ...]:
    while True:
        q = _quat(rng)
        n = _norm(q)
        if n >= 0.5:
            return tuple(c / n for c in q)


def _orthogonal_part(std: tuple[float, ...], raw: tuple[float, ...]) -> tuple[float, ...]:
    """``raw`` minus its projection on the unit 4-vector ``std``."""
    overlap = math.fsum(a * b for a, b in zip(std, raw))
    return tuple(b - overlap * a for a, b in zip(std, raw))


def _unit_entry(rng: random.Random) -> tuple[tuple[float, ...], tuple[float, ...]]:
    std = _unit_quat(rng)
    return std, _orthogonal_part(std, _quat(rng))


def _vector(rng: random.Random, kind: str, n: int) -> list:
    """Entries ``(std, inf)`` of a vector of one of five kinds.

    ``mixed``: 70% appreciable entries, the first always appreciable.
    ``appreciable``: every entry appreciable.  ``infinitesimal``: every
    standard part zero.  ``unit``: flattened standard part of norm one and
    infinitesimal part orthogonal to it.  ``perturbed``: a unit vector with
    its largest entry scaled by 1.5, or with 0.01 of the standard part added
    to the infinitesimal part (alternating by ``n``).
    """
    if kind in ("mixed", "appreciable"):
        return [
            (_quat(rng) if kind == "appreciable" or i == 0 or rng.random() < 0.7 else ZERO, _quat(rng))
            for i in range(n)
        ]
    if kind == "infinitesimal":
        return [(ZERO, _quat(rng)) for _ in range(n)]
    raw = [_quat(rng) for _ in range(n)]
    scale = _norm([c for q in raw for c in q])
    std = [tuple(c / scale for c in q) for q in raw]
    flat_std = [c for q in std for c in q]
    flat_raw = [c for q in (_quat(rng) for _ in range(n)) for c in q]
    flat_inf = _orthogonal_part(flat_std, flat_raw)
    entries = [(std[i], tuple(flat_inf[4 * i: 4 * i + 4])) for i in range(n)]
    if kind == "unit":
        return entries
    if n % 2:
        big = max(range(n), key=lambda i: _norm(entries[i][0]))
        s, f = entries[big]
        entries[big] = (tuple(1.5 * c for c in s), tuple(1.5 * c for c in f))
        return entries
    return [(s, tuple(b + 0.01 * a for a, b in zip(s, f))) for s, f in entries]


def _basis(rng: random.Random, m: int, valid: bool) -> list:
    """A permutation basis of unit dual quaternions; invalid ones scale row 0 by 1.01."""
    positions = rng.sample(range(m), m)
    rows = []
    for r in range(m):
        row = [(ZERO, ZERO)] * m
        row[positions[r]] = _unit_entry(rng)
        rows.append(row)
    if not valid:
        rows[0] = [(tuple(1.01 * c for c in s), tuple(1.01 * c for c in f)) for s, f in rows[0]]
    return rows


# -- oracles (fsum over the raw floats) ---------------------------------------

class Dual(NamedTuple):
    std: float
    inf: float
    inf_scale: float  # sum of absolute terms behind ``inf``


def _dot_terms(a, b):
    return [x * y for x, y in zip(a, b)]


def oracle_magnitude(std, inf) -> Dual:
    if any(std):
        n = _norm(std)
        terms = _dot_terms(std, inf)
        return Dual(n, math.fsum(terms) / n, math.fsum(abs(t) for t in terms) / n)
    value = _norm(inf)
    return Dual(0.0, value, value)


def oracle_norm1(entries) -> Dual:
    mags = [oracle_magnitude(s, f) for s, f in entries]
    return Dual(
        math.fsum(m.std for m in mags),
        math.fsum(m.inf for m in mags),
        math.fsum(m.inf_scale for m in mags),
    )


def oracle_norm2(entries) -> Dual:
    flat_std = [c for s, _ in entries for c in s]
    flat_inf = [c for _, f in entries for c in f]
    if any(flat_std):
        n = _norm(flat_std)
        terms = _dot_terms(flat_std, flat_inf)
        return Dual(n, math.fsum(terms) / n, math.fsum(abs(t) for t in terms) / n)
    value = _norm(flat_inf)
    return Dual(0.0, value, value)


def _order_key(d: Dual) -> tuple[float, float]:
    return (d.std, d.inf)


def _quat_product_terms(p, q):
    """Terms of each component of the Hamilton product ``p * q``."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        (pw * qw, -px * qx, -py * qy, -pz * qz),
        (pw * qx, px * qw, py * qz, -pz * qy),
        (pw * qy, -px * qz, py * qw, pz * qx),
        (pw * qz, px * qy, -py * qx, pz * qw),
    )


def _conj(q):
    return (q[0], -q[1], -q[2], -q[3])


def oracle_inner(xs, ys) -> list[tuple[float, float]]:
    """Eight ``(value, scale)`` pairs: std w, x, y, z then inf w, x, y, z."""
    buckets = [[] for _ in range(8)]
    for (xs_, xf), (ys_, yf) in zip(xs, ys):
        for k, terms in enumerate(_quat_product_terms(_conj(xs_), ys_)):
            buckets[k].extend(terms)
        for p, q in ((_conj(xs_), yf), (_conj(xf), ys_)):
            for k, terms in enumerate(_quat_product_terms(p, q)):
                buckets[4 + k].extend(terms)
    return [(math.fsum(b), math.fsum(abs(t) for t in b)) for b in buckets]


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * max(scale, abs(want), 1e-300)


def dual_mismatch(label: str, got_std: float, got_inf: float, want: Dual) -> str | None:
    if _close(got_std, want.std, want.std) and _close(got_inf, want.inf, want.inf_scale):
        return None
    return f"{label}: got {got_std!r}+{got_inf!r}e, expected {want.std!r}+{want.inf!r}e"


# -- library objects -------------------------------------------------------------

def _dq_vector(lib, entries):
    quat, dq = lib.quaternion.Quaternion, lib.dualquaternion.DualQuaternion
    return lib.vectors.DQVector(tuple(dq(quat(*s), quat(*f)) for s, f in entries))


class Lib(NamedTuple):
    """The imported modules of the package; calls go through module attributes
    so that the tracer's patches are seen."""

    quaternion: object
    dualquaternion: object
    vectors: object
    selfcheck: object
    cli: object


def import_library() -> Lib:
    from dualquat import cli, dualquaternion, quaternion, selfcheck, vectors

    return Lib(quaternion, dualquaternion, vectors, selfcheck, cli)


# -- document text (the benchmark's own renderer) ---------------------------------

def _quat_text(q) -> str:
    out = [repr(q[0])]
    for value, unit in zip(q[1:], "ijk"):
        out.append(f"{'-' if value < 0.0 else '+'} {abs(value)!r}{unit}")
    return " ".join(out)


def scalar_text(entry) -> str:
    s, f = entry
    return f"dq{{ std: {_quat_text(s)}, inf: {_quat_text(f)} }}"


def vector_text(entries) -> str:
    return "vec[\n  " + ",\n  ".join(scalar_text(e) for e in entries) + "\n]"


def basis_text(rows) -> str:
    return "basis[\n" + ",\n".join(vector_text(r) for r in rows) + "\n]\n"


DUALQ_PROGRAM = (
    "import sys; sys.path.insert(0, 'src'); "
    "from dualquat.cli import main; raise SystemExit(main())"
)


def dualq_argv(python: str, args: list[str]) -> list[str]:
    """A fresh interpreter running the ``dualq`` entry point on ``args``."""
    return [python, "-c", DUALQ_PROGRAM, *args]


def _json_keys_ok(payload: dict, command: str) -> str | None:
    if list(payload) != ["command", "inputs", "results", "pass"]:
        return f"JSON key order {list(payload)}"
    if payload["command"] != command:
        return f"JSON command {payload['command']!r}, expected {command!r}"
    return None


# -- selfcheck ------------------------------------------------------------------

class SelfcheckWorkload:
    """``selfcheck.run_all(seed_r, cases)`` with a fresh derived seed each round."""

    name = "selfcheck"
    throughput_name = "suite_cases_per_s"  # what one unit of throughput_per_s is

    def __init__(self, seed: int, size: dict, python: str, workdir: str):
        self.cases = size["selfcheck_cases"]
        self.trace_cases = size["trace_selfcheck_cases"]
        self.processes = size["processes"]
        self.python = python
        self._rng = random.Random(f"perfbench:selfcheck:{seed}")
        self._seeds: list[int] = []
        self.reports: dict[int, list] = {}

    def round_seed(self, r: int) -> int:
        while len(self._seeds) <= r:
            self._seeds.append(self._rng.getrandbits(32))
        return self._seeds[r]

    def setup(self, lib: Lib) -> None:
        self.lib = lib
        # Warm-up: the same seed runs again as round 0, which checks that
        # a seed reproduces its report.
        self.reports[0] = lib.selfcheck.run_all(self.round_seed(0), self.cases)

    def prepare(self) -> None:
        pass

    @staticmethod
    def _check_suites(results, cases: int) -> str | None:
        if len(results) != SUITE_COUNT or len({x.name for x in results}) != SUITE_COUNT:
            return f"{len(results)} suite results, expected {SUITE_COUNT} distinct"
        # A suite that checks one fixed witness reports a single case.
        bad = [x.name for x in results if not x.passed or x.cases not in (cases, 1)]
        return f"suites failed: {bad}" if bad else None

    def _check_report(self, r: int, results) -> str | None:
        results = list(results)
        problem = self._check_suites(results, self.cases)
        if problem:
            return f"round {r} (seed {self.round_seed(r)}): {problem}"
        if r in self.reports and self.reports[r] != results:
            return f"round {r}: same seed gave a different report"
        if r < self.processes:
            self.reports[r] = results
        return None

    def round_ops(self, r: int) -> list[Op]:
        seed = self.round_seed(r)
        run_all = self.lib.selfcheck.run_all
        return [Op(SUITE_COUNT * self.cases, lambda: run_all(seed, self.cases),
                   lambda res: self._check_report(r, res))]

    def trace_ops(self) -> list[Op]:
        run_all, cases = self.lib.selfcheck.run_all, self.trace_cases
        seed = self.round_seed(0)
        return [Op(SUITE_COUNT * cases, lambda: run_all(seed, cases),
                   lambda res: self._check_suites(list(res), cases))]

    def process_jobs(self) -> list[Job]:
        jobs = []
        for r in range(self.processes):
            argv = ["selfcheck", "--seed", str(self.round_seed(r)), "--cases", str(self.cases),
                    "--format", "json"]
            jobs.append(Job(dualq_argv(self.python, argv), self._process_check(r)))
        return jobs

    def _process_check(self, r: int):
        def check(code: int, out: str, err: str) -> str | None:
            if code != 0:
                return f"selfcheck process exited {code}: {err.strip()[-200:]}"
            payload = json.loads(out)
            problem = _json_keys_ok(payload, "selfcheck")
            if problem:
                return problem
            if r not in self.reports:
                self.reports[r] = self.lib.selfcheck.run_all(self.round_seed(r), self.cases)
            want = [[x.name, x.cases, x.failures, x.worst_residual] for x in self.reports[r]]
            got = [[s["name"], s["cases"], s["failures"], s["worst_residual"]]
                   for s in payload["results"]["suites"]]
            if got != want or payload["pass"] is not True:
                return f"selfcheck process report for seed {self.round_seed(r)} differs from run_all"
            return None

        return check


# -- long_vectors ------------------------------------------------------------------

class LongVectorsWorkload:
    """Norms, inner products and unit checks on long vectors; basis checks.

    A quarter of the vectors are all-infinitesimal, so the infinitesimal
    branch of ``norm2`` is timed beside the appreciable one.
    """

    name = "long_vectors"
    throughput_name = "entries_per_s"  # what one unit of throughput_per_s is

    def __init__(self, seed: int, size: dict, python: str, workdir: str):
        rng = random.Random(f"perfbench:long_vectors:{seed}")
        self.raw_vectors = [(kind, _vector(rng, kind, n)) for kind, n in size["vectors"]]
        # Each vector's inner-product partner is the next vector of the same length.
        by_length: dict[int, list[int]] = {}
        for i, (_, entries) in enumerate(self.raw_vectors):
            by_length.setdefault(len(entries), []).append(i)
        self.partner = {}
        for group in by_length.values():
            for k, i in enumerate(group):
                self.partner[i] = group[(k + 1) % len(group)]
        m = size["basis_size"]
        self.raw_bases = [(b % 2 == 0, _basis(rng, m, b % 2 == 0)) for b in range(size["bases"])]
        self.trace_vectors = size["trace_vectors"]
        self.processes = size["processes"]
        self.python = python
        self.workdir = workdir

    def setup(self, lib: Lib) -> None:
        self.lib = lib
        self.vectors = [_dq_vector(lib, entries) for _, entries in self.raw_vectors]
        self.bases = [[_dq_vector(lib, row) for row in rows] for _, rows in self.raw_bases]
        self.doc_paths = []
        for i in self._process_vectors():
            path = os.path.join(self.workdir, f"vector-{i}.dq")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(vector_text(self.raw_vectors[i][1]) + "\n")
            self.doc_paths.append((i, path))
        # Warm-up: one call of every operation on the shortest vector.
        short = min(range(len(self.vectors)), key=lambda i: len(self.vectors[i]))
        for op in self._vector_ops(short):
            op.call()
        lib.vectors.basis_check(self.bases[0], UNIT_TOL)

    def _process_vectors(self) -> list[int]:
        count = len(self.raw_vectors)
        return [k % count for k in range(self.processes)]

    def prepare(self) -> None:
        self.expected = []
        for i, (kind, entries) in enumerate(self.raw_vectors):
            mags = [oracle_magnitude(s, f) for s, f in entries]
            top = max(mags, key=_order_key)
            self.expected.append({
                "norm1": oracle_norm1(entries),
                "norm2": oracle_norm2(entries),
                "mags": mags,
                "norm_inf": top,
                "inner": oracle_inner(entries, self.raw_vectors[self.partner[i]][1]),
                "unit": kind == "unit",
            })

    def _vector_ops(self, i: int) -> list[Op]:
        # Checks read ``self.expected`` when they run, after ``prepare``.
        v, y = self.vectors[i], self.vectors[self.partner[i]]
        n = len(v)

        def dual(label, key):
            def check(got):
                return dual_mismatch(f"vector {i} {label}", got.std, got.inf, self.expected[i][key])
            return check

        def index_check(got):
            top, at = self.expected[i]["norm_inf"], self.expected[i]["mags"][got]
            return dual_mismatch(f"vector {i} norm_inf_index {got}", at.std, at.inf, top)

        def inner_check(got):
            comps = list(got.std.components()) + list(got.inf.components())
            for k, (value, (exact, scale)) in enumerate(zip(comps, self.expected[i]["inner"])):
                if not _close(value, exact, scale):
                    return f"vector {i} inner component {k}: got {value!r}, expected {exact!r}"
            return None

        def unit_check(got):
            if bool(got.passed) != self.expected[i]["unit"]:
                return f"vector {i} unit verdict {got.passed}, expected {self.expected[i]['unit']}"
            return None

        ops = [
            Op(n, v.norm1, dual("norm1", "norm1")),
            Op(n, v.norm2, dual("norm2", "norm2")),
            Op(n, v.norm_inf, dual("norm_inf", "norm_inf")),
            Op(n, v.norm_inf_index, index_check),
            Op(n, lambda: v.inner(y), inner_check),
            Op(n, lambda: v.unit_check(UNIT_TOL), unit_check),
        ]
        if self.raw_vectors[i][0] != "infinitesimal":
            ops.append(Op(n, v.norm2_closed_form, dual("norm2_closed_form", "norm2")))
        return ops

    def _basis_ops(self, b: int) -> list[Op]:
        valid = self.raw_bases[b][0]
        vectors = self.bases[b]
        check = self.lib.vectors.basis_check

        def verdict(got):
            if bool(got.passed) != valid:
                return f"basis {b} verdict {got.passed}, expected {valid}"
            return None

        return [Op(len(vectors) ** 2, lambda: check(vectors, UNIT_TOL), verdict)]

    def round_ops(self, r: int) -> list[Op]:
        ops = [op for i in range(len(self.vectors)) for op in self._vector_ops(i)]
        ops += [op for b in range(len(self.bases)) for op in self._basis_ops(b)]
        return ops

    def trace_ops(self) -> list[Op]:
        ops = [op for i in range(self.trace_vectors) for op in self._vector_ops(i)]
        return ops + self._basis_ops(0)

    def process_jobs(self) -> list[Job]:
        jobs = []
        for i, path in self.doc_paths:
            jobs.append(Job(dualq_argv(self.python, ["norms", "--format", "json", path]),
                            self._process_check(i)))
        return jobs

    def _process_check(self, i: int):
        def check(code: int, out: str, err: str) -> str | None:
            if code != 0:
                return f"norms process on vector {i} exited {code}: {err.strip()[-200:]}"
            payload = json.loads(out)
            problem = _json_keys_ok(payload, "norms")
            if problem:
                return problem
            results = payload["results"]
            for label in ("norm1", "norm2", "norm_inf"):
                got = results[label]
                problem = dual_mismatch(f"norms process vector {i} {label}", got["std"], got["inf"],
                                        self.expected[i][label])
                if problem:
                    return problem
            return None

        return check


# -- cli_docs -------------------------------------------------------------------------

# One block of ten documents: the command and the kind of each.
BLOCK = (
    ("magnitude", "appreciable"),
    ("magnitude", "infinitesimal"),
    ("norms", "mixed"),
    ("norms", "appreciable"),
    ("norms", "infinitesimal"),
    ("check-unit", "scalar"),
    ("check-unit", "vector"),
    ("check-orthonormal", "valid"),
    ("check-orthonormal", "invalid"),
    ("malformed", None),
)

MALFORMED = (
    ("norms", lambda rng: vector_text([(_quat(rng), _quat(rng))] * 3)[:-20]),
    ("magnitude", lambda rng: "dq{ std: inf, inf: 0 }"),
    ("magnitude", lambda rng: "dq{ std: 1e999, inf: 0 }"),
    ("norms", lambda rng: "vec[ ]"),
    ("norms", lambda rng: scalar_text((_quat(rng), _quat(rng)))),
    ("check-unit", lambda rng: "dq{ std: 1 @ 2, inf: 0 }"),
    ("check-orthonormal", lambda rng: "basis[ vec[ dq{ std: 1 + 2i, inf: 0 } ] ]"),
)


class Doc(NamedTuple):
    command: str
    path: str
    expected_code: int
    expected: dict  # oracle values for the JSON report, by result key


class CliDocsWorkload:
    """Rendered documents through ``cli.main`` in-process, text then JSON."""

    name = "cli_docs"
    throughput_name = "docs_per_s"  # what one unit of throughput_per_s is

    def __init__(self, seed: int, size: dict, python: str, workdir: str):
        rng = random.Random(f"perfbench:cli_docs:{seed}")
        blocks = size["corpus_blocks"]
        norm_lengths = [1 + (63 * k) // max(1, 3 * blocks - 1) for k in range(3 * blocks)]
        unit_lengths = [1 + (15 * k) // max(1, blocks - 1) for k in range(blocks)]
        basis_sizes = [2 + k % 5 for k in range(2 * blocks)]
        self.raw = []  # (command, text, expected code, (kind, raw payload))
        for b in range(blocks):
            for command, kind in BLOCK:
                self.raw.append(self._document(rng, b, command, kind, norm_lengths,
                                               unit_lengths, basis_sizes))
        self.trace_docs = size["trace_corpus_blocks"] * len(BLOCK)
        # Documents also run in fresh interpreters: spaced so that they
        # cycle through the positions of a block.
        count, processes = len(self.raw), size["processes"]
        step = max(1, count // processes)
        self.process_docs = sorted({(k * step + k) % count for k in range(min(processes, count))})
        self.python = python
        self.workdir = workdir

    @staticmethod
    def _document(rng, b, command, kind, norm_lengths, unit_lengths, basis_sizes):
        if command == "magnitude":
            entry = (_quat(rng) if kind == "appreciable" else ZERO, _quat(rng))
            return command, scalar_text(entry), 0, ("scalar", entry)
        if command == "norms":
            entries = _vector(rng, kind, norm_lengths.pop())
            return command, vector_text(entries), 0, ("vector", entries)
        if command == "check-unit":
            valid = b % 2 == 0
            if kind == "scalar":
                entry = _unit_entry(rng) if valid else _vector(rng, "perturbed", 1)[0]
                return command, scalar_text(entry), 0 if valid else 1, ("scalar", entry)
            entries = _vector(rng, "unit" if valid else "perturbed", unit_lengths.pop())
            return command, vector_text(entries), 0 if valid else 1, ("vector", entries)
        if command == "check-orthonormal":
            rows = _basis(rng, basis_sizes.pop(), kind == "valid")
            return command, basis_text(rows), 0 if kind == "valid" else 1, ("basis", rows)
        target, make = MALFORMED[b % len(MALFORMED)]
        return target, make(rng), 2, ("malformed", None)

    def setup(self, lib: Lib) -> None:
        self.lib = lib
        self.docs = []
        for index, (command, text, code, _) in enumerate(self.raw):
            path = os.path.join(self.workdir, f"doc-{index:04d}.dq")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.docs.append(Doc(command, path, code, {}))
        # Warm-up: one document of each command, both formats.
        seen = set()
        for doc in self.docs:
            if doc.command not in seen:
                seen.add(doc.command)
                for fmt in ("text", "json"):
                    self._main(doc, fmt)

    def prepare(self) -> None:
        for doc, (_, _, _, (kind, payload)) in zip(self.docs, self.raw):
            if kind == "malformed":
                continue
            if doc.command == "magnitude":
                doc.expected["magnitude"] = oracle_magnitude(*payload)
            elif doc.command == "norms":
                doc.expected["norm1"] = oracle_norm1(payload)
                doc.expected["norm2"] = oracle_norm2(payload)
                mags = [oracle_magnitude(s, f) for s, f in payload]
                doc.expected["norm_inf"] = max(mags, key=_order_key)
        self.outputs: dict[int, str] = {}

    def _main(self, doc: Doc, fmt: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main([doc.command, "--format", fmt, doc.path])
        return code, out.getvalue(), err.getvalue()

    def check_output(self, index: int, fmt: str, code: int, out: str, err: str) -> str | None:
        doc = self.docs[index]
        where = f"document {index} ({doc.command}, {fmt})"
        if code != doc.expected_code:
            return f"{where}: exit {code}, expected {doc.expected_code}: {err.strip()[-200:]}"
        if code == 2:
            if out or not err.startswith("dualq: error:") or err.count("\n") != 1:
                return f"{where}: exit 2 without a one-line error report"
            return None
        if err:
            return f"{where}: unexpected stderr {err.strip()[-200:]}"
        if fmt == "text":
            lines = out.splitlines() or [""]
            if lines[0] != f"command: {doc.command}" or lines[-1] != f"pass: {'yes' if code == 0 else 'no'}":
                return f"{where}: text report framing {lines[0]!r} .. {lines[-1]!r}"
            return None
        payload = json.loads(out)
        problem = _json_keys_ok(payload, doc.command)
        if problem:
            return f"{where}: {problem}"
        if payload["pass"] is not (code == 0):
            return f"{where}: pass flag {payload['pass']} with exit {code}"
        for key, want in doc.expected.items():
            got = payload["results"][key]
            problem = dual_mismatch(f"{where} {key}", got["std"], got["inf"], want)
            if problem:
                return problem
        if index in self.process_docs:
            self.outputs.setdefault(index, out)
        return None

    def _ops(self, count: int) -> list[Op]:
        ops = []
        for index in range(count):
            doc = self.docs[index]
            for fmt in ("text", "json"):
                ops.append(Op(
                    1,
                    lambda doc=doc, fmt=fmt: self._main(doc, fmt),
                    lambda res, index=index, fmt=fmt: self.check_output(index, fmt, *res),
                ))
        return ops

    def round_ops(self, r: int) -> list[Op]:
        return self._ops(len(self.docs))

    def trace_ops(self) -> list[Op]:
        return self._ops(min(self.trace_docs, len(self.docs)))

    def process_jobs(self) -> list[Job]:
        jobs = []
        for index in self.process_docs:
            doc = self.docs[index]
            argv = dualq_argv(self.python, [doc.command, "--format", "json", doc.path])
            jobs.append(Job(argv, self._process_check(index)))
        return jobs

    def _process_check(self, index: int):
        def check(code: int, out: str, err: str) -> str | None:
            problem = self.check_output(index, "json", code, out, err)
            if problem:
                return f"fresh process: {problem}"
            if code != 2 and out != self.outputs.setdefault(index, self._main(self.docs[index], "json")[1]):
                return f"fresh process: document {index} output differs from the in-process run"
            return None

        return check


WORKLOADS = {w.name: w for w in (SelfcheckWorkload, LongVectorsWorkload, CliDocsWorkload)}
