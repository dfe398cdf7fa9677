"""Per-stage split of ``dualq norms`` between two source trees.

``cli.main`` on a vector document reads the file, tokenizes and parses it,
computes the norms and their checks, renders the document back and formats
the report as text and as JSON.  This script times each of those stages on
its own, tokenizing and parsing also as one ``parse_document`` call, in process,
on three 64-entry vectors, one per kind that the ``cli_docs`` workload gives
``norms``: mixed, appreciable and infinitesimal.  It also times the whole
``cli.main`` call, in text and in JSON format.

Every round runs one fresh interpreter per tree, alternating which tree goes
first, since a long-lived process or two packages loaded in one process bias
the result.  The output is one JSON object: for each kind and stage, the
median and quartiles of each tree's per-call times in microseconds, the
change's median over the parent's, and the stage that moved the most.

    python tools/stage_split.py --parent PARENT_TREE --change CHANGE_TREE --rounds 10

Each tree is the root of a checkout, with the package under ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

KINDS = ("mixed", "appreciable", "infinitesimal")
STAGES = ("read", "tokenize", "parse", "parse_document", "compute", "render", "report", "main_text", "main_json")
# The stages that add up to one main call.  Which of the lexer and the parser
# does a piece of work can change between trees, so the two are compared as
# their sum, parse_document.
LAYERS = ("read", "parse_document", "compute", "render", "report")
ENTRIES = 64


def _quaternion_text(rng: random.Random, zero: bool) -> str:
    if zero:
        return "0"
    w, x, y, z = (rng.uniform(-10.0, 10.0) for _ in range(4))
    return " ".join([repr(w), *(f"{'-' if c < 0 else '+'} {abs(c)!r}{u}" for c, u in zip((x, y, z), "ijk"))])


def write_documents(directory: Path, seed: int) -> dict[str, Path]:
    """One vector document per kind; the same seed writes the same texts."""
    rng, paths = random.Random(seed), {}
    for kind in KINDS:
        entries = []
        for i in range(ENTRIES):
            zero_std = kind == "infinitesimal" or (kind == "mixed" and i % 2 == 0)
            std, inf = _quaternion_text(rng, zero_std), _quaternion_text(rng, False)
            entries.append(f"dq{{ std: {std}, inf: {inf} }}")
        paths[kind] = directory / f"{kind}.dq"
        paths[kind].write_text("vec[ " + ",\n  ".join(entries) + " ]\n", encoding="utf-8")
    return paths


def measure(paths: dict[str, Path], number: int) -> dict[str, dict[str, float]]:
    """Per-call microseconds of every stage on every document, with ``dualquat`` already importable."""
    from dualquat import cli, documents

    def best(call) -> float:
        return min(timeit.repeat(call, number=number, repeat=5)) / number * 1e6

    def quiet_main(argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)

    times = {}
    for kind, path in paths.items():
        source = str(path)
        args = cli._read_args(["norms", source])
        text, _ = cli._read_source(source)
        tokens = documents._tokenize(text)

        def parse():
            parser = object.__new__(documents._Parser)
            parser._text, parser._tokens, parser._pos = text, tokens, 0
            return parser.document()

        doc = parse()
        passed, fields = cli._norms(doc, args)
        echo = documents.render_document(doc)
        report = cli.Report("norms", {"kind": doc.kind, "document": echo}, [("input", None, echo), *fields], passed)
        times[kind] = {
            "read": best(lambda: cli._read_source(source)),
            "tokenize": best(lambda: documents._tokenize(text)),
            "parse": best(parse),
            "parse_document": best(lambda: documents.parse_document(text)),
            "compute": best(lambda: cli._norms(doc, args)),
            "render": best(lambda: documents.render_document(doc)),
            "report": best(lambda: (report.to_text(), report.to_json())),
            "main_text": best(lambda: quiet_main(["norms", source])),
            "main_json": best(lambda: quiet_main(["norms", "--format", "json", source])),
        }
    return times


def _summary(samples: list[float]) -> dict[str, float]:
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": round(statistics.median(samples), 2), "q1": round(quartiles[0], 2), "q3": round(quartiles[2], 2)}


def compare(parent: Path, change: Path, rounds: int, number: int, seed: int) -> dict:
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as directory:
        write_documents(Path(directory), seed)
        for r in range(rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent if side == "parent" else change
                proc = subprocess.run(
                    [sys.executable, __file__, "--measure", str(tree), "--documents", directory, "--number", str(number)],
                    capture_output=True, text=True, check=True,
                )
                runs[side].append(json.loads(proc.stdout))
    result = {"rounds": rounds, "number": number, "seed": seed, "entries": ENTRIES, "unit": "us per call", "kinds": {}}
    for kind in KINDS:
        stages = {}
        for stage in STAGES:
            parent_times = [run[kind][stage] for run in runs["parent"]]
            change_times = [run[kind][stage] for run in runs["change"]]
            stages[stage] = {
                "parent": _summary(parent_times),
                "change": _summary(change_times),
                "change_over_parent": round(statistics.median(change_times) / statistics.median(parent_times), 3),
            }
        moved = max(LAYERS, key=lambda s: abs(stages[s]["change"]["median"] - stages[s]["parent"]["median"]))
        result["kinds"][kind] = {"stages": stages, "moved_most": moved}
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--number", type=int, default=100, help="calls per timing repeat")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--documents", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        sys.path.insert(0, str(args.measure / "src"))
        print(json.dumps(measure({kind: args.documents / f"{kind}.dq" for kind in KINDS}, args.number)))
    else:
        if args.parent is None or args.change is None:
            parser.error("--parent and --change are required")
        print(json.dumps(compare(args.parent, args.change, args.rounds, args.number, args.seed), indent=1))


if __name__ == "__main__":
    main()
