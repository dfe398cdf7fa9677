"""Command line contract: golden outputs, exit codes, JSON shape, reproducibility."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dualquat
import oracle
from dualquat import DQVector, DualQuatError, DualQuaternion, Quaternion, embed_real
from dualquat.cli import main
from dualquat.documents import parse_document
from dualquat.dualquaternion import magnitude_scale
from dualquat.vectors import norm_scales

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _reject_constant(name):
    """``parse_constant`` hook: NaN, Infinity and -Infinity are not JSON."""
    raise AssertionError(f"report contains the non-JSON token {name}")


def run(argv, stdin_text=None):
    """Invoke main() in process, returning (exit_code, stdout, stderr).

    ``stdin_text`` is a str, which standard input carries as UTF-8, or the
    raw bytes.  Like the real stream under a UTF-8 or C locale, the stand-in
    decodes with surrogateescape and has a ``.buffer``.
    """
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        data = stdin_text if isinstance(stdin_text, bytes) else stdin_text.encode("utf-8")
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage failures
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


GOLDEN_JOBS = [
    ("magnitude_unit.txt", ["magnitude", "scalar_unit.dq"], 0),
    ("magnitude_infinitesimal.txt", ["magnitude", "scalar_infinitesimal.dq"], 0),
    ("magnitude_worked.json", ["magnitude", "--format", "json", "scalar_worked.dq"], 0),
    ("norms_pair.txt", ["norms", "vector_pair.dq"], 0),
    ("norms_infinitesimal.txt", ["norms", "vector_infinitesimal.dq"], 0),
    ("norms_embed.json", ["norms", "--format", "json", "vector_embed.dq"], 0),
    ("unit_scalar_pass.txt", ["check-unit", "scalar_unit.dq"], 0),
    ("unit_scalar_fail.txt", ["check-unit", "scalar_drift.dq"], 1),
    ("unit_vector_pass.json", ["check-unit", "--format", "json", "vector_unit.dq"], 0),
    ("orthonormal_pass.txt", ["check-orthonormal", "basis_pass.dq"], 0),
    ("orthonormal_fail.txt", ["check-orthonormal", "basis_fail.dq"], 1),
    ("selfcheck_small.txt", ["selfcheck", "--seed", "7", "--cases", "25"], 0),
    ("magnitude_infinitesimal.json", ["magnitude", "--format", "json", "scalar_infinitesimal.dq"], 0),
    ("norms_infinitesimal.json", ["norms", "--format", "json", "vector_infinitesimal.dq"], 0),
    ("unit_scalar_fail.json", ["check-unit", "--format", "json", "scalar_drift.dq"], 1),
    ("orthonormal_fail.json", ["check-orthonormal", "--format", "json", "basis_fail.dq"], 1),
    ("selfcheck_small.json", ["selfcheck", "--seed", "7", "--cases", "25", "--format", "json"], 0),
    ("unit_vector_infinitesimal.txt", ["check-unit", "vector_infinitesimal.dq"], 1),
    ("norms_chain_tie.txt", ["norms", "vector_chain_tie.dq"], 0),
]


@pytest.mark.parametrize("golden_name,argv,want_code", GOLDEN_JOBS, ids=[j[0] for j in GOLDEN_JOBS])
def test_golden_output(golden_name, argv, want_code):
    argv = [str(DATA / a) if a.endswith(".dq") else a for a in argv]
    code, out, err = run(argv)
    assert code == want_code
    assert err == ""
    assert out == (GOLDEN / golden_name).read_text()


def _other_interpreters():
    """One pyenv-installed CPython per version, other than this one's, that meets requires-python."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = {}
    for path in sorted(root.glob("3.*/bin/python")):
        version = tuple(map(int, re.match(r"(\d+)\.(\d+)", path.parents[1].name).groups()))
        if (3, 10) <= version != sys.version_info[:2]:
            found.setdefault(version, str(path))
    return [pytest.param(path, id="python%d.%d" % version) for version, path in sorted(found.items())] or [
        pytest.param(None, id="none", marks=pytest.mark.skip(reason="no other interpreter installed"))
    ]


# Runs argv lists through main() in one process and prints [code, stdout] pairs as JSON.
_RUN_JOBS = """
import contextlib, io, json, sys
from dualquat.cli import main
results = []
for argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


@pytest.mark.parametrize("python", _other_interpreters())
def test_goldens_under_other_interpreters(python):
    # Float formatting, v + 0.0 and inf - inf must behave alike on every
    # supported version.  Only the package source is on the path.
    src = str(Path(dualquat.__file__).resolve().parents[1])
    jobs = [[str(DATA / a) if a.endswith(".dq") else a for a in argv] for _, argv, _ in GOLDEN_JOBS]
    proc = subprocess.run(
        [python, "-c", _RUN_JOBS],
        input=json.dumps(jobs),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    results = json.loads(proc.stdout)
    for (golden_name, _, want_code), (code, out) in zip(GOLDEN_JOBS, results, strict=True):
        assert (golden_name, code) == (golden_name, want_code)
        assert out.encode("utf-8") == (GOLDEN / golden_name).read_bytes(), golden_name


@pytest.mark.parametrize("golden_name", [job[0] for job in GOLDEN_JOBS if job[0].endswith(".json")])
def test_json_outputs_round_trip(golden_name):
    text = (GOLDEN / golden_name).read_text()
    payload = json.loads(text)
    assert list(payload) == ["command", "inputs", "results", "pass"]
    assert json.dumps(payload, indent=2) + "\n" == text


def test_json_dual_number_shape():
    payload = json.loads((GOLDEN / "magnitude_worked.json").read_text())
    magnitude = payload["results"]["magnitude"]
    assert list(magnitude) == ["std", "inf"]
    assert isinstance(magnitude["std"], float)


def test_reads_stdin_dash():
    doc = (DATA / "scalar_unit.dq").read_text()
    code, out, err = run(["magnitude", "-"], stdin_text=doc)
    assert code == 0
    assert out == (GOLDEN / "magnitude_unit.txt").read_text()


def test_tolerance_flag_loosens_unit_check():
    code, out, _ = run(["check-unit", "--tol", "3", str(DATA / "scalar_drift.dq")])
    assert code == 0
    assert "pass: yes" in out


def test_selfcheck_is_reproducible():
    first = run(["selfcheck", "--seed", "7", "--cases", "25"])
    second = run(["selfcheck", "--seed", "7", "--cases", "25"])
    assert first == second
    assert first[0] == 0


def test_selfcheck_seed_changes_residuals():
    _, out_a, _ = run(["selfcheck", "--seed", "1", "--cases", "25"])
    _, out_b, _ = run(["selfcheck", "--seed", "2", "--cases", "25"])
    assert out_a != out_b


def test_selfcheck_json_lists_all_suites():
    from dualquat.selfcheck import suite_names

    code, out, _ = run(["selfcheck", "--seed", "7", "--cases", "10", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [s["name"] for s in payload["results"]["suites"]] == list(suite_names())
    assert payload["pass"] is True


# -- failure exits ---------------------------------------------------------------

def test_parse_error_exits_2_with_location():
    code, out, err = run(["magnitude", str(DATA / "broken.dq")])
    assert code == 2
    assert out == ""
    assert err.startswith("dualq: error: ")
    assert "broken.dq" in err
    assert "line 1" in err


def test_missing_file_exits_2():
    code, out, err = run(["magnitude", str(DATA / "no_such_file.dq")])
    assert code == 2
    assert "cannot read input" in err


def test_input_that_is_not_utf8_exits_2(tmp_path):
    doc = tmp_path / "latin1.dq"
    doc.write_bytes(b"dq{ std: 1, inf: 0 }\xff")
    code, out, err = run(["magnitude", str(doc)])
    assert code == 2
    assert out == ""
    assert err.startswith("dualq: error: cannot read input: ") and err.count("\n") == 1
    assert "can't decode byte 0xff" in err


NOT_UTF8 = b"dq{ std: 1, inf: 0 }\xff"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_both_sources_decode_by_one_rule(tmp_path, source):
    # The same bytes give the same error from a file and from standard input.
    doc = tmp_path / "latin1.dq"
    doc.write_bytes(NOT_UTF8)
    if source == "file":
        code, out, err = run(["magnitude", str(doc)])
    else:
        code, out, err = run(["magnitude", "-"], stdin_text=NOT_UTF8)
    assert (code, out) == (2, "")
    assert err == (
        "dualq: error: cannot read input: 'utf-8' codec can't decode byte 0xff "
        "in position 20: invalid start byte\n"
    )


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_both_sources_read_crlf_and_cr_line_ends_as_lf(tmp_path, source):
    # The error position counts lines as it would with LF line ends.
    data = b"dq{\r\n std: 1,\r inf: ? }"
    doc = tmp_path / "crlf.dq"
    doc.write_bytes(data)
    argv = ["magnitude", str(doc) if source == "file" else "-"]
    code, out, err = run(argv, stdin_text=data if source == "stdin" else None)
    assert (code, out) == (2, "")
    assert "line 3, column 7" in err


def test_kind_mismatch_exits_2():
    code, _, err = run(["norms", str(DATA / "scalar_unit.dq")])
    assert code == 2
    assert "dualq: error:" in err
    code, _, err = run(["magnitude", str(DATA / "vector_pair.dq")])
    assert code == 2
    code, _, err = run(["check-orthonormal", str(DATA / "vector_pair.dq")])
    assert code == 2


def test_check_unit_accepts_scalar_and_vector_only():
    code, _, err = run(["check-unit", str(DATA / "basis_pass.dq")])
    assert code == 2


def test_bad_flag_values_exit_2():
    for argv in (
        ["check-unit", "--tol", "-1", str(DATA / "scalar_unit.dq")],
        ["check-unit", "--tol", "inf", str(DATA / "scalar_drift.dq")],
        ["check-unit", "--tol", "1e999", str(DATA / "scalar_drift.dq")],
        ["check-orthonormal", "--tol", "nan", str(DATA / "basis_pass.dq")],
        ["selfcheck", "--cases", "0"],
        ["selfcheck", "--seed", "-3"],
        ["selfcheck", "--seed", str(2**64)],
        ["magnitude", "--format", "yaml", str(DATA / "scalar_unit.dq")],
    ):
        code, _, err = run(argv)
        assert code == 2, argv
        assert err != ""


@pytest.mark.parametrize("argv, value", [
    (["--tol", "-1e-3"], "-1e-3"),
    (["--tol", "-inf"], "-inf"),
    (["--tol", "-0.5"], "-0.5"),
    (["--tol=-1e-3"], "-1e-3"),
])
def test_a_negative_tolerance_gets_one_error_however_it_is_spelled(argv, value):
    # argparse reads a separate -1e-3 or -inf as an option, unlike -0.5.
    code, out, err = run(["check-unit", *argv, str(DATA / "scalar_unit.dq")])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --tol: tolerance must be finite and nonnegative, got {value!r}\n")


def test_a_tolerance_of_minus_zero_reads_as_zero():
    argv = ["check-unit", "--tol", "-0.0", str(DATA / "scalar_unit.dq")]
    code, out, err = run(argv)
    assert (code, err) == (0, "") and "\ntolerance: 0.0\n" in out
    code, out, _ = run([*argv[:-1], "--format", "json", argv[-1]])
    assert (code, json.loads(out)["results"]["tolerance"]) == (0, 0.0) and '"tolerance": 0.0' in out


def test_one_parser_serves_every_call_with_fresh_parser_output(tmp_path, monkeypatch):
    from dualquat.cli import _build_parser

    # Passes at --tol 0.5 only, so a tolerance left over from an earlier
    # call would show.
    drift = tmp_path / "drift.dq"
    drift.write_text("dq{ std: 1.2, inf: 0 }")
    drift, pair = str(drift), str(DATA / "vector_pair.dq")
    steps = [
        (["check-unit", "--tol", "0.5", drift], "80"),
        (["check-unit", drift], "80"),
        (["check-unit", "--tol", "-1", drift], "80"),
        (["norms", pair], "80"),
        (["norms", "--format", "json", pair], "80"),
        # usage text is wrapped to the terminal width when it is printed
        (["check-unit", "--tol", "-1", drift], "40"),
    ]

    def run_at(argv, columns):
        monkeypatch.setenv("COLUMNS", columns)
        return run(argv)

    fresh = []
    for argv, columns in steps:
        _build_parser.cache_clear()
        fresh.append(run_at(argv, columns))
    _build_parser.cache_clear()
    reused = [run_at(argv, columns) for argv, columns in steps]
    assert _build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 1, 2, 0, 0, 2]
    assert fresh[2][2] != fresh[5][2]


# Commands (and words that are not), flags in full, abbreviated and with =,
# values that convert and values that do not (some start with -, which
# argparse still reads as a value), and sources.
_COMMAND_WORDS = st.sampled_from(
    ("magnitude", "norms", "check-unit", "check-orthonormal", "selfcheck", "norm", "check")
)
_FLAG_VALUES = {  # flag -> (values it takes, values it does not)
    "--tol": (("0.5", "0", "1e-3", "+5", "-0.0", "-0e0"), ("-1", "-1e-3", "-inf", "nan", "inf", "1e999")),
    "--seed": (("7", "007", "0", str(2**64 - 1)), (str(2**64), "-3", "x")),
    "--cases": (("1", "25"), ("0", "-1", "2.5")),
    "--format": (("text", "json"), ("yaml", "-", "")),
}
_FLAG_WORDS = st.sampled_from((*_FLAG_VALUES, "--to", "--form", "--tol=0.5", "--format=json", "-h", "--help"))
_VALUE_WORDS = st.sampled_from(sorted({value for pools in _FLAG_VALUES.values() for pool in pools for value in pool}))
_SOURCE_WORDS = st.sampled_from(("-", "a.dq", "-a.dq", "--", ""))


@st.composite
def _command_lines(draw):
    """A command, then in any order flags (mostly its own), each with a value of its kind, and
    mostly one source."""
    from dualquat.cli import _COMMANDS

    command = draw(_COMMAND_WORDS)
    own = [flag for flag, *_ in _COMMANDS[command][1]] + ["--format"] if command in _COMMANDS else ["--format"]
    flags = draw(st.one_of(
        st.lists(st.sampled_from(own), unique=True), st.lists(st.sampled_from(list(_FLAG_VALUES)), max_size=3)
    ))
    groups = [(flag, draw(st.one_of(*map(st.sampled_from, _FLAG_VALUES[flag])))) for flag in flags]
    groups += [(source,) for source in draw(st.one_of(st.just(["a.dq"]), st.lists(_SOURCE_WORDS, max_size=2)))]
    return [command, *(word for group in draw(st.permutations(groups)) for word in group)]


# Any words in any order, and command lines, some of which the plain reader reads.
_ARGVS = st.one_of(
    st.lists(st.one_of(_COMMAND_WORDS, _FLAG_WORDS, _VALUE_WORDS, _SOURCE_WORDS), max_size=7), _command_lines()
)


@settings(max_examples=1000, deadline=None)
@given(_ARGVS)
@example(["check-unit", "--tol", "-0.0", "a.dq"])
@example(["norms", "--format=json", "a.dq"])
@example(["norms", "--form", "json", "a.dq"])
@example(["check-unit", "--tol", "0.5", "--tol", "0.5", "a.dq"])
@example(["norms", "-h"])
@example([])
@example(["norms", "a.dq", "b.dq"])
@example(["selfcheck", "--cases", "7", "--format", "json", "--seed", "007"])
@example(["check-orthonormal", "-", "--tol", "+5"])
def test_the_plain_reader_returns_what_argparse_returns(argv):
    from dualquat.cli import _build_parser, _read_args

    read = _read_args(argv)
    if read is not None:
        parsed = _build_parser().parse_args(argv)
        # repr keeps 0.0 apart from -0.0 and an int apart from a float
        assert repr(sorted(vars(read).items())) == repr(sorted(vars(parsed).items()))


@pytest.mark.parametrize("argv", [job[1] for job in GOLDEN_JOBS] + [["check-unit", "--tol", "0.5", "-"]])
def test_the_plain_reader_reads_every_golden_call(argv):
    from dualquat.cli import _read_args

    assert _read_args(argv) is not None


def test_overflowing_norm_exits_2(tmp_path):
    # norm1 is 2e308, beyond the largest double.
    doc = tmp_path / "huge.dq"
    doc.write_text("vec[ dq{ std: 1e308, inf: 0 }, dq{ std: 1e308, inf: 0 } ]\n")
    code, out, err = run(["norms", str(doc)])
    assert code == 2
    assert out == ""
    assert err.startswith("dualq: error: ") and err.count("\n") == 1


def test_a_norm_whose_square_overflows_exits_0():
    # Every norm is 1e200; its square, 1e400, is beyond the double range.
    code, out, err = run(["norms", "-"], stdin_text="vec[ dq{ std: 1e200, inf: 0 } ]")
    assert (code, err) == (0, "")
    assert "\nnorm2: 1e+200+0.0e\n" in out


def test_a_unit_vector_whose_infinitesimal_entry_overflows_passes_check_unit():
    # The second entry's magnitude overflows to inf e, but its weight in the
    # 2-norm is 0, so x . x and the 2-norm are both 1 + 0e exactly.
    document = "vec[ dq{ std: 1, inf: 0 }, dq{ std: 0, inf: 1.7e308 + 1.7e308i + 0j + 0k } ]"
    code, out, err = run(["check-unit", "-"], stdin_text=document)
    assert (code, err) == (0, "")
    assert "\ngram residual: 0.0\nnorm residual: 0.0\n" in out


# ROADMAP item 1's norm2 documents: a square of the standard part that
# underflows or overflows made norm2 raise or return 0.0+0.0e.  Then a vector
# whose second entry has the weight n_i / N = 5e-318, below the normal range,
# where a weight taken as a plain quotient puts norm2 off by 3e-7 relatively.
# Last, a subnormal hypot of the standard part, 2e-323, which keeps 3 bits: a
# closed form that divides by it gives 1.5 for the infinitesimal part, not √2.
@pytest.mark.parametrize("document", [
    "vec[ dq{ std: 1e-200, inf: 1 } ]",
    "vec[ dq{ std: 1e-200, inf: -1 } ]",
    "vec[ dq{ std: 1e160, inf: 1 } ]",
    "vec[ dq{ std: 0 + 0i - 3.595529e-271j + 0k, inf: 0 } ]",
    "vec[ dq{ std: 0 + 0i + 0j + 2e137k, inf: 0 }, dq{ std: 0 + 0i + 1e-180j + 0k, inf: 0 + 0i + 1e10j + 0k } ]",
    "vec[ dq{ std: 1.5e-323, inf: 1 }, dq{ std: 1.5e-323, inf: 1 } ]",
])
def test_norms_exit_0_where_a_square_or_a_weight_leaves_the_normal_range(document):
    code, out, err = run(["norms", "-"], stdin_text=document)
    assert (code, err) == (0, ""), out


@pytest.mark.parametrize("document", ["vector_pair.dq", "vector_infinitesimal.dq"])
def test_norms_computes_the_scales_of_its_checks_once(document, monkeypatch):
    # The chain and the closed form are judged at scales from one norm_scales.
    calls = []

    def counted(vector):
        calls.append(vector)
        return norm_scales(vector)

    monkeypatch.setattr(dualquat.vectors, "norm_scales", counted)
    code, out, err = run(["norms", str(DATA / document)])
    assert (code, err) == (0, "") and len(calls) == 1


def test_overflowing_mixed_sum_is_recomputed_scaled():
    # std.inf is 1e400 - 1e400 in floats, a NaN unscaled; exactly it is 0.
    doc = "dq{ std: 1e200 + 1e200i + 0j + 0k, inf: 1e200 - 1e200i + 0j + 0k }"
    code, out, err = run(["check-unit", "--format", "json", "-"], stdin_text=doc)
    assert code == 1
    assert err == ""
    assert json.loads(out, parse_constant=_reject_constant)["results"]["mixed_residual"] == 0.0


def test_mixed_sum_beyond_the_double_range_exits_2():
    # 2 |std.inf| is about 1.6e488, beyond the largest double.
    doc = "dq{ std: 0 + 0i - 8.829512e243j + 0k, inf: 0 + 0i - 8.829512e243j + 0k }"
    for output_format in ("text", "json"):
        code, out, err = run(["check-unit", "--format", output_format, "-"], stdin_text=doc)
        assert code == 2
        assert out == ""
        assert err.startswith("dualq: error: ") and "overflows" in err


def test_huge_infinitesimal_magnitude_has_no_traceback(tmp_path):
    # (std + std inf) squared overflows, while q * q.conjugate() does not.
    doc = tmp_path / "huge_inf.dq"
    doc.write_text("dq{ std: 1, inf: 1e200 }\n")
    code, out, err = run(["magnitude", str(doc)])
    assert code == 0
    assert err == ""
    assert "magnitude: 1.0+1e+200e\n" in out


@pytest.mark.parametrize(
    "doc, magnitude",
    [
        ("dq{ std: 1e-170, inf: 0 }", "1e-170+0.0e"),
        ("dq{ std: 1e200, inf: 0 }", "1e+200+0.0e"),
        ("dq{ std: 1e-170, inf: 1 }", "1e-170+1.0e"),
    ],
)
def test_magnitude_routes_agree_across_the_double_range(doc, magnitude):
    # The sqrt route used to square unscaled: it returned 0.0 for 1e-170 (a
    # false pass), and exited 2 for the other two.
    code, out, err = run(["magnitude", "-"], stdin_text=doc)
    assert (code, err) == (0, "")
    assert f"magnitude: {magnitude}\nmagnitude via sqrt(qq*): {magnitude}\n" in out
    assert "route difference: 0.0\npass: yes\n" in out


# Components m * 10**e, written out as text, with e from the subnormals to
# beyond the top of the double range, and signed zeros.
magnitude_texts = st.one_of(
    st.just("0"),
    st.builds(lambda m, e: f"{m:.6f}e{e}", st.floats(0.0, 10.0), st.integers(-320, 308)),
)
signed_texts = st.tuples(st.sampled_from("+-"), magnitude_texts)


def quaternion_text(terms):
    (sign, w), *rest = terms
    return f"{'-' if sign == '-' else ''}{w} " + " ".join(
        f"{sign} {value}{unit}" for (sign, value), unit in zip(rest, "ijk")
    )


quaternion_texts = st.lists(signed_texts, min_size=4, max_size=4).map(quaternion_text)
dq_texts = st.builds(
    "dq{{ std: {}, inf: {} }}".format, st.one_of(st.just("0"), quaternion_texts), quaternion_texts
)


def vec_texts(n):
    return st.lists(dq_texts, min_size=n, max_size=n).map(lambda es: "vec[ " + ", ".join(es) + " ]")


basis_texts = st.integers(1, 3).flatmap(
    lambda n: st.lists(vec_texts(n), min_size=n, max_size=n).map(lambda vs: "basis[ " + ", ".join(vs) + " ]")
)
cli_cases = st.one_of(
    st.tuples(st.just("magnitude"), dq_texts),
    st.tuples(st.just("norms"), st.integers(1, 4).flatmap(vec_texts)),
    st.tuples(st.just("check-unit"), st.one_of(dq_texts, st.integers(1, 4).flatmap(vec_texts))),
    st.tuples(st.just("check-orthonormal"), basis_texts),
)


@settings(max_examples=300, deadline=None)
@given(cli_cases, st.sampled_from(["text", "json"]))
def test_cli_never_shows_a_traceback(case, output_format):
    command, document = case
    code, out, err = run([command, "--format", output_format, "-"], stdin_text=document)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("dualq: error: ") and err.count("\n") == 1
    else:
        assert err == ""
        if output_format == "json":
            assert json.loads(out, parse_constant=_reject_constant)["pass"] is (code == 0)
        else:
            assert out.endswith("pass: yes\n" if code == 0 else "pass: no\n")


# Components at one scale per part: a mantissa of 0 or 1e-3 to 10 in size,
# times 10**e, with e drawn once for every standard part and once for every
# infinitesimal part of a document.  No product or square leaves the normal range.
mantissas = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
scaled_entry = st.tuples(st.tuples(*[mantissas] * 4), st.tuples(*[mantissas] * 4))
scaled_entries = st.lists(scaled_entry, min_size=1, max_size=4)


def scaled_quaternion_text(mantissas, exponent):
    return quaternion_text([("-" if m < 0 else "+", f"{abs(m)!r}e{exponent}") for m in mantissas])


def scaled_dq_text(entry, std_exponent, inf_exponent):
    std, inf = entry
    return f"dq{{ std: {scaled_quaternion_text(std, std_exponent)}, inf: {scaled_quaternion_text(inf, inf_exponent)} }}"


# The routes differ by 2 ulps in both parts; an absolute rule that judges the
# infinitesimal part, of size 1e7, at the standard part's scale fails it.
_ROADMAP_DOC = [(
    (5.849387701813809, 3.3512315315946104, 4.6747035262569785, 1.2768790918545907),
    (-7937335.102018598, 1755175.3992709517, -9901974.428661522, -7129632.795457502),
)]


@given(scaled_entries, st.integers(-150, 150), st.integers(-150, 150))
@example(_ROADMAP_DOC, 0, 0)
def test_magnitude_and_norm_routes_agree_at_every_scale(entries, std_exponent, inf_exponent):
    texts = [scaled_dq_text(entry, std_exponent, inf_exponent) for entry in entries]
    for command, document in (("magnitude", texts[0]), ("norms", "vec[ " + ", ".join(texts) + " ]")):
        code, out, err = run([command, "-"], stdin_text=document)
        assert (code, err) == (0, ""), (command, document, out)


def test_the_route_check_has_no_absolute_floor():
    # The sqrt route flushes the small infinitesimal component beside a huge one
    # (ROADMAP item 17), so the routes differ by 6.97e-142, all of the
    # infinitesimal scale: tiny, yet a failure.
    document = "dq{ std: -8.276646e-146, inf: -6.972993e-142 + 2.018e293i + 0j + 0k }"
    code, out, err = run(["magnitude", "-"], stdin_text=document)
    assert (code, err) == (1, "")
    assert out.endswith(
        "magnitude: 8.276646e-146+6.972993e-142e\nmagnitude via sqrt(qq*): 8.276646e-146+0.0e\n"
        "route difference: 6.972993e-142\npass: no\n"
    )
    # Both routes keep an infinitesimal part whose product with a subnormal std underflows.
    code, out, err = run(["magnitude", "-"], stdin_text="dq{ std: 5e-324, inf: 1e-300 }")
    assert (code, err) == (0, "")
    assert out.endswith(
        "magnitude: 5e-324+1e-300e\nmagnitude via sqrt(qq*): 5e-324+1e-300e\nroute difference: 0.0\npass: yes\n"
    )


def test_the_norms_of_huge_parts_exit_0():
    # std·inf = 1e400 is beyond the double range, and no 2-norm forms it.
    code, out, err = run(["norms", "-"], stdin_text="vec[ dq{ std: 1e200, inf: 1e200 } ]")
    assert (code, err) == (0, "")
    assert "\nnorm2: 1e+200+1e+200e\nnorm2 closed form: 1e+200+1e+200e\n" in out


# The bounds that magnitude_routes_agree's docstring derives, per route and part,
# against magnitude_scale: magnitude() within γ_2 and γ_7 of the exact
# magnitude, magnitude_via_sqrt() within γ_3 and γ_9.
DIRECT_K, SQRT_K = (2, 7), (3, 9)


def _within(value, exact, scale, ks):
    """Whether each part of the dual number ``value`` lies within γ_k of its bracket in ``exact``, at its ``scale``."""
    return all(map(oracle.within, (value.std, value.inf), exact, scale, ks))


def _routes_within_their_bounds(q):
    """Whether each route of ``q``'s magnitude lies within its own bound of the exact magnitude."""
    exact, scale = oracle.magnitude(q.std.components(), q.inf.components()), magnitude_scale(q.std, q.inf)
    routes = q.magnitude(), q.magnitude_via_sqrt()
    return _within(routes[0], exact, scale, DIRECT_K) and _within(routes[1], exact, scale, SQRT_K)


@given(scaled_entry, st.integers(-150, 150), st.integers(-150, 150))
@example(_ROADMAP_DOC[0], 0, 0)
def test_each_magnitude_route_is_within_its_derived_bound(entry, std_exponent, inf_exponent):
    q = parse_document(scaled_dq_text(entry, std_exponent, inf_exponent)).payload
    assume(q.is_appreciable)
    assert _routes_within_their_bounds(q)


def scaled_quaternion(mantissas, exponent):
    """The quaternion that ``scaled_quaternion_text`` writes."""
    return Quaternion(*[float(f"{m!r}e{exponent}") for m in mantissas])


# Decimal exponents over the whole double range, one pair per entry: 1e-3
# times 10**-326 is below the smallest subnormal, 10 times 10**307 is 1e308.
full_range_entries = st.lists(
    st.tuples(scaled_entry, st.integers(-326, 307), st.integers(-326, 307)), min_size=1, max_size=4
)
_ONE = (1.0, 0.0, 0.0, 0.0)


def _float_or_inf(value):
    """``float(value)`` of a nonnegative rational, or inf beyond the double range."""
    return math.inf if value > oracle.LARGEST else float(value)


@given(scaled_entry, st.integers(-326, 307), st.integers(-326, 307))
@example((_ONE, _ONE), 200, 200)  # std·inf overflowed
@example(((5.0, 0.0, 0.0, 0.0), _ONE), -324, -300)  # std·inf underflowed to 0.0
@example(((-9.56133958527554, 2.6713221290536615, 7.305276594359864, 0.0),
          (-6.002611355451369, 6.489234250275337, 1.492776453921583, 0.0)), -324, 176)  # a subnormal |std|
@example(((1.0, 1.0, 0.0, 0.0), (1.0, -1.0, 0.0, 0.0)), 300, 8)  # the scale's sum of |std_i inf_i| overflowed
def test_the_magnitude_and_its_scale_hold_across_the_double_range(entry, std_exponent, inf_exponent):
    # Wherever the exact magnitude and its exact scale lie in the double range,
    # with room for their bounds, magnitude() does not raise and lies within its
    # bound, and magnitude_scale is finite.  The oracle brackets the root of 0 loosely.
    q = DualQuaternion(scaled_quaternion(entry[0], std_exponent), scaled_quaternion(entry[1], inf_exponent))
    assume(not q.is_zero)
    exact = oracle.magnitude(q.std.components(), q.inf.components())
    exact_scale = oracle.magnitude(*[[abs(c) for c in part.components()] for part in (q.std, q.inf)])
    bound = [_float_or_inf(hi) for _, hi in exact_scale]
    if any(map(oracle.may_overflow, (*exact, *exact_scale), bound * 2, DIRECT_K * 2)):
        return
    magnitude, scale = q.magnitude(), magnitude_scale(q.std, q.inf)
    assert all(map(math.isfinite, scale)), scale
    assert _within(magnitude, exact, scale, DIRECT_K), (magnitude, scale)


@given(full_range_entries)
@example([((_ONE, _ONE), -200, 0)])  # ROADMAP item 1's norm2 documents
@example([((_ONE, (-1.0, 0.0, 0.0, 0.0)), -200, 0)])
@example([((_ONE, _ONE), 160, 0)])
@example([(((0.0, 0.0, -3.595529, 0.0), (0.0,) * 4), -271, 0)])
@example([(((0.0, 0.0, 0.0, 2.0), (0.0,) * 4), 137, 0), (((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 1.0, 0.0)), -180, 10)])  # a subnormal weight
@example([((_ONE, _ONE), -323, 0)] * 2)  # a subnormal N
def test_norm2_is_within_its_derived_bound_across_the_double_range(entries):
    # Against norm_scales, norm2() is within γ_(n+4) and γ_(2n+14) of the
    # exact 2-norm, the magnitude of the vector's real embedding, wherever
    # every entry's magnitude() is within its own bound.  It raises only where
    # an entry's magnitude() raises or the 2-norm may leave the double range.
    vector = DQVector([DualQuaternion(scaled_quaternion(std, e), scaled_quaternion(inf, f)) for (std, inf), e, f in entries])
    try:
        entries_within = all(
            _within(x.magnitude(), oracle.magnitude(x.std.components(), x.inf.components()), magnitude_scale(x.std, x.inf), DIRECT_K)
            for x in vector
        )
    except DualQuatError:
        return  # an entry's magnitude() raises, so norm2() may
    exact = oracle.magnitude(embed_real(vector.std_part()), embed_real(vector.inf_part()))
    scale, ks = norm_scales(vector)[1], (len(vector) + 4, 2 * len(vector) + 14)
    try:
        norm2 = vector.norm2()
    except DualQuatError:
        assert any(map(oracle.may_overflow, exact, scale, ks)), vector
        return
    assert _within(norm2, exact, scale, ks) or not entries_within, vector


# tests/data/vector_chain_tie.dq: two appreciable entries whose norms' standard parts round
# alike, and whose infinitesimal parts are out of order.
_CHAIN_TIE_DOC = [
    (((0.0, 0.6054953037495522, 5.722122059603618, -8.909511359468155),
      (1.4043315242690323, 0.0, -7.009999217411393, 0.0)), -256, 208),
    (((0.0, 1.3669214606328077, 3.678391226025804, 7.371755810537954),
      (-6.851774407381647, -4.172114266629883, -5.72850217634671, -5.827206239219452)), 167, 23),
]


@given(full_range_entries)
@example(_CHAIN_TIE_DOC)
def test_the_norm_chain_holds_wherever_every_entry_magnitude_is_within_its_bound(entries):
    vector = DQVector([DualQuaternion(scaled_quaternion(std, e), scaled_quaternion(inf, f)) for (std, inf), e, f in entries])
    try:
        entries_within = all(
            _within(x.magnitude(), oracle.magnitude(x.std.components(), x.inf.components()), magnitude_scale(x.std, x.inf), DIRECT_K)
            for x in vector
        )
    except DualQuatError:
        return  # an entry's magnitude() raises, and so does dualq norms
    document = "vec[ " + ", ".join(scaled_dq_text(entry, e, f) for entry, e, f in entries) + " ]"
    code, out, _ = run(["norms", "-"], stdin_text=document)
    assert code == 2 or "\nnorm chain (inf <= 2 <= 1): ok\n" in out or not entries_within, document


@given(dq_texts)
@example("dq{ std: 5e-324, inf: 1e-300 }")
def test_the_magnitude_check_fails_only_where_a_route_misses_its_bound(document):
    # Over the whole double range: wherever both routes are within their own
    # bounds of the exact magnitude, they are close at k = 16 and the check passes.
    try:
        q = parse_document(document).payload
    except DualQuatError:
        assume(False)  # a literal beyond the double range
    assume(q.is_appreciable)
    try:
        within = _routes_within_their_bounds(q)
    except DualQuatError:
        within = False  # no route value to judge: dualq exits 2
    code, _, _ = run(["magnitude", "-"], stdin_text=document)
    assert code == 0 or not within


def test_unknown_command_exits_2():
    code, _, err = run(["frobnicate", "x.dq"])
    assert code == 2


def test_installed_entry_point():
    # Without an installed `dualq` script, run the module entry point with
    # the package's own source directory on the path.
    command, env = ["dualq"], None
    if shutil.which("dualq") is None:
        src = str(Path(dualquat.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "dualquat"]
    proc = subprocess.run(
        [*command, "magnitude", str(DATA / "scalar_unit.dq")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "magnitude_unit.txt").read_text()


def test_report_renders_each_field_once_for_both_formats():
    from dualquat import DualNumber
    from dualquat.cli import Report

    fields = [
        ("input", None, "doc"),
        ("magnitude", "magnitude", DualNumber(1.0, 0.5)),
        ("route", "route", None),
        (None, "note", "not applicable (why)"),
        ("chain", "chain_ok", False),
        ("residuals", "residuals", ((0.0, 1e-17), (2.5, 0.0))),
    ]
    report = Report("demo", {"kind": "scalar"}, fields, False)
    assert report.to_text() == (
        "command: demo\ninput: doc\nmagnitude: 1.0+0.5e\nroute: not applicable (why)\n"
        "chain: violated\nresiduals:\n  row 0: 0.0 1e-17\n  row 1: 2.5 0.0\npass: no\n"
    )
    assert json.loads(report.to_json()) == {
        "command": "demo",
        "inputs": {"kind": "scalar"},
        "results": {
            "magnitude": {"std": 1.0, "inf": 0.5},
            "route": None,
            "note": "not applicable (why)",
            "chain_ok": False,
            "residuals": [[0.0, 1e-17], [2.5, 0.0]],
        },
        "pass": False,
    }
