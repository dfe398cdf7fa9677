"""Smoke test of the benchmark itself, at tiny sizes and with no timing thresholds.

    python3 -m pytest perfbench/test_perfbench_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args, "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                                 "--trace", "0"))
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_and_repeats_its_counts():
    runs = [last_json(run_bench("--workload", "selfcheck", "--seed", "9", "--seconds", "1",
                                "--trace", "1")) for _ in range(2)]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    first, second = (r["metrics"] for r in runs)
    assert first["quaternion.mul_per_mixed_sum"]["value"] == 2.0
    exact = [k for k in wanted if k.endswith((".calls", ".errors", "_per_mixed_sum", "_per_entry"))]
    assert all(first[k]["value"] == second[k]["value"] for k in exact)
    for module in ("common", "dual", "quaternion", "dualquaternion", "vectors", "documents", "cli"):
        assert any(first[k]["value"] > 0 for k in exact if k.startswith(module + "."))


def test_checks_flag_wrong_results(tmp_path):
    size = workloads.SIZES["tiny"]
    vectors = workloads.LongVectorsWorkload(3, size, sys.executable, "")
    vectors.prepare()
    mixed = [kind for kind, _ in vectors.raw_vectors].index("mixed")
    want = vectors.expected[mixed]["norm2"]
    assert workloads.dual_mismatch("n", want.std, want.inf, want) is None
    assert workloads.dual_mismatch("n", want.std * (1 + 1e-6), want.inf, want) is not None
    assert workloads.dual_mismatch("n", want.std, want.inf + 1e-6 * (1 + want.inf_scale),
                                   want) is not None

    from dualquat.selfcheck import SuiteResult

    suites = workloads.SelfcheckWorkload(3, size, sys.executable, "")
    good = [SuiteResult(f"s{i}", size["selfcheck_cases"], 0, 0.0) for i in range(41)]
    assert suites._check_report(5, good) is None
    assert suites._check_report(6, good[:-1] + [SuiteResult("s40", 1, 1, 1.0)]) is not None
    assert suites._check_report(7, good[:-1]) is not None

    corpus = workloads.CliDocsWorkload(4, size, sys.executable, str(tmp_path))
    corpus.setup(workloads.import_library())
    corpus.prepare()
    for index, doc in enumerate(corpus.docs):
        for fmt in ("text", "json"):
            assert corpus.check_output(index, fmt, *corpus._main(doc, fmt)) is None
        wrong = 1 if doc.expected_code != 1 else 0
        assert corpus.check_output(index, "json", wrong, "", "") is not None


def test_cli_docs_corpus_expects_all_three_exit_codes(tmp_path):
    corpus = workloads.CliDocsWorkload(4, workloads.SIZES["tiny"], sys.executable, str(tmp_path))
    codes = [code for _, _, code, _ in corpus.raw]
    assert sorted(set(codes)) == [0, 1, 2]
    assert codes.count(2) == len(codes) // len(workloads.BLOCK)


def test_inputs_depend_only_on_the_seed():
    size = workloads.SIZES["tiny"]
    a, b, c = (workloads.LongVectorsWorkload(s, size, sys.executable, "") for s in (1, 1, 2))
    assert a.raw_vectors == b.raw_vectors != c.raw_vectors


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "selfcheck", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
