"""Each shared rule of the package has exactly one definition in ``src/dualquat``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dualquat

PACKAGE = Path(dualquat.__file__).resolve().parent

# The realness guard, the order slack and its relaxed order, the agreement
# test, the real-scalar operand rule, the quaternion product rule and the
# dual-quaternion magnitude rule.
SHARED_RULES = (
    "REALNESS_GUARD",
    "ORDER_SLACK",
    "le_defect",
    "close",
    "real_operand",
    "product",
    "magnitude_parts",
)

# Modules on the production paths, which must not run the cross-checked
# reference form ``mixed_sum``.
PRODUCTION_MODULES = ("dualquaternion", "vectors", "documents", "cli")


def _module_level_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_shared_rules_are_defined_once_and_cli_keeps_out_of_selfcheck():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    defined = {module: _module_level_definitions(tree) for module, tree in trees.items()}
    for rule in SHARED_RULES:
        owners = sorted(module for module, names in defined.items() if rule in names)
        assert len(owners) == 1, f"{rule} is defined in {owners or 'no module'}"

    # The command line uses the selfcheck engine only through the module
    # itself: its run_all and its two defaults.
    cli = trees["cli"]
    for node in ast.walk(cli):
        if isinstance(node, ast.ImportFrom) and node.module:
            assert node.module.rpartition(".")[2] != "selfcheck", ast.unparse(node)
    used = {
        node.attr
        for node in ast.walk(cli)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "selfcheck"
    }
    assert used == {"run_all", "DEFAULT_SEED", "DEFAULT_CASES"}


def test_production_modules_keep_off_the_mixed_sum_cross_check():
    for module in PRODUCTION_MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            named = (
                (isinstance(node, ast.Name) and node.id == "mixed_sum")
                or (isinstance(node, ast.Attribute) and node.attr == "mixed_sum")
                or (isinstance(node, ast.alias) and node.name == "mixed_sum")
            )
            assert not named, f"{module} uses mixed_sum: {ast.unparse(node)}"


def test_vector_norms_evaluate_the_magnitude_rule_directly():
    # The norms add the floats of magnitude_parts; a DualNumber per entry
    # from DualQuaternion.magnitude is the work they must not redo.
    tree = ast.parse((PACKAGE / "vectors.py").read_text(encoding="utf-8"))
    (vector_class,) = (
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "DQVector"
    )
    methods = {node.name: node for node in vector_class.body if isinstance(node, ast.FunctionDef)}
    for name in ("norm1", "norm2", "norm_inf_index"):
        calls = {
            node.func.attr
            for node in ast.walk(methods[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "magnitude" not in calls, f"DQVector.{name} calls .magnitude()"
        names = {node.id for node in ast.walk(methods[name]) if isinstance(node, ast.Name)}
        assert "magnitude_parts" in names, f"DQVector.{name} does not use magnitude_parts"


def test_cold_start_imports_no_record_or_typing_machinery():
    # The records are plain Value classes and annotations stay unevaluated,
    # so ``dualq`` never loads dataclasses (with the inspect, ast, dis and
    # tokenize it pulls in) or typing.  ``-S`` keeps site out: a .pth file
    # there may import typing at start-up and hide a regression.
    script = (
        "import sys\n"
        "import dualquat.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
        "import dualquat.selfcheck\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.splitlines() == ["[]", "[]"]
