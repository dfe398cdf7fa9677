"""Each shared rule of the package has exactly one definition in ``src/dualquat``."""

import ast
import importlib
import os
import subprocess
import sys
import typing
from pathlib import Path

import dualquat

PACKAGE = Path(dualquat.__file__).resolve().parent

# The rounding-error model (the unit roundoff, the smallest normal double, the
# one comparison rule close, the rule that two routes agree, the order check
# that judges ties by close, and the scales of the magnitude and the norms),
# the route checks that dualq and selfcheck share (the magnitude's two routes,
# and the closed-form 2-norm and the norm chain, each at the norm_scales its
# caller passes, which norm_checks runs together for dualq norms; see
# NORM_CHECK_CALLS), the default unit tolerance and the rule that admits a
# tolerance, the real-scalar operand rule, the quaternion product rule
# (written out again, with conjugation folded in, by the inner-product
# kernels; see PRODUCT_WRITTEN_OUT), the dual-quaternion magnitude rule
# _magnitudes, over a list of values (magnitude() takes it of a list of one
# and the norms of their entries, so a second copy in vectors.py fails here),
# the one "hypot, then weighted sum" kernel with the largest double and the
# floor of the guard that lets its callers divide a dot product instead (the
# magnitude rule, its scale, norm2 over the rule, norm_scales over
# magnitude_scale and the closed form's fallback, so none can fork; see
# WEIGHTED_SUM), the per-field and all-fields finiteness tests, the trusted
# constructors of kernel results, the product with a real and the
# power-of-two scaling rule (see SCALING_RULE).
SHARED_RULES = (
    "u",
    "MIN_NORMAL",
    "LARGEST",
    "DOT_FLOOR",
    "close",
    "agree",
    "le_defect",
    "magnitude_scale",
    "norm_scales",
    "magnitude_routes_agree",
    "norm2_closed_form_agrees",
    "norm_chain_defect",
    "norm_checks",
    "UNIT_TOL",
    "check_tolerance",
    "real_operand",
    "product",
    "_magnitudes",
    "dual_hypot",
    "finite",
    "all_finite",
    "_quaternion",
    "_dual_number",
    "_dual_quaternion",
    "_scaled",
    "scale_exponent",
    "times_power_of_two",
)

# In vectors.py, the one def that calls each comparison rule: each norm check
# is a single function over the norms and the scales its caller passes, so
# its scale and k have one copy, and norm_checks only calls the two.
NORM_CHECK_CALLS = {"agree": {"norm2_closed_form_agrees"}, "le_defect": {"norm_chain_defect"}}

# In vectors.py, the one def that tests inner-product parts for finiteness,
# raising as inner() does, and the defs that raise LengthMismatchError: the one
# length rule of an operation on two vectors, which +, - and inner call, and
# basis_check's shape check.
FINITENESS_RULE = "_identity_defect"
LENGTH_RULE = "_same_length"
LENGTH_RULE_CALLERS = {"DQVector.__add__", "DQVector.__sub__", "DQVector.inner"}
LENGTH_RAISERS = {LENGTH_RULE, "basis_check"}

# In vectors.py, the one def that picks the entry of norm_inf: the lowest index
# of the largest standard part, with the infinitesimal parts read only to break
# a tie among the largest.  norm_inf, norm_inf_index and norms() reach it.
NORM_INF_RULE = "_norm_inf_index"

# The one module that names math.frexp or math.ldexp: the scaling rule's.
# The modules that scale through it map no OverflowError of their own.
SCALING_RULE = "_common"
SCALING_CALLERS = ("quaternion", "dualquaternion")

# The defs that write out the all_finite test ``(v - v) + ... == 0.0``: the
# rule itself and the two value types' public and trusted constructors,
# which inline it because a call costs as much as the test.
ALL_FINITE_INLINED = {
    "_common.all_finite",
    "quaternion.Quaternion.__init__",
    "quaternion._quaternion",
    "dual.DualNumber.__init__",
    "dual._dual_number",
}

# The defs that write out the Hamilton product, 16 products of two names
# each: the rule itself, the vector inner-product kernel, which evaluates
# conj(a) b three times per entry pair without a call or a conjugated copy,
# and the self form x . x of unit_check and of the Gram kernel of basis_check,
# which writes it out with each repeated product once.  The self form also
# holds the one copy of the magnitude rule's guarded quotient, from its dot
# product d = f . p; test_self_form_magnitudes_are_magnitude_parts pins it to
# the rule, dualquaternion._magnitudes.
PRODUCT_WRITTEN_OUT = {
    "quaternion.product",
    "vectors._inner_parts",
    "vectors._self_parts",
}

# The one def that adds up weights a_i / N times b_i, and the defs that write
# out the guard under which a dot product over N is within the same bounds
# instead, each over its own names: the magnitude rule, its one copy in the
# self form, its scale and the closed form.  The sqrt route to the magnitude
# shares neither, so that dualq magnitude's cross-check of the two routes
# stays independent.
WEIGHTED_SUM = "_common.dual_hypot"
CLOSED_FORM = "vectors.DQVector.norm2_closed_form"
GUARDED_QUOTIENTS = {
    "dualquaternion._magnitudes",
    "dualquaternion.magnitude_scale",
    "vectors._self_parts",
    CLOSED_FORM,
}
SQRT_ROUTE = "magnitude_via_sqrt"

# The one module that may write a float literal below 1e-6: the rounding-error
# rule's.  Elsewhere such a literal, compared against or passed as a bound, is
# a second tolerance.
RULE_MODULE = "_common"
TINY_LITERALS_ALLOWED = set()

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


def _names(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports or takes as an attribute."""
    return {
        name
        for node in ast.walk(tree)
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if isinstance(name, str)
    }


def test_the_commands_and_selfcheck_call_the_route_checks_instead_of_writing_them_out():
    # A scale or a k of a route check written out a second time could fork from
    # the one its docstring derives.
    cli = _names(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")))
    assert not {"close", "le_defect", "magnitude_scale", "norm_scales"} & cli
    assert "close" not in _names(ast.parse((PACKAGE / "selfcheck.py").read_text(encoding="utf-8")))


def test_each_norm_check_is_the_one_vectors_def_that_calls_its_rule():
    body = ast.parse((PACKAGE / "vectors.py").read_text(encoding="utf-8")).body
    callers = {rule: set() for rule in NORM_CHECK_CALLS}
    for qualname, node in _functions_outside_functions(body):
        for n in ast.walk(node):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in callers:
                callers[n.func.id].add(".".join(qualname))
    assert callers == NORM_CHECK_CALLS


def test_vectors_states_its_finiteness_and_length_rules_once():
    body = ast.parse((PACKAGE / "vectors.py").read_text(encoding="utf-8")).body
    isfinite_uses = sum(
        isinstance(n, (ast.Name, ast.Attribute, ast.alias)) and "isfinite" in _names(n)
        for node in body
        for n in ast.walk(node)
    )
    finiteness, raisers, callers = set(), set(), set()
    for qualname, node in _functions_outside_functions(body):
        name = ".".join(qualname)
        uses = [n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)) and "isfinite" in _names(n)]
        if uses:
            finiteness.add(name)
            isfinite_uses -= len(uses)
        if any(isinstance(n, ast.Raise) and n.exc and "LengthMismatchError" in _names(n.exc) for n in ast.walk(node)):
            raisers.add(name)
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == LENGTH_RULE for n in ast.walk(node)):
            callers.add(name)
    assert (finiteness, isfinite_uses) == ({FINITENESS_RULE}, 0)
    assert raisers == LENGTH_RAISERS
    assert callers == LENGTH_RULE_CALLERS


def _is_all_finite_test(node: ast.AST) -> bool:
    """``(a - a) + (b - b) + ... == 0.0`` or ``!= 0.0``, over any names."""
    if not (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value == 0.0
    ):
        return False
    terms, pending = [], [node.left]
    while pending:
        term = pending.pop()
        if isinstance(term, ast.BinOp) and isinstance(term.op, ast.Add):
            pending += [term.left, term.right]
        else:
            terms.append(term)
    return all(
        isinstance(t, ast.BinOp) and isinstance(t.op, ast.Sub) and ast.dump(t.left) == ast.dump(t.right)
        for t in terms
    )


def test_all_finite_is_written_out_only_in_the_constructors():
    found = set()
    for path in PACKAGE.glob("*.py"):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for qualname, node in _functions_outside_functions(body):
            if any(_is_all_finite_test(n) for stmt in node.body for n in ast.walk(stmt)):
                found.add(".".join((path.stem, *qualname)))
    assert found == ALL_FINITE_INLINED


def _name_products(node: ast.AST) -> int:
    return sum(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Mult)
        and isinstance(n.left, ast.Name)
        and isinstance(n.right, ast.Name)
        for n in ast.walk(node)
    )


def test_product_rule_is_written_out_only_in_the_rule_and_the_inner_kernel():
    found = set()
    for path in PACKAGE.glob("*.py"):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for qualname, node in _functions_outside_functions(body):
            if _name_products(node) >= 16:
                found.add(".".join((path.stem, *qualname)))
    assert found == PRODUCT_WRITTEN_OUT


def test_power_of_two_scaling_goes_through_the_one_rule():
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = [
            ast.unparse(node)
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in ("frexp", "ldexp"))
            or (isinstance(node, ast.alias) and node.name in ("frexp", "ldexp"))
        ]
        assert named == [] or path.stem == SCALING_RULE, f"{path.stem} names {named}"
        if path.stem in SCALING_CALLERS:
            caught = [
                ast.unparse(node.type)
                for node in ast.walk(tree)
                if isinstance(node, ast.ExceptHandler)
                and node.type is not None
                and any(isinstance(n, ast.Name) and n.id == "OverflowError" for n in ast.walk(node.type))
            ]
            assert caught == [], f"{path.stem} catches {caught}"


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
    # norm1 and norm2 reduce the floats of _magnitudes, the magnitude rule over
    # a vector's entries; norm_inf and norm_inf_index take the standard parts
    # in _norm_inf and the rule's magnitude only where it can decide.  A
    # DualNumber per entry from DualQuaternion.magnitude is the work none of
    # them may redo.
    tree = ast.parse((PACKAGE / "vectors.py").read_text(encoding="utf-8"))
    (vector_class,) = (
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "DQVector"
    )
    methods = {node.name: node for node in vector_class.body if isinstance(node, ast.FunctionDef)}
    kernels = {"norm1": "_magnitudes", "norm2": "_magnitudes", "norm_inf_index": "_norm_inf", "norm_inf": "_norm_inf"}
    for name, kernel in kernels.items():
        calls = {
            node.func.attr
            for node in ast.walk(methods[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "magnitude" not in calls, f"DQVector.{name} calls .magnitude()"
        names = {node.id for node in ast.walk(methods[name]) if isinstance(node, ast.Name)}
        assert kernel in names, f"DQVector.{name} does not use {kernel}"


def _picks_a_maximum(function: ast.AST) -> bool:
    """A ``max`` or ``min`` over one iterable, a list's ``index`` or ``count``, or an ``if`` in a loop
    that compares a name by order and assigns it: a running maximum."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("max", "min") and len(node.args) == 1:
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in ("index", "count"):
                return True
        if isinstance(node, (ast.For, ast.While)):
            for branch in ast.walk(node):
                if not (
                    isinstance(branch, ast.If)
                    and isinstance(branch.test, ast.Compare)
                    and all(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in branch.test.ops)
                ):
                    continue
                compared = {n.id for n in ast.walk(branch.test) if isinstance(n, ast.Name)}
                assigned = {
                    n.id
                    for stmt in branch.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                }
                if compared & assigned:
                    return True
    return False


def test_the_norm_inf_tie_rule_has_one_definition():
    # The order that decides norm_inf's entry, standard parts first and the
    # infinitesimal parts only among the largest, is NORM_INF_RULE's alone:
    # the two methods and norms() reach it, and no other def in vectors.py
    # picks a maximum, so a second copy cannot fork from it.
    body = ast.parse((PACKAGE / "vectors.py").read_text(encoding="utf-8")).body
    functions = {".".join(qualname): node for qualname, node in _functions_outside_functions(body)}
    calls = {
        name: {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        for name, node in functions.items()
    }

    def reaches(name, seen):
        return name == NORM_INF_RULE or any(
            reaches(callee, seen | {callee}) for callee in calls.get(name, set()) - seen
        )

    for name in ("DQVector.norm_inf", "DQVector.norm_inf_index", "norms"):
        assert reaches(name, {name}), f"{name} does not reach {NORM_INF_RULE}"
    pickers = {name for name, node in functions.items() if _picks_a_maximum(node)}
    assert pickers == {NORM_INF_RULE}


def _adds_weighted_terms(node: ast.AST) -> bool:
    """A ``+=`` whose value multiplies a quotient: ``total += a / n * b``."""
    return any(
        isinstance(n, ast.AugAssign)
        and isinstance(n.op, ast.Add)
        and any(
            isinstance(m, ast.BinOp) and isinstance(m.op, ast.Mult) and isinstance(m.left, ast.BinOp)
            and isinstance(m.left.op, ast.Div)
            for m in ast.walk(n.value)
        )
        for n in ast.walk(node)
    )


def _renamed(test: ast.expr) -> str:
    """The guard ``test`` with its names other than the rule's constants numbered in order of use."""
    names: dict[str, str] = {}
    for n in ast.walk(test):
        if isinstance(n, ast.Name) and n.id not in ("LARGEST", "MIN_NORMAL", "DOT_FLOOR", "abs"):
            n.id = names.setdefault(n.id, f"v{len(names)}")
    return ast.unparse(test)


def test_one_def_adds_the_weighted_sum_and_the_sqrt_route_stays_apart_from_it():
    weighted, guards, sqrt_route = set(), {}, []
    for path in PACKAGE.glob("*.py"):
        for qualname, node in _functions_outside_functions(ast.parse(path.read_text(encoding="utf-8")).body):
            name = ".".join((path.stem, *qualname))
            if _adds_weighted_terms(node):
                weighted.add(name)
            for n in ast.walk(node):
                if isinstance(n, ast.If) and "DOT_FLOOR" in _names(n.test):
                    guards.setdefault(name, []).append(_renamed(n.test))
            if qualname[-1] == SQRT_ROUTE:
                sqrt_route.append(_names(node))
    assert weighted == {WEIGHTED_SUM}
    # One guard per def, written alike in each: a copy that admits more than the
    # rule's own would return a quotient where _magnitudes takes the kernel.
    # The closed form leaves out the last clause, a zero infinitesimal part,
    # which it does not read.
    assert set(guards) == GUARDED_QUOTIENTS and all(len(tests) == 1 for tests in guards.values())
    magnitude_guards = {tests[0] for name, tests in guards.items() if name != CLOSED_FORM}
    assert len(magnitude_guards) == 1, guards
    (closed,) = guards[CLOSED_FORM]
    assert magnitude_guards.pop().startswith(closed + " or "), (closed, guards)
    (used,) = sqrt_route
    assert not {"_magnitudes", WEIGHTED_SUM.rpartition(".")[2], "magnitude"} & used


def test_norm2_and_its_scale_share_the_2_norm_kernel():
    # norm2 over the magnitude rule and norm_scales over magnitude_scale both call
    # dual_hypot; norm2 forms no square and takes no square root.
    tree = ast.parse((PACKAGE / "vectors.py").read_text(encoding="utf-8"))
    (vector_class,) = (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "DQVector")
    (norm2,) = (node for node in vector_class.body if isinstance(node, ast.FunctionDef) and node.name == "norm2")
    (scales,) = (node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "norm_scales")
    for function in (norm2, scales):
        called = {node.func.id for node in ast.walk(function) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "dual_hypot" in called, function.name
    names = {node.id for node in ast.walk(norm2) if isinstance(node, ast.Name)}
    attributes = {node.attr for node in ast.walk(norm2) if isinstance(node, ast.Attribute)}
    assert not any(isinstance(node, (ast.Pow, ast.ExceptHandler)) for node in ast.walk(norm2))
    assert not {"sqrt", "has_appreciable_entry"} & attributes and "OverflowError" not in names


def _is_tolerance_or_zero_test(verdict: ast.expr) -> bool:
    """``x <= tol`` (or ``<``) against a number or a ``*TOL`` name, or ``x == 0.0``."""
    if not isinstance(verdict, ast.Compare) or len(verdict.ops) != 1:
        return False
    op, right = verdict.ops[0], verdict.comparators[0]
    if isinstance(op, (ast.LtE, ast.Lt)):
        return (isinstance(right, ast.Constant) and isinstance(right.value, (int, float))) or (
            isinstance(right, ast.Name) and right.id.lower().endswith("tol")
        )
    return isinstance(op, ast.Eq) and any(
        isinstance(side, ast.Constant) and side.value == 0.0 for side in (verdict.left, right)
    )


def test_selfcheck_records_only_through_run_all_and_the_check_kinds():
    # run_all makes every recorder, and a suite turns a difference or an order
    # defect into a verdict only through rec.agree and rec.holds, which judge
    # both by the one rounding-error rule, or through a route check shared with
    # dualq, whose verdict and residual rec.check records as they are.
    tree = ast.parse((PACKAGE / "selfcheck.py").read_text(encoding="utf-8"))

    def recorder_calls(root):
        return [
            node
            for node in ast.walk(root)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_Recorder"
        ]

    (run_all,) = (node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "run_all")
    assert len(recorder_calls(run_all)) == 1
    assert len(recorder_calls(tree)) == 1, [ast.unparse(node) for node in recorder_calls(tree)]

    checks = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "check"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "rec"
    ]
    assert checks, "no rec.check call found"
    bad = [ast.unparse(node) for node in checks if node.args and _is_tolerance_or_zero_test(node.args[0])]
    assert bad == []


def _tiny_literals(node: ast.AST) -> list[float]:
    """Float literals with ``0 < |v| < 1e-6`` under ``node``: a comparison's, a default's or a constant's."""
    return [
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, float) and 0.0 < abs(n.value) < 1e-6
    ]


def test_only_the_rounding_rule_writes_tiny_float_literals():
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == RULE_MODULE:
            continue
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for qualname, node in _functions_outside_functions(body):
            found.update((".".join((path.stem, *qualname)), v) for v in _tiny_literals(node))
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.update((path.stem, v) for v in _tiny_literals(node))
    assert found == TINY_LITERALS_ALLOWED


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


def test_cold_start_of_a_plain_call_loads_no_argparse_and_json_only_for_json():
    # A plain argv is read without argparse (and gettext, which it loads),
    # and a text report needs no json; a usage error still gets argparse's
    # usage line.  ``-S`` keeps site, and whatever a .pth file imports, out.
    script = (
        "import io, sys\n"
        "from dualquat.cli import main\n"
        "doc = sys.argv[1]\n"
        "for argv in (['norms', doc], ['norms', '--format', 'json', doc], ['check-unit', '--tol', '-1', doc]):\n"
        "    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()\n"
        "    try:\n"
        "        code = main(argv)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "    err, sys.stdout, sys.stderr = sys.stderr.getvalue(), sys.__stdout__, sys.__stderr__\n"
        "    print(code, sorted({'argparse', 'gettext', 'json'} & set(sys.modules)), err[:23])\n"
    )
    doc = str(Path(__file__).parent / "data" / "vector_pair.dq")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, doc], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.splitlines() == [
        "0 [] ",
        "0 ['json'] ",
        "2 ['argparse', 'gettext', 'json'] usage: dualq check-unit",
    ]


def test_cold_start_leaves_the_literal_patterns_uncompiled():
    # The lexer's one pattern takes about 2 ms to compile, which only a parse
    # should pay: not ``import dualquat.cli``, and so not ``dualq selfcheck``.
    # The first parse compiles it and no other pattern.
    script = (
        "import re, sys\n"
        "callers, compile = [], re.compile\n"
        "def counted(*args, **kwargs):\n"
        "    callers.append(sys._getframe(1).f_globals['__name__'])\n"
        "    return compile(*args, **kwargs)\n"
        "re.compile = counted\n"
        "import dualquat.cli\n"
        "from dualquat import documents\n"
        "print([name for name in callers if name.startswith('dualquat')])\n"
        "callers.clear()\n"
        "documents.parse_document('vec[ dq{ std: 1, inf: 0 }, dq{ std: 1 + 0i + 0j + 0k, inf: 0 } ]')\n"
        "documents.parse_document('dq{ std: 1, inf: 0 }')\n"
        "print(callers)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.splitlines() == ["[]", "['dualquat.documents']"]


def _document_builds(node: ast.AST) -> int:
    return sum(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "InputDocument"
        for n in ast.walk(node)
    )


def test_only_the_parser_builds_a_document():
    # One reader: the token parser is the only code that turns a text into
    # an InputDocument, so a second reading path shows up as a second builder.
    total = in_parser = 0
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += _document_builds(tree)
        for qualname, node in _functions_outside_functions(tree.body):
            if path.stem == "documents" and qualname[0] == "_Parser":
                in_parser += _document_builds(node)
    assert in_parser == total > 0


def _functions_outside_functions(body, prefix=()):
    """The defs reachable from a module, at module level or in classes, with their qualified names."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + (node.name,), node
        elif isinstance(node, ast.ClassDef):
            yield from _functions_outside_functions(node.body, prefix + (node.name,))


def test_every_annotation_resolves():
    # Annotations stay unevaluated strings at import, so a name used only
    # there can go missing unnoticed until a tool evaluates it.  Defs nested
    # in a function exist only while it runs and are not checked.
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"dualquat.{path.stem}")
        for qualname, _ in _functions_outside_functions(ast.parse(path.read_text(encoding="utf-8")).body):
            owner = module
            for name in qualname[:-1]:
                owner = getattr(owner, name)
            function = vars(owner)[qualname[-1]]
            if isinstance(function, (staticmethod, classmethod)):
                function = function.__func__
            elif isinstance(function, property):
                function = function.fget
            try:
                typing.get_type_hints(function)
            except NameError as exc:
                raise AssertionError(f"{module.__name__}.{'.'.join(qualname)}: {exc}") from exc
            checked += 1
    assert checked > 200
