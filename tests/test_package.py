"""The package root exports exactly what ``__all__`` lists, its import
stays light, its modules import nothing they do not use, no module but
``scalars`` reads a Scalar's slots, and its records are read-only."""

import ast
import glob
import inspect
import os
import subprocess
import sys

import mpmath
import pytest

import bringform
from bringform import (AuxSolve, BiPoly, BringAnsatz, ObstructionReport,
                       ReductionTrace, RootConfig, RootSet, SolveResult,
                       Subsidiary, TransformStep, UniPoly, VerifyReport, rat,
                       solve_quadratic)


def test_all_lists_every_public_name_and_only_bound_ones():
    listed = set(bringform.__all__)
    assert len(listed) == len(bringform.__all__), "a name is listed twice"
    public = {n for n, v in vars(bringform).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert public - listed == set(), "public but not listed"
    assert listed - public == set(), "listed but not bound, or a module"


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses and the inspect it imports cost a CLI process ~10 ms
    src = os.path.dirname(os.path.dirname(bringform.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import bringform.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _unused_imports(path):
    """The names a module's imports bind that it never reads (``from
    __future__`` imports bind none)."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


# __init__.py imports to re-export, so only the other modules are linted
LINTED = sorted(p for p in glob.glob(os.path.join(os.path.dirname(bringform.__file__), "*.py"))
                if os.path.basename(p) != "__init__.py")


@pytest.mark.parametrize("path", LINTED, ids=os.path.basename)
def test_a_module_imports_no_name_it_does_not_use(path):
    assert _unused_imports(path) == set()


_SLOTS = {"_num", "_den", "_c", "_prec"}


def _slot_reads(path):
    """(line, slot) for each access to a Scalar slot in a module."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in _SLOTS)


# scalars owns the representation; every other module goes through its
# methods and kernels, so the number rule has one copy
OUTSIDE_SCALARS = sorted(p for p in glob.glob(os.path.join(os.path.dirname(bringform.__file__),
                                                            "*.py"))
                         if os.path.basename(p) != "scalars.py")


@pytest.mark.parametrize("path", OUTSIDE_SCALARS, ids=os.path.basename)
def test_only_scalars_reads_the_scalar_slots(path):
    assert _slot_reads(path) == []


class _StepMakers(ast.NodeVisitor):
    """(innermost function, line, bare) for each call of ``dual_eliminate``,
    bare when it goes by the name a tracer rebinds in the module rather than
    through an attribute, and for each ``TransformStep`` handed a table (a
    sixth argument or ``table=``)."""

    def __init__(self):
        self.scope, self.hits = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name == "dual_eliminate":
            self.hits.append((self.scope[-1], node.lineno, isinstance(f, ast.Name)))
        elif name == "TransformStep" and (len(node.args) > 5
                                          or any(k.arg == "table" for k in node.keywords)):
            self.hits.append((self.scope[-1], node.lineno, True))
        self.generic_visit(node)


# one constructor makes every step that eliminates: it alone runs both
# routes and hands the step the table the power-sum route built
@pytest.mark.parametrize("path", LINTED, ids=os.path.basename)
def test_only_the_step_constructor_eliminates_or_hands_a_step_its_table(path):
    with open(path, encoding="utf-8") as f:
        finder = _StepMakers()
        finder.visit(ast.parse(f.read(), path))
    want = [("_step", True)] * 2 if os.path.basename(path) == "pipeline.py" else []
    assert [(fn, bare) for fn, _, bare in finder.hits] == want, finder.hits


def _calls(path, names):
    """(innermost function, line, name) for each call in a module of one of
    ``names``, by its bare name or as an attribute (``math.gcd``)."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    hits = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in names:
                hits.append((scope, node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(tree, "<module>")
    return hits


# one normalizer: every rational result is reduced by ``_q``, and only the
# integer view of a vector takes gcds of its own
def test_only_the_rational_normalizer_and_the_vector_views_take_a_gcd():
    allowed = {("scalars.py", fn) for fn in ("_q", "int_vector")}
    hits = [(os.path.basename(p), fn, line)
            for p in sorted(glob.glob(os.path.join(os.path.dirname(bringform.__file__), "*.py")))
            for fn, line, _ in _calls(p, {"gcd"})]
    assert [h for h in hits if h[:2] not in allowed] == []


# one determinant: ``map_charpoly`` alone calls ``_berkowitz``, once, for
# rational and complex maps alike, and neither divides, pivots nor runs a
# Scalar kernel
def test_berkowitz_is_the_one_determinant_and_divides_by_nothing():
    path = os.path.join(os.path.dirname(bringform.__file__), "elimination.py")
    hits = [(os.path.basename(p), fn)
            for p in sorted(glob.glob(os.path.join(os.path.dirname(bringform.__file__), "*.py")))
            for fn, _, _ in _calls(p, {"_berkowitz"})]
    assert hits == [("elimination.py", "map_charpoly")]
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    banned = {"div", "mpc_div", "pivot_index"}
    called = {fn: name for fn, _, name in _calls(path, banned)}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in ("map_charpoly", "_berkowitz"):
            divisions = [n.lineno for n in ast.walk(node)
                         if isinstance(n, (ast.BinOp, ast.AugAssign))
                         and isinstance(n.op, (ast.Div, ast.FloorDiv, ast.Mod))]
            assert divisions == [], (node.name, divisions)
            assert node.name not in called, (node.name, called[node.name])
    imported = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "pivot_index" not in imported


# one path per ring for Newton's identities: the power-sum route and the
# conversions both ways, with the helpers they run, form no Scalar sum,
# product or quotient; nor do the power table's readers, the solve for a
# step's inverse map and the certificate's C(T) dot.  They work on ints and
# fixed-point Gaussian-integer blocks
def test_the_power_sum_route_calls_no_scalar_kernel():
    route = {"polynomials.py": {"power_sums", "poly_from_power_sums", "table_traces",
                                "monic_from_traces", "newton_elementary", "_newton_ints",
                                "matches_traces", "powers_mod", "solve_mod", "table_sum"},
             "elimination.py": {"transform_by_power_sums", "matches_power_sums", "_map_table"},
             "pipeline.py": {"_certificate", "step_inverse"}}
    kernels = {"add", "sub", "mul", "div", "cadd", "csub", "cmul"}
    for name, fns in route.items():
        path = os.path.join(os.path.dirname(bringform.__file__), name)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        assert fns <= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}, name
        hits = [(fn, line, kernel) for fn, line, kernel in _calls(path, kernels) if fn in fns]
        assert hits == [], (name, hits)


# the table's rows enter the ring once: ``powers_mod`` alone turns a row
# into a fixed-point vector, rounding a complex row on its ints
# (``_round_row``) with no Scalar made, and the table's readers enter no
# row; the graded Horner enters the coefficients it evaluates, not a row
def test_only_the_table_builder_turns_a_row_into_a_vector():
    polys = os.path.join(os.path.dirname(bringform.__file__), "polynomials.py")
    hits = sorted({(os.path.basename(p), fn)
                   for p in glob.glob(os.path.join(os.path.dirname(bringform.__file__), "*.py"))
                   for fn, _, _ in _calls(p, {"fixed_point", "_enter", "_round_row"})})
    readers = {"table_traces", "solve_mod"}
    assert ("polynomials.py", "powers_mod") in hits
    assert [h for h in hits if h[0] != "polynomials.py" or h[1] in readers] == []
    fixed = {fn for fn, _, _ in _calls(polys, {"fixed_point"})}
    assert fixed == {"_enter", "_graded_block", "graded_horner"}
    assert {fn for fn, _, _ in _calls(polys, {"_round_row"})} == {"powers_mod"}
    makers = {"Scalar", "from_ratio", "_leave", "_q", "fixed_point", "from_raw"}
    assert [(fn, name) for fn, _, name in _calls(polys, makers)
            if fn in ("powers_mod", "_round_row")] == []


# one |z|: ``scalars.hypot`` alone calls libmp's magnitude and square roots
# of an mpf, and every other |z| of the package goes through it
def test_only_hypot_takes_a_libmp_magnitude():
    hits = sorted({(os.path.basename(p), fn)
                   for p in glob.glob(os.path.join(os.path.dirname(bringform.__file__), "*.py"))
                   for fn, _, _ in _calls(p, {"mpc_abs", "mpf_hypot", "mpf_sqrt"})})
    assert hits == [("scalars.py", "hypot")]


# recover evaluates on one graded Horner: the Newton stages, the judgment
# of ``find_roots``, the pull-back and the root test with its residual
# (``lies_on``, ``relative_residual`` and the ints they share) run no libmp
# pair arithmetic, no Scalar kernel, no ``UniPoly.eval``, no ``mag()``, no
# mpf division and no binade bound, none judges by another path, and only
# ``graded_horner`` turns a root into ints
def test_recover_evaluates_on_the_graded_horner_alone():
    route = {"roots.py": {"_newton_stages", "_evaluate", "judge"},
             "pipeline.py": {"pull_back"},
             "polynomials.py": {"lies_on", "relative_residual", "_residual_square"}}
    kernels = {"add", "sub", "mul", "div", "cadd", "csub", "cmul", "eval", "mag", "mpf_div",
               "fixed_point", "int_vector", "_gauss_point", "mag_binades", "is_rational_tree",
               "relative_residual"}
    kernels |= {name for name in dir(mpmath.libmp) if name.startswith("mpc_")}
    for name, fns in route.items():
        path = os.path.join(os.path.dirname(bringform.__file__), name)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        assert fns <= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}, name
        hits = [(fn, line, kernel) for fn, line, kernel in _calls(path, kernels) if fn in fns]
        assert hits == [], (name, hits)
        callers = {fn for fn, _, _ in _calls(path, {"graded_horner"})}
        assert fns - {"judge", "lies_on", "relative_residual"} <= callers, (name, callers)
    # the root test and its residual reach the Horner by the ints they share
    polys = os.path.join(os.path.dirname(bringform.__file__), "polynomials.py")
    shared = {fn for fn, _, _ in _calls(polys, {"_residual_square"})}
    assert {"lies_on", "relative_residual"} <= shared, shared
    hits = sorted({(os.path.basename(p), fn)
                   for p in glob.glob(os.path.join(os.path.dirname(bringform.__file__), "*.py"))
                   for fn, _, _ in _calls(p, {"_gauss_point"})})
    assert hits == [("polynomials.py", "graded_horner")]


# one tolerance comparison: the zero test, the root test, the routes'
# cross-check and the certificate's C(T) judge on exact ints and end in
# ``scalars.within``; none takes a magnitude, forms a Scalar difference or
# rounds a value through an exit for its verdict, and the memoized bound
# that the binade shortcut read is gone
def test_every_tolerance_verdict_ends_in_one_exact_comparison():
    route = {"scalars.py": {"negligible", "close", "within"},
             "polynomials.py": {"lies_on", "coeff_mismatch", "table_sum"},
             "pipeline.py": {"_certificate"}}
    ends = {"scalars.py": {"close": "within", "negligible": "close"},
            "polynomials.py": {"lies_on": "within", "coeff_mismatch": "close"},
            "pipeline.py": {"_certificate": "within"}}
    banned = {"mag", "hypot", "sub", "from_ratio", "mag_binades"}
    for name, fns in route.items():
        path = os.path.join(os.path.dirname(bringform.__file__), name)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert fns <= defined and "_bound" not in defined, name
        hits = [(fn, call) for fn, _, call in _calls(path, banned) if fn in fns]
        # coeff_mismatch's one binade read asks only whether a shared
        # coefficient is finite, to pass it unread
        assert hits in ([], [("coeff_mismatch", "mag_binades")]), (name, hits)
        for fn, helper in ends[name].items():
            assert fn in {f for f, _, _ in _calls(path, {helper})}, (name, fn, helper)


# one owner of the ring's scaling: only ``polynomials`` multiplies modulo A
# on a block or grades a block by A's roots
def test_only_polynomials_multiplies_modulo_a_on_ints():
    hits = [(os.path.basename(p), fn, name)
            for p in sorted(glob.glob(os.path.join(os.path.dirname(bringform.__file__), "*.py")))
            for fn, _, name in _calls(p, {"gauss_mul_mod", "_graded_block"})]
    assert hits and [h for h in hits if h[0] != "polynomials.py"] == []


# one entry into the ring: A enters it exactly (``int_monic``) or graded
# (``_graded_block``) in ``_ring`` alone, so every routine of the ring has
# one body, fed by that entry
def test_only_the_rings_entry_scales_a():
    path = os.path.join(os.path.dirname(bringform.__file__), "polynomials.py")
    hits = sorted({(fn, name) for fn, _, name in _calls(path, {"int_monic", "_graded_block"})})
    assert hits == [("_ring", "_graded_block"), ("_ring", "int_monic")]


_P = UniPoly([rat(-1), rat(0), rat(1)])
_SUB = Subsidiary(1, (rat(0),))
RECORDS = {
    "AuxSolve": AuxSolve("principal-b", 1, (rat(2),), 0),
    "BiPoly": BiPoly([_P]),
    "BringAnsatz": BringAnsatz(rat(1), rat(2), rat(3), rat(4)),
    "ObstructionReport": ObstructionReport(rat(1), rat(2), rat(0), {}, {}, _P, 2, True),
    "ReductionTrace": ReductionTrace(_P, (), rat(0), rat(-1)),
    "RootConfig": RootConfig(),
    "RootSet": RootSet((rat(1), rat(-1)), True, 0),
    "SolveResult": solve_quadratic(0, -1),
    "Subsidiary": _SUB,
    "TransformStep": TransformStep("depress", _P, _SUB, _P, ()),
    "VerifyReport": VerifyReport(mpmath.mpf(0), True, ()),
}


def test_every_public_record_is_listed():
    records = {n for n in bringform.__all__ if isinstance(getattr(bringform, n), type)
               and n not in ("ConsistencyError", "DegenerateDenominator", "Scalar", "UniPoly")}
    assert records == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_read_only(name):
    rec = RECORDS[name]
    first = rec._fields[0]
    before = getattr(rec, first)
    for attempt in (lambda: setattr(rec, first, None), lambda: delattr(rec, first),
                    lambda: setattr(rec, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(rec, first) is before
    assert not hasattr(rec, "extra")


def test_a_solve_result_compares_and_prints_without_its_polynomial():
    roots = (rat(1), rat(-1))
    a = SolveResult(roots, "quadratic", _P)
    b = SolveResult(roots, "quadratic", UniPoly([rat(-2), rat(0), rat(2)]))
    assert a == b and repr(a) == repr(b) and "poly" not in repr(a)
    assert a != SolveResult(roots, "cardano", _P)
    assert "residuals" not in vars(a)  # evaluated when first read
    assert a.residuals == (0, 0) and "residuals" in vars(a)


@pytest.mark.parametrize("k", [True, 2])
def test_a_subsidiary_of_the_wrong_k_is_refused(k):
    with pytest.raises(ValueError, match=r"need k >= 1 coefficients, got k = %r and 1" % k):
        Subsidiary(k, (1,))
