"""The package's public names: each resolves on first use from its submodule."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import altpoly

# the names the package exports, by home submodule
EXPORTS = {
    "errors": ["AltpolyError", "CoefficientOverflowError", "CollocationError",
               "DivergenceError", "FeasibilityError", "NonNormalizableError",
               "RecurrenceError", "RootFindingError", "ValueRangeError"],
    "exact": ["PiRational", "double_factorial", "falling_factorial"],
    "exppoly": ["ExpPolySystem", "ProjectionResult", "ZeroSet", "e_eval", "e_norm", "e_zeros",
                "ea_derivative_relation_residual", "ea_eval", "et_eval",
                "legendre_type_quadrature", "member_values", "project", "semi_axis_rule"],
    "marginal": ["MarginalKind", "a_coefficients", "a_norm", "a_recurrence",
                 "a_single_integral", "is_normalizable", "t_coefficients", "t_norm",
                 "t_recurrence", "t_single_integral"],
    "poly": ["DensePoly"],
    "polycore": ["PolyParams", "ajp_coefficients", "ajp_derivative", "ajp_eval", "ajp_norm_h",
                 "ajp_recurrence", "ajp_single_integral", "direct_norm_d", "ode_residual",
                 "shifted_jacobi", "weight_eval"],
    "quad": ["QuadRule", "beta_moment", "gauss_jacobi_rule", "integrate_semi_axis",
             "integrate_unit", "weighted_inner_product"],
    "zfun": ["ZSystemSpec", "lambda_max", "etilde_eval", "weight_peak", "z_build",
             "z_build_real", "z_collocation_fit", "z_search", "z_search_real"],
}
PAIRS = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", PAIRS)
def test_every_export_resolves_to_its_home_object(module, name):
    home = getattr(importlib.import_module(f"altpoly.{module}"), name)
    assert getattr(altpoly, name) is home
    assert name in dir(altpoly)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from altpoly import *", namespace)
    for module, name in PAIRS:
        assert namespace[name] is getattr(importlib.import_module(f"altpoly.{module}"), name)
    assert sorted(altpoly.__all__) == sorted(name for _, name in PAIRS)


def test_version():
    assert altpoly.__version__ == "0.1.0"


def test_bare_import_loads_no_submodule_and_resolves_them_on_use():
    code = ("import altpoly, sys\n"
            "assert [m for m in sys.modules if m.startswith('altpoly.')] == []\n"
            "assert altpoly.quad.beta_moment(1, 0) == 1 / 2\n"
            "assert altpoly.verify.run_suite is sys.modules['altpoly.verify'].run_suite\n"
            "from altpoly import zfun, ZSystemSpec\n"
            "assert ZSystemSpec is zfun.ZSystemSpec\n"
            "assert 'numpy' not in sys.modules\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


@pytest.mark.parametrize("args", [
    ["coeffs", "--family", "ajp", "--alpha", "-1/2", "--beta", "-1/2", "--n", "4", "--k", "1"],
    ["tabulate", "--family", "t", "--n", "3", "--k", "1", "--points", "5", "--mode", "exact"],
    ["plot-data", "--family", "a", "--n", "3", "--points", "5", "--mode", "exact"],
])
def test_exact_commands_load_no_quad(args):
    # polycore reaches the Beta moment through exact.gamma2_ratio, not quad
    code = ("import sys\n"
            "from altpoly.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "assert 'altpoly.polycore' in sys.modules\n"
            "assert 'altpoly.quad' not in sys.modules, 'quad loaded'\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


def _imported_and_used(tree):
    """The names a module's import statements bind, and the names it reads."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("path", sorted(Path(altpoly.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    imported, used = _imported_and_used(ast.parse(path.read_text(encoding="utf-8")))
    assert not imported - used, f"{path.name} imports unused {sorted(imported - used)}"


def _names_read(node):
    """The names and attribute names a syntax tree reads."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


# module-level names nothing in the package reads, kept on purpose: the
# package's module hooks, and the acceptance gate's documented entry
UNREFERENCED_BY_DESIGN = {("__init__", "__getattr__"), ("__init__", "__dir__"),
                          ("verify", "run_rows")}


def test_every_module_level_definition_is_used_or_exported():
    # a function or class that only tests reach is library code nothing needs
    tops = [(path.stem, top) for path in Path(altpoly.__file__).parent.glob("*.py")
            for top in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [_names_read(top) for _, top in tops]
    unused = []
    for i, (module, node) in enumerate(tops):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        key = (module, node.name)
        if node.name in EXPORTS.get(module, ()) or key in UNREFERENCED_BY_DESIGN:
            continue
        # the definition's own body does not count
        if not any(node.name in names for j, names in enumerate(reads) if j != i):
            unused.append(key)
    assert not unused, f"defined but never used or exported: {sorted(unused)}"


# the documented shared kernels: the downward recurrence and the family's
# step factors, which the T recurrence rescales; the norm and integral
# kernels behind ajp_norm_h and ajp_single_integral, which the marginal
# names call with their scale; and the Gamma quotient on doubled arguments
# with its doubling, which polycore's norms and integrals call
SHARED_PRIVATE = {("marginal", "polycore", "_downward_recurrence"),
                  ("marginal", "polycore", "_recurrence_factors"),
                  ("marginal", "polycore", "_norm_h"),
                  ("marginal", "polycore", "_single_integral"),
                  ("polycore", "exact", "_doubled"),
                  ("polycore", "exact", "_gamma_quotient")}


def test_no_module_imports_a_private_name_of_a_sibling():
    # a private name belongs to its module; a sibling that needs it reaches
    # past the module's public functions
    reach = [(path.stem, node.module, alias.name)
             for path in Path(altpoly.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")]
    assert set(reach) - SHARED_PRIVATE == set(), sorted(set(reach) - SHARED_PRIVATE)


# the one index check, and semi_axis_point's check on a point t
RANGE_OWNERS = {("exact", "whole_index"), ("exppoly", "semi_axis_point")}
# a message that states a range: "k <= n", "n >= 1" or "k = 5 outside 0..4";
# "outside the open domain" (QuadRule's nodes) names no index range
RANGE_MESSAGE = re.compile(r"<=|>=|outside \S*\.\.")
# a hand-written count check ("need at least two sample points"); the CLI
# keeps its usage wording for argparse ("--n must be at least 1")
COUNT_MESSAGE = re.compile(r"at least")


def test_no_raise_but_the_index_helper_states_an_index_range():
    # every entry point takes its indices through exact.whole_index; a raise
    # of its own that states a range is a second check with a second wording
    stray = []
    for path in Path(altpoly.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owned = {id(node) for top in ast.walk(tree)
                 if isinstance(top, ast.FunctionDef) and (path.stem, top.name) in RANGE_OWNERS
                 for node in ast.walk(top)}
        patterns = (RANGE_MESSAGE,) if path.stem == "cli" else (RANGE_MESSAGE, COUNT_MESSAGE)
        stray += [(path.stem, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and node.exc and id(node) not in owned
                  and any(p.search(ast.unparse(node.exc)) for p in patterns)]
    assert not stray, sorted(stray)


def _absolute_imports(tree):
    """The top-level names of the modules a syntax tree imports absolutely."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_only_the_cli_imports_json_or_argparse():
    # the CLI formats every result; the library modules return values
    reach = [(path.stem, name) for path in Path(altpoly.__file__).parent.glob("*.py")
             if path.stem != "cli"
             for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
             if name in ("json", "argparse")]
    assert not reach, sorted(reach)


def _private_attributes(tree):
    """The single-underscore attribute names a module's classes define: as
    methods, in __slots__, or by assignment to self._name."""
    names = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                names |= {elt.value for elt in ast.walk(node.value)
                          if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"):
                names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_no_module_reads_a_private_attribute_of_another_modules_class():
    # a class's private attributes belong to its module; a reader elsewhere
    # reaches past the class's public methods
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(altpoly.__file__).parent.glob("*.py")}
    private = {module: _private_attributes(tree) for module, tree in trees.items()}
    reads = []
    for module, tree in trees.items():
        foreign = set().union(*(names for other, names in private.items() if other != module))
        reads += [(module, node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr in foreign - private[module]]
    assert not reads, sorted(reads)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        altpoly.no_such_name
    assert not hasattr(altpoly, "_EXPORT")
    with pytest.raises(ImportError):
        exec("from altpoly import no_such_name", {})


README = Path(__file__).resolve().parents[1] / "README.md"
# backticked snake_case names in the README that name no package definition:
# a directory, FLINT's polynomial type, benchmark metrics and math subscripts
README_NON_DEFINITIONS = {"__pycache__", "fmpq_poly", "ops_per_s", "setup_s", "peak_rss_mb",
                          "c_", "mu_", "x_s"}


def _defined_names():
    """Every module-level definition, class attribute and dataclass field of
    the package's modules, __init__ included."""
    names = set()
    for path in Path(altpoly.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in [top, *(top.body if isinstance(top, ast.ClassDef) else ())]:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def readme_names(text):
    """The snake_case names of the text's backticked spans outside fenced
    blocks: a span that is a name, dotted or not, alone or called, gives its
    last part."""
    names = set()
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        head = re.match(r"([A-Za-z_][\w.]*)(?:\(|$)", span)
        last = head.group(1).rsplit(".", 1)[-1] if head else ""
        if re.fullmatch(r"_*[a-z][a-z0-9]*(?:_[a-z0-9]*)+", last):
            names.add(last)
    return names


def test_the_readme_names_only_what_the_package_defines():
    text, defined = README.read_text(encoding="utf-8"), _defined_names()
    names = readme_names(text)
    assert names - defined - README_NON_DEFINITIONS == set(), \
        sorted(names - defined - README_NON_DEFINITIONS)
    # an exemption the README no longer needs is dropped from the list
    assert README_NON_DEFINITIONS <= names - defined, \
        sorted(README_NON_DEFINITIONS - (names - defined))
    # a README that still names a deleted function fails the check
    stale = readme_names(text + "\nthe guard's `polycore.rounded_jacobi_coefficients(m, a, b)`")
    assert stale - defined - README_NON_DEFINITIONS == {"rounded_jacobi_coefficients"}
    assert {"ajp_coefficients", "whole_index", "member_poly", "__getattr__"} <= names & defined
