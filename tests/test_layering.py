"""Module boundaries of the rieffel package, read from its source with ast.

The package exports a pinned list of names, one per operation.  No module
imports a private (underscore) name from a sibling module, no test imports
one from rieffel, and every relative import sits at module level, so each
module's dependencies are listed in its header.  numpy's FFT is called
only by grids and by the two kernels that spread or convolve raw FFT
coefficients (the product kernel with its coefficient finish); every other
transform goes through grids.  No module tests
a symbol's class, and symbols are evaluated point by point only inside
eval methods and the generic slab writer PhaseSymbol._fill.
"""
import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rieffel"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


# the product kernel leaves its sum in the transform domain, and its
# coefficient finish runs the inverse FFT
FFT_ALLOWED = {"grids": None,  # anywhere in the module
               "deformation": ("_twisted_kernel", "_finish_coefficients"),
               "quantization": ("TranslationSymbol._shear",)}


def find(tree, match):
    """(node, dotted path of the enclosing classes and functions, or None at
    module level) for each node where match(node)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((child, scope))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)
    visit(tree, None)
    return found


def relative_imports(tree):
    """(node, enclosing scope or None) for each `from .x import ...`."""
    return find(tree, lambda n: isinstance(n, ast.ImportFrom) and n.level > 0)


def private_rieffel_imports(tree):
    """(line, dotted name) for each import of an underscore name from rieffel."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            head, *rest = name.split(".")
            if head == "rieffel" and any(part.startswith("_") for part in rest):
                found.append((node.lineno, name))
    return sorted(found)


def fft_uses(tree):
    """(node, enclosing scope or None) for each `np.fft` / `numpy.fft`."""
    return find(tree, lambda n: isinstance(n, ast.Attribute) and n.attr == "fft"
                and isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy"))


def fft_allowed(module, scope):
    if module not in FFT_ALLOWED:
        return False
    where = FFT_ALLOWED[module]
    return where is None or any(scope == w or (scope or "").startswith(w + ".")
                                for w in where)


def test_modules_found():
    assert {"grids.py", "quantization.py", "symbolic_calculus.py"} <= {
        p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_or_local_relative_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for node, func in relative_imports(tree):
        private = [a.name for a in node.names if a.name.startswith("_")]
        if private:
            problems.append(f"line {node.lineno}: private {private} from .{node.module}")
        if func is not None:
            problems.append(f"line {node.lineno}: import from .{node.module} inside {func}()")
    assert not problems, "\n".join(problems)


def test_guard_detects_violations():
    bad = ast.parse("from .a import _x\n\ndef f():\n    from .b import y\n")
    found = relative_imports(bad)
    assert [(n.module, f) for n, f in found] == [("a", None), ("b", "f")]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.stem)
def test_tests_import_no_private_rieffel_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = [f"line {line}: private {name}"
                for line, name in private_rieffel_imports(tree)]
    assert not problems, "\n".join(problems)


def test_private_import_guard_detects_violations():
    bad = ast.parse("from rieffel.suites import run_suite, _band_limited_F\n"
                    "import rieffel._impl.core, numpy._core\n"
                    "from rieffel import _mgf\n"
                    "from numpy import _globals\n"
                    "def f():\n"
                    "    from rieffel.mgf import _HEADER, MAGIC\n")
    assert private_rieffel_imports(bad) == [
        (1, "rieffel.suites._band_limited_F"), (2, "rieffel._impl.core"),
        (3, "rieffel._mgf"), (6, "rieffel.mgf._HEADER")]
    good = ast.parse("from rieffel.suites import band_limited_field\n"
                     "from .helpers import _local\n")
    assert private_rieffel_imports(good) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_fft_only_in_grids_and_raw_coefficient_kernels(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = [f"line {node.lineno}: np.fft in {scope or 'module body'}"
                for node, scope in fft_uses(tree)
                if not fft_allowed(path.stem, scope)]
    assert not problems, "\n".join(problems)


def test_fft_guard_detects_violations():
    bad = ast.parse(
        "x = np.fft.fft(y)\n"
        "class TranslationSymbol:\n"
        "    def _shear(self):\n"
        "        return np.fft.ifftn(np.fft.fftn(a))\n"
        "    def partial(self):\n"
        "        return numpy.fft.fft(a)\n"
        "def _twisted_kernel():\n"
        "    def inner():\n"
        "        return np.fft.fft(a)\n")
    found = [(n.lineno, s) for n, s in fft_uses(bad)]
    assert found == [(1, None), (4, "TranslationSymbol._shear"),
                     (4, "TranslationSymbol._shear"),
                     (6, "TranslationSymbol.partial"),
                     (9, "_twisted_kernel.inner")]
    assert [fft_allowed("quantization", s) for _, s in found] == [
        False, True, True, False, False]
    assert fft_allowed("deformation", "_twisted_kernel.inner")
    assert not fft_allowed("deformation", "_twisted_kernel_v2")
    assert fft_allowed("deformation", "_finish_coefficients")
    # the channels-last wrappers transpose around the kernel and its
    # finishes, or call grids at J = 0, and the sample finish reverses
    # indices and calls grids
    assert not fft_allowed("deformation", "twisted_coefficients")
    assert not fft_allowed("deformation", "_finish_samples")
    assert not fft_allowed("suites", None)
    assert fft_allowed("grids", "fourier_multiplier")


def phase_symbol_classes(trees):
    """Names of PhaseSymbol and of every class deriving from it, directly or
    through another, across the parsed modules."""
    classes = [n for tree in trees for n in ast.walk(tree)
               if isinstance(n, ast.ClassDef)]
    names = {"PhaseSymbol"}
    while True:
        more = {c.name for c in classes if any(
            getattr(b, "id", getattr(b, "attr", None)) in names for b in c.bases)}
        if more <= names:
            return names
        names |= more


def symbol_class_checks(tree, symbol_classes):
    """(node, scope) for each isinstance call whose class argument names one
    of symbol_classes (alone or in a tuple)."""
    def named(arg):
        parts = arg.elts if isinstance(arg, ast.Tuple) else [arg]
        return {getattr(p, "id", getattr(p, "attr", None)) for p in parts}
    return find(tree, lambda n: isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "isinstance"
                and len(n.args) == 2 and named(n.args[1]) & symbol_classes)


def eval_calls(tree):
    """(node, scope) for each `<expr>.eval(...)` call."""
    return find(tree, lambda n: isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute) and n.func.attr == "eval")


def eval_allowed(scope):
    # an eval implementation, or the generic writer behind sample and slabs
    return scope is not None and (scope.split(".")[-1] == "eval"
                                  or scope == "PhaseSymbol._fill")


def test_symbols_are_read_through_one_protocol():
    # no module branches on a symbol's class, and outside the eval methods
    # and the generic writer symbols are read through sample / slabs only
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    symbol_classes = phase_symbol_classes(trees.values())
    assert {"GridSymbol", "TranslationSymbol", "TrigPolySymbol",
            "CallableSymbol"} < symbol_classes
    problems = []
    for module, tree in trees.items():
        problems += [f"{module}.py:{node.lineno}: isinstance on a symbol class"
                     for node, _ in symbol_class_checks(tree, symbol_classes)]
        problems += [f"{module}.py:{node.lineno}: .eval( in {scope or 'module body'}"
                     for node, scope in eval_calls(tree) if not eval_allowed(scope)]
    assert not problems, "\n".join(problems)


def test_symbol_protocol_guard_detects_violations():
    bad = ast.parse(
        "class PhaseSymbol:\n"
        "    def _fill(self, grid, out):\n"
        "        yield self.eval(x, xi)\n"
        "class GridSymbol(PhaseSymbol):\n"
        "    def eval(self, x, xi):\n"
        "        return [s.eval(x, xi) for s in self.parts]\n"
        "class Sheared(quantization.GridSymbol):\n"
        "    pass\n"
        "def recover(a):\n"
        "    if isinstance(a, (int, Sheared)):\n"
        "        return a.eval(x, 0)\n"
        "    return isinstance(a, dict) or isinstance(a, GridSymbol)\n")
    classes = phase_symbol_classes([bad])
    assert classes == {"PhaseSymbol", "GridSymbol", "Sheared"}
    assert [n.lineno for n, _ in symbol_class_checks(bad, classes)] == [10, 12]
    found = [(n.lineno, s) for n, s in eval_calls(bad)]
    assert found == [(3, "PhaseSymbol._fill"), (6, "GridSymbol.eval"),
                     (11, "recover")]
    assert [eval_allowed(s) for _, s in found] == [True, True, False]
    assert not eval_allowed(None) and not eval_allowed("GridSymbol._fill")


PUBLIC_API = [
    "CallableSymbol", "CapabilityError", "ComposedOp", "CutoffFamily",
    "DivergenceError", "GammaKernel", "GridMismatchError", "GridSpec",
    "GridSymbol", "HeisenbergPoint", "KernelField", "LeftActionOp",
    "MGFFormatError", "ModuleFunction", "OperatorHandle", "PdoOp",
    "PhaseSymbol", "ResolutionError", "SkewForm",
    "SuiteConfig", "TranslationSymbol", "TrigPolySymbol", "VerificationReport",
    "approximate_identity", "b_transform", "boundary_report",
    "cnorm", "conjugate_operator", "constant_symbol", "coordinate_symbol",
    "deformed_product", "fourier", "gamma_reconstruct", "gamma_reproduce",
    "inner_product", "intertwine_check", "modulate", "module_norm",
    "operator_norm_estimate", "oscillatory_integral",
    "pi_seminorm", "poisson_bracket", "positivity_defect", "read_mgf",
    "recover_translation_symbol", "run_suite",
    "smoothness_probe", "symbol_to_kernel",
    "translate", "translation_certificate", "write_mgf"]

# one-line aliases of operations that have one name: L_F u and R_G u are
# deformed_product, E_p u is HeisenbergPoint.apply, a_{z,zeta} is a.shift;
# the wrapper of M_k(C), whose elements are (k, k) arrays with a* = a.conj().T;
# the handles no library path applied: the identity, and R_G, which is
# deformed_product(u, G, J); and schwartz_seminorm, which only tests called.
# sample_symbol, pdo_apply and adjoint_symbol stay in rieffel.quantization
# for perfbench but leave the package namespace (PUBLIC_API above).
RETIRED_NAMES = ("left_action", "right_action", "weyl_shift", "shifted_symbol",
                 "AlgebraElement", "star", "IdentityOp", "RightActionOp",
                 "schwartz_seminorm", "twisted_samples")


def test_public_api_pinned():
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = sorted(a.asname or a.name for node in ast.walk(init)
                      if isinstance(node, ast.ImportFrom) for a in node.names)
    assert exported == PUBLIC_API
    for path in MODULES:
        name = "rieffel" if path.stem == "__init__" else f"rieffel.{path.stem}"
        module = importlib.import_module(name)
        assert not [a for a in RETIRED_NAMES if hasattr(module, a)], name
    # SkewForm(0.0, n) is the zero form; it has no second name
    assert not hasattr(importlib.import_module("rieffel.deformation").SkewForm, "zero")
