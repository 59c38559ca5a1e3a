"""Rules on the library source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import charp_dilog

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "perfbench", "scripts")


def test_no_assert_statements():
    # invariants are typed exceptions because python -O strips every assert
    files = sorted(Path(charp_dilog.__file__).parent.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_square_and_multiply_lives_only_in_power():
    # every power goes through gf.power, the one loop that halves an exponent
    found = []
    for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        home = [line for node in tree.body
                if path.name == "gf.py" and isinstance(node, ast.FunctionDef)
                and node.name == "power"
                for line in range(node.lineno, node.end_lineno + 1)]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)
                  and isinstance(node.value, ast.Constant) and node.value.value == 1
                  and node.lineno not in home]
    assert not found, f"square-and-multiply loops outside gf.power: {found}"


def test_precision_doubling_lives_only_in_germs_at_zero():
    # every germ route retries through localfield.germs_at_zero, the one loop
    # that doubles the precision when a germ runs out of known coefficients
    inside, outside = [], []
    for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        home = [line for node in tree.body
                if path.name == "localfield.py" and isinstance(node, ast.FunctionDef)
                and node.name == "germs_at_zero"
                for line in range(node.lineno, node.end_lineno + 1)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "InsufficientPrecision" in ast.unparse(node.type)):
                (inside if node.lineno in home else outside).append(f"{path.name}:{node.lineno}")
    assert inside, "localfield.germs_at_zero no longer catches InsufficientPrecision"
    assert not outside, f"InsufficientPrecision caught outside germs_at_zero: {outside}"


def test_euclid_runs_only_where_ratfn_takes_a_normal_form():
    # RatFn arithmetic sums over a common multiple of known base powers; a
    # gcd runs only in the public constructor and in reduced(), through
    # _reduce_fraction, and no size threshold brings it back
    assert not [f"{path}:{i}" for path in sorted((ROOT / "src").rglob("*.py"))
                for i, line in enumerate(path.read_text().splitlines(), start=1)
                if "_REDUCE_DEGREE" in line]
    tree = ast.parse((Path(charp_dilog.__file__).parent / "localfield.py").read_text())
    callers = set()
    for node in tree.body:
        for owner in (node.body if isinstance(node, ast.ClassDef) else [node]):
            name = getattr(owner, "name", "<body>")
            where = f"{node.name}.{name}" if owner is not node else name
            callers.update(where for call in ast.walk(owner) if isinstance(call, ast.Call)
                           and (getattr(call.func, "attr", None) == "gcd"
                                or getattr(call.func, "id", None) == "_reduce_fraction"))
    assert callers == {"_reduce_fraction", "RatFn.__init__", "RatFn.reduced"}, callers


def test_only_residue_field_skips_the_irreducibility_test():
    # gf.residue_field is the one caller of the extension constructor that
    # skips the Rabin test; every other polynomial is tested where it enters
    inside, outside = [], []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(), filename=str(path))
            home = [line for node in module.body
                    if path == Path(charp_dilog.__file__).parent / "gf.py"
                    and isinstance(node, ast.FunctionDef) and node.name == "residue_field"
                    for line in range(node.lineno, node.end_lineno + 1)]
            for node in ast.walk(module):
                if isinstance(node, ast.Call) and any(k.arg == "_irreducible" for k in node.keywords):
                    (inside if node.lineno in home else outside).append(f"{path}:{node.lineno}")
    assert inside, "gf.residue_field no longer builds its extension unchecked"
    assert not outside, f"unchecked extensions built outside gf.residue_field: {outside}"


def _callers_of(func: str) -> list[str]:
    """The module-level definitions and methods under src/ that call ``func``,
    once per call, as module.name or module.Class.method."""
    callers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        for node in module.body:
            for owner in (node.body if isinstance(node, ast.ClassDef) else [node]):
                name = getattr(owner, "name", "<body>")
                where = f"{path.stem}.{node.name}.{name}" if owner is not node else f"{path.stem}.{name}"
                callers += [where for call in ast.walk(owner) if isinstance(call, ast.Call)
                            and func in (getattr(call.func, "attr", None),
                                         getattr(call.func, "id", None))]
    return callers


def test_flatness_is_checked_only_where_a_symbol_is_built():
    # bloch.BlochSym.__post_init__ is the one caller of flat_check, so a
    # non-flat generator cannot enter a symbol and no route re-checks one
    callers = _callers_of("flat_check")
    assert callers == ["bloch.BlochSym.__post_init__"], callers


def test_only_the_element_kernel_multiplies_by_schoolbook():
    # every field, tower and germ truncation multiplies through one packed
    # product; gf.schoolbook is named only where it is defined and by
    # tpoly.ElementKernel (and its import), the ring with no packed form
    found = set()
    for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            default = "<import>" if isinstance(node, ast.ImportFrom) else "<body>"
            owner = getattr(node, "name", default)
            if any("schoolbook" in (getattr(sub, "id", None), getattr(sub, "attr", None),
                                    getattr(sub, "name", None))
                   for sub in ast.walk(node)):
                found.add(f"{path.stem}.{owner}")
    assert found == {"gf.schoolbook", "tpoly.<import>", "tpoly.ElementKernel"}, found


def test_one_remainder_kernel_divides_for_every_field():
    # gf._rreduce is the one division with remainder: the F_p-only kernel,
    # the extension-only divmod and the trim helper are gone, and only
    # Poly.__divmod__, Poly.gcd and the extension inverse call it
    gone = {"_prime_reduce", "_rdivmod", "_rtrim"}
    named = [f"{path}:{getattr(node, 'lineno', '?')}" for tree in TREES
             for path in sorted((ROOT / tree).rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if gone & {getattr(node, key, None) for key in ("id", "attr", "name")}]
    assert not named, f"removed division kernels still named: {named}"
    callers = set(_callers_of("_rreduce"))
    assert callers == {"gf.Poly.__divmod__", "gf.Poly.gcd", "gf.Fq._raw_inv"}, callers


def test_one_series_division_for_inverses_and_expansions():
    # tpoly._series_div is the one power-series division: the inverse-only
    # recurrence and the weighting pass of the old logarithm are gone, and only
    # Trunc.inverse, the germ inverse and expand_at call it
    gone = {"_series_inverse", "_weighted"}
    named = [f"{path}:{getattr(node, 'lineno', '?')}" for tree in TREES
             for path in sorted((ROOT / tree).rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if gone & {getattr(node, key, None) for key in ("id", "attr", "name")}]
    assert not named, f"removed series kernels still named: {named}"
    callers = sorted(_callers_of("_series_div"))
    assert callers == ["localfield.LaurentRing._raw_inv", "localfield.expand_at",
                       "tpoly.Trunc.inverse"], callers


def test_one_local_model_for_the_hensel_root():
    # the root of the uniformizer comes from its germ at s = 0: wedge._rows is
    # read by the root and by the reduction at it, and wedge imports nothing
    # from gf, so no lcm of denominators or other global route comes back
    assert sorted(_callers_of("_rows")) == ["wedge.local_point", "wedge.reduce_at"]
    tree = ast.parse((Path(charp_dilog.__file__).parent / "wedge.py").read_text())
    imported = [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and "gf" in [(getattr(node, "module", None) or "").split(".")[-1],
                             *(alias.name.split(".")[-1] for alias in node.names)]]
    assert not imported, f"wedge imports from gf: {imported}"


def test_log_circ_runs_no_inverse_and_no_product(monkeypatch):
    # the logarithm is one recurrence on raws: no Trunc.inverse, no Trunc product
    from charp_dilog.gf import Fq
    from charp_dilog.localfield import RatFnRing, germs_at_zero
    from charp_dilog.tpoly import Trunc, log_circ

    def forbidden(*args):
        raise AssertionError("log_circ called a Trunc inverse or product")

    f11 = Fq(11)
    f121 = Fq(11, modulus=[1, 0, 1], base=f11)
    ring = RatFnRing(Fq(5))
    units = [Trunc(f11, 11, range(1, 12)), Trunc(f121, 11, [f121.gen(), 3, 0, 5]),
             Trunc(ring, 5, [ring.gen + 1, ring.gen, 2])]
    germ = germs_at_zero(ring.field, 6, lambda g: g)
    want = [log_circ(u) for u in units] + [log_circ(germ(units[-1]))]
    for name in ("inverse", "__mul__", "__rmul__"):
        monkeypatch.setattr(Trunc, name, forbidden)
    assert [log_circ(u) for u in units] + [log_circ(germ(units[-1]))] == want


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


LIBRARY_TREES = ("src", "perfbench", "scripts")


def unreferenced_definitions(root: Path) -> list[str]:
    """Non-dunder functions, classes and methods of the library that nothing
    uses as a name, an attribute, an import or an identifier-like string (the
    benchmark's tracer binds by string).  A module-level function or class
    needs a use under ``LIBRARY_TREES``; an import into ``__init__`` counts,
    and puts it on the public list.  Methods and nested functions may also be
    used from the tests."""
    used = {tree: set() for tree in TREES}
    top, nested = [], []
    package = root / "src" / "charp_dilog"
    for tree in TREES:
        for path in sorted((root / tree).rglob("*.py")):
            module = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(module):
                if isinstance(node, ast.Name):
                    used[tree].add(node.id)
                elif isinstance(node, ast.Attribute):
                    used[tree].add(node.attr)
                elif isinstance(node, ast.alias):
                    used[tree].update(node.name.split("."))
                    used[tree].add(node.asname)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    parts = node.value.split(".")
                    if all(part.isidentifier() for part in parts):
                        used[tree].update(parts)
                elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                      and path.parent == package and not _is_dunder(node.name)):
                    (top if node in module.body else nested).append(
                        (node.name, f"{path.name}:{node.lineno}"))
    in_library = set().union(*(used[tree] for tree in LIBRARY_TREES))
    anywhere = set().union(*used.values())
    return ([f"{where} {name}" for name, where in top if name not in in_library]
            + [f"{where} {name}" for name, where in nested if name not in anywhere])


def test_no_unreferenced_definitions():
    dead = unreferenced_definitions(ROOT)
    assert not dead, f"definitions nothing refers to: {dead}"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_exist():
    # the benchmark's tracer wraps library attributes by name; a refactor that
    # drops or renames one would make every traced run exit early
    spans = _load_spans()
    missing = []
    for name, mod_name, owner, attrs, *_ in spans.SPANS + spans.COUNTERS:
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        target = module if owner is None else getattr(module, owner, None)
        missing += [f"{name}: {mod_name}.{owner + '.' if owner else ''}{attr}"
                    for attr in attrs if target is None or attr not in vars(target)]
    for mod_name, attr in spans.REQUIRED_REBINDS:
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"tracer bindings missing from the library: {missing}"
