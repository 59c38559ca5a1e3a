"""Rules on the library source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import charp_dilog
from charp_dilog import gf
from charp_dilog.gf import Fq, FqElem, Poly, RingElem
from charp_dilog.localfield import LaurentLocal, LaurentRing, RatFn, RatFnRing
from charp_dilog.tpoly import ModulusMismatch, Trunc

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
    # skips the distinct-degree test; every other polynomial is tested where
    # it enters
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


def test_one_irreducibility_test():
    # gf.is_irreducible reads the distinct-degree split that factorization
    # runs (Ben-Or's test) and takes no power, gcd or loop of its own, so
    # Rabin's test and its prime divisors of the degree are gone from src/
    tree = ast.parse((Path(charp_dilog.__file__).parent / "gf.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "is_irreducible")
    called = {getattr(call.func, "attr", None) or getattr(call.func, "id", None)
              for call in ast.walk(body) if isinstance(call, ast.Call)}
    assert "_distinct_degree" in called, called
    assert not called & {"poly_powmod", "power", "gcd"}, called
    assert not [node for node in ast.walk(body) if isinstance(node, (ast.For, ast.While))]
    named = [f"{path.name}:{getattr(node, 'lineno', '?')}"
             for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if "_prime_divisors" in {getattr(node, key, None) for key in ("id", "attr", "name")}]
    assert not named, f"Rabin's prime divisors still named: {named}"


def _owners_of(match) -> list[str]:
    """The module-level definitions and methods under src/ that hold a node
    ``match`` accepts, once per node, as module.name or module.Class.method."""
    owners = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        for node in module.body:
            for owner in (node.body if isinstance(node, ast.ClassDef) else [node]):
                name = getattr(owner, "name", "<body>")
                where = f"{path.stem}.{node.name}.{name}" if owner is not node else f"{path.stem}.{name}"
                owners += [where for found in ast.walk(owner) if match(found)]
    return owners


def _callers_of(func: str) -> list[str]:
    """The module-level definitions and methods under src/ that call ``func``,
    once per call."""
    return _owners_of(lambda node: isinstance(node, ast.Call)
                      and func in (getattr(node.func, "attr", None), getattr(node.func, "id", None)))


def test_flatness_is_checked_only_where_a_symbol_is_built():
    # bloch.BlochSym.__post_init__ is the one caller of flat_check, so a
    # non-flat generator cannot enter a symbol and no route re-checks one
    callers = _callers_of("flat_check")
    assert callers == ["bloch.BlochSym.__post_init__"], callers


def test_only_the_element_kernel_multiplies_by_schoolbook():
    # every ring owns its product: fields and germ truncations multiply by one
    # packed product and RatFnRing by its own _raw_mul_low, so nothing under
    # src/ names the schoolbook oracle of tests/oracles.py or an element
    # kernel shared between rings
    found = []
    for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None), getattr(node, "module", None)):
                if isinstance(name, str) and ("schoolbook" in name or "ElementKernel" in name):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def _is_op(node, word: str, op) -> bool:
    """Whether node is a ``op`` expression or a call whose name contains ``word``."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, op)
    return isinstance(node, ast.Call) and word in (getattr(node.func, "attr", None)
                                                   or getattr(node.func, "id", None) or "")


def _names_in(node) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _evaluation_loops(path: Path) -> set[str]:
    """The module-level definitions and methods of one module with a loop that
    carries a value through a product and a value through a sum of itself,
    the shape of a polynomial evaluation: by Horner's rule, acc = acc x + c,
    or term by term, x^n = x^(n-1) x and acc = acc + c_n x^n.  A value is a
    name, assigned whole or through a subscript; a product reads it inside a
    ``*`` or a call named like ``mul``, and a sum reads it where a ``+`` or a
    call named like ``add`` is assigned to it."""
    found = set()
    module = ast.parse(path.read_text(), filename=str(path))
    for node in module.body:
        for owner in (node.body if isinstance(node, ast.ClassDef) else [node]):
            name = getattr(owner, "name", "<body>")
            where = f"{path.stem}.{node.name}.{name}" if owner is not node else f"{path.stem}.{name}"
            for loop in ast.walk(owner):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                by_product, by_sum = set(), set()
                for step in ast.walk(loop):
                    if not isinstance(step, ast.Assign) or len(step.targets) != 1:
                        continue
                    target = step.targets[0]
                    while isinstance(target, ast.Subscript):
                        target = target.value
                    if not isinstance(target, ast.Name):
                        continue
                    parts = list(ast.walk(step.value))
                    if any(_is_op(sub, "mul", ast.Mult) and target.id in _names_in(sub)
                           for sub in parts):
                        by_product.add(target.id)
                    if (target.id in _names_in(step.value)
                            and any(_is_op(sub, "add", ast.Add) for sub in parts)):
                        by_sum.add(target.id)
                if by_product and by_sum:
                    found.add(where)
    return found


def test_one_horner_kernel_evaluates_every_polynomial():
    # gf.horner is the one polynomial evaluation: tpoly._horner and the loops
    # of Poly.evaluate and trunc_exp are gone, and only these callers run it.
    # Two loops stay apart, each slower through horner when measured:
    # - Poly.shifted, expand_at's Taylor shift (one product of (d+1)-coefficient
    #   lists per degree): a degree-8 shift over F_5 took 26.0 against 7.4 us,
    #   and criterion 11 read a median of 1.39 against 1.18 s (5 runs each);
    # - bloch.pounds1, sum_{i<p} s^i/i: its p one-scalar coefficient lists
    #   made it take 25.9 against 21.6 ms over F_p at p = 49,999 (medians of
    #   5 alternating best-of-5 runs), past a 10% bound.
    named = [f"{path}:{getattr(node, 'lineno', '?')}" for tree in TREES
             for path in sorted((ROOT / tree).rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if "_horner" in {getattr(node, key, None) for key in ("id", "attr", "name")}]
    assert not named, f"the removed Horner kernel is still named: {named}"
    loops = set().union(*(_evaluation_loops(path)
                          for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py"))))
    assert loops == {"gf.horner", "gf.Poly.shifted", "bloch.pounds1"}, loops
    callers = sorted(set(_callers_of("horner")))
    assert callers == ["gf.Poly.evaluate", "tpoly._ladder_root", "tpoly.newton_root",
                       "tpoly.rp_eval", "wedge.reduce_at"], callers


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


def test_only_the_field_reduces_by_its_modulus():
    # Fq._reduce is the one reduction of a product by the monic modulus (its
    # degree-2 branch folds u^2 = -m1 u - m0), so the products that feed it
    # never read the modulus; besides it, only the constructor, the inverse's
    # Euclid, the field's value (its _key, which equality and hashing read)
    # and the field's repr read a .modulus
    readers = set(_owners_of(lambda node: isinstance(node, ast.Attribute)
                             and node.attr == "modulus"))
    assert readers == {"gf.Fq.__init__", "gf.Fq._reduce", "gf.Fq._raw_inv", "gf.Fq._key",
                       "gf._modulus_str"}, readers


def test_one_series_division_for_inverses_and_expansions():
    # tpoly._series_div is the one power-series division: the inverse-only
    # recurrence and the weighting pass of the old logarithm are gone, and only
    # Trunc.inverse, the germ inverse, expand_at and the face values of a
    # cycle (num/den in one division, not an inverse and a product) call it
    gone = {"_series_inverse", "_weighted"}
    named = [f"{path}:{getattr(node, 'lineno', '?')}" for tree in TREES
             for path in sorted((ROOT / tree).rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if gone & {getattr(node, key, None) for key in ("id", "attr", "name")}]
    assert not named, f"removed series kernels still named: {named}"
    callers = sorted(_callers_of("_series_div"))
    assert callers == ["cycles._boundary_point", "localfield.LaurentRing._raw_inv",
                       "localfield.expand_at", "tpoly.Trunc.inverse"], callers


def test_germ_letters_move_by_substitution_not_by_the_derivative_ladder():
    # the derivative ladder serves the rational closed forms alone; on germs
    # the reparametrization substitutes into each payload, where a ladder
    # would cost p - a germ products per letter
    assert set(_callers_of("_derivative_ladder")) == {"omega.antider_primitive",
                                                       "omega.sigma_letters"}
    tree = ast.parse((Path(charp_dilog.__file__).parent / "omega.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "sigma_image_letters")
    called = {getattr(call.func, "attr", None) or getattr(call.func, "id", None)
              for call in ast.walk(body) if isinstance(call, ast.Call)}
    assert not called & {"derivative", "_derivative_ladder", "inv_factorials"}, called


def _imports_from(module: str, sources: set[str]) -> list[str]:
    """The import statements of charp_dilog.``module`` that name one of ``sources``."""
    tree = ast.parse((Path(charp_dilog.__file__).parent / f"{module}.py").read_text())
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and sources & {(getattr(node, "module", None) or "").split(".")[-1],
                           *(alias.name.split(".")[-1] for alias in node.names)}]


def test_one_local_model_for_the_hensel_root():
    # the root of the uniformizer comes from its germ at s = 0: wedge._rows is
    # read by the root and by the reduction at it, and wedge imports nothing
    # from gf, so no lcm of denominators or other global route comes back
    assert sorted(_callers_of("_rows")) == ["wedge.local_point", "wedge.reduce_at"]
    imported = _imports_from("wedge", {"gf"})
    assert not imported, f"wedge imports from gf: {imported}"


def test_bloch_reads_its_field_off_its_arguments():
    # pounds1, and so li2p, runs over a finite field only: bloch imports
    # nothing from gf or localfield, so no F_q(s) branch comes back
    imported = _imports_from("bloch", {"gf", "localfield"})
    assert not imported, f"bloch imports from gf or localfield: {imported}"


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


def test_ratfn_arithmetic_builds_no_poly(monkeypatch):
    # RatFn arithmetic runs on raw coefficient lists: a chain of +, -, *, /,
    # **, inverse and derivative over factored values builds no Poly and
    # multiplies none; num, den and reduced() still leave the class as Polys
    from collections import Counter

    from charp_dilog.gf import Fq, Poly
    from charp_dilog.localfield import RatFn, RatFnRing

    f7 = Fq(7)
    fields = [f7, Fq(7, modulus=[1, 0, 1], base=f7)]
    values = []
    for field in fields:
        s = RatFnRing(field).gen
        a = RatFn(Poly(field, [1, 2, 1]), Poly(field, [3, 0, 1]))
        b = RatFn(Poly(field, [2, 1]), Poly(field, [3, 0, 1]) * Poly(field, [1, 1]))
        values.append((s, a, b, RatFn.const(field.one)))
    counts = Counter()

    def spy(name, func):
        def call(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return call
    monkeypatch.setattr(Poly, "__init__", spy("__init__", Poly.__init__))
    monkeypatch.setattr(Poly, "_from_raw", classmethod(spy("_from_raw", Poly._from_raw.__func__)))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Poly, name, spy("__mul__", getattr(Poly, name)))
    chains = []
    for s, a, b, one in values:
        x = (a + b) * (a - s) / (b + 2) - 3 * a ** 2
        y = (x ** -2 + b.inverse()).derivative() * x - one / (a * b) ** 3
        chains.append((x, y, y.derivative() - x, (y - y) * x, (one - one) ** 0))
    assert counts == Counter(), counts
    for x, y, dz, zero, unit in chains:
        assert not dz.is_zero and zero.is_zero and unit == 1
        assert isinstance(y.num, Poly) and isinstance(y.den, Poly) and y.reduced() == y
    assert counts["_from_raw"] > 0 and counts["__mul__"] > 0, counts


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


def test_one_element_class_over_the_raw_kernels():
    # field elements and germs are thin subclasses of gf.RingElem, whose
    # operators run the ring's kernel: neither class defines its own arithmetic,
    # and each name the benchmark counts in FqElem's own dict, its equality
    # included, is the function RingElem has, so the counter wraps the shared one
    assert issubclass(FqElem, RingElem) and issubclass(LaurentLocal, RingElem)
    arithmetic = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
                  "__eq__", "__hash__"}
    counted = next(c[3] for c in _load_spans().COUNTERS if c[0] == "gf.FqElem.ops")
    assert set(counted) <= arithmetic
    own = [name for name in arithmetic & set(vars(FqElem))
           if vars(FqElem)[name] is not getattr(RingElem, name)]
    assert not own, f"FqElem defines its own arithmetic: {own}"
    assert not [name for name in counted if name not in vars(FqElem)]
    assert vars(FqElem)["__eq__"] is gf.Arithmetic.__eq__
    # germs keep their precision rule, and so their own equality and no hash
    kernel = arithmetic - {"__eq__", "__hash__"}
    assert not kernel & set(vars(LaurentLocal)), sorted(kernel & set(vars(LaurentLocal)))
    assert not hasattr(FqElem, "_coerce")
    named = [f"{path.name}:{getattr(node, 'lineno', '?')}"
             for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if "_germ_op" in {getattr(node, key, None) for key in ("id", "attr", "name")}]
    assert not named, f"the germ operator factory is still named: {named}"


def test_one_operand_rule_for_every_arithmetic_class():
    # subtraction from, and division by and into, another operand are written
    # once, in gf.Arithmetic, over each class's _lift; a class may only alias
    # them (FqElem's counted names, Poly's __rsub__), and RingElem alone keeps
    # its kernel __rsub__ from _binary.  The per-class readers _check and
    # _coerce are gone, and the three coefficient rings read a scalar with
    # their own _operand and share the one _raw_of that gf.Ring binds
    derived = {"__truediv__", "__rtruediv__", "__rsub__"}
    own, named = [], []
    for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        for cls in (node for node in ast.walk(module) if isinstance(node, ast.ClassDef)):
            if (path.stem, cls.name) == ("gf", "Arithmetic"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name in derived:
                    own.append(f"{path.stem}.{cls.name}.{node.name}")
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(name, node.value) for name in getattr(target, "elts", [target])])
                    for name, value in pairs:
                        where = f"{path.stem}.{cls.name}.{getattr(name, 'id', '')}"
                        kernel = (where == "gf.RingElem.__rsub__" and isinstance(value, ast.Call)
                                  and getattr(value.func, "id", None) == "_binary")
                        alias = isinstance(value, (ast.Attribute, ast.Name))
                        if getattr(name, "id", None) in derived and not (kernel or alias):
                            own.append(where)
        named += [f"{path.name}:{getattr(node, 'lineno', '?')}" for node in ast.walk(module)
                  if {"_check", "_coerce"} & {getattr(node, key, None)
                                               for key in ("id", "attr", "name", "arg")}]
    assert not own, f"classes with their own -, / or reflected /: {own}"
    assert not named, f"per-class operand readers still named: {named}"
    rings = (Fq, LaurentRing, RatFnRing)
    assert all("_operand" in vars(ring) for ring in rings)
    assert vars(gf.Ring)["_raw_of"] is gf._raw_of_operand
    assert not [ring for ring in rings if "_raw_of" in vars(ring)]
    assert all(issubclass(cls, gf.Arithmetic) for cls in (RingElem, Trunc, RatFn))
    assert Poly.__rsub__ is gf.Arithmetic.__rsub__ and not hasattr(Poly, "__truediv__")


def test_one_equality_and_hash_law_for_every_arithmetic_class():
    # == and hash are written once, in gf.Arithmetic, over each class's _lift,
    # _key and _equal; a class may only alias them (FqElem's counted __eq__,
    # Poly's pair).  LaurentLocal alone keeps an __eq__ body, the germs'
    # precision rule, and so hashes nothing.  Each class's _equal compares two
    # values of one ring as their keys do (the law test checks it) without
    # building them where it can: FqElem, Poly and Trunc by their raws (a Trunc
    # over germs or functions by its coefficients), and RatFn, unless both
    # values are normal, by their difference, which takes no gcd
    bodies = {}
    for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        loaded = importlib.import_module(f"charp_dilog.{path.stem}")
        for cls in (node for node in ast.walk(module) if isinstance(node, ast.ClassDef)):
            obj = getattr(loaded, cls.name, None)
            if not (isinstance(obj, type) and (issubclass(obj, gf.Arithmetic) or obj is Poly)):
                continue
            for node in cls.body:
                names = [node.name] if isinstance(node, ast.FunctionDef) else []
                for target in node.targets if isinstance(node, ast.Assign) else []:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(name, node.value) for name in getattr(target, "elts", [target])])
                    names += [getattr(name, "id", None) for name, value in pairs
                              if not isinstance(value, (ast.Attribute, ast.Name))]
                for name in {"__eq__", "__hash__", "_equal"} & set(names):
                    bodies.setdefault(name, set()).add(f"{path.stem}.{cls.name}")
    assert bodies == {"__eq__": {"gf.Arithmetic", "localfield.LaurentLocal"},
                      "__hash__": {"gf.Arithmetic"},
                      "_equal": {"gf.FqElem", "gf.Poly", "tpoly.Trunc", "localfield.RatFn"}}, bodies
    for cls in (FqElem, Poly, Trunc, RatFn):
        assert (cls.__eq__, cls.__hash__) == (gf.Arithmetic.__eq__, gf.Arithmetic.__hash__), cls
        assert "_key" in vars(cls) and "_equal" in vars(cls), cls
    assert LaurentLocal.__hash__ is None
    # a different m is a different ring, so == reads one mismatch type
    assert issubclass(ModulusMismatch, gf.CtxMismatch)


def test_one_ring_protocol():
    # the coefficient-ring handle is written once, on gf.Ring, over each ring's
    # hooks: Fq, LaurentRing and RatFnRing derive from it and restate none of
    # its shared members; Fq alone keeps its cached zero and one and its int
    # _raw_dot; a single raw becomes an element through _element, not _wrap;
    # and Trunc keys and compares its raws through the ring, naming no ring class
    rings = (Fq, LaurentRing, RatFnRing)
    assert all(issubclass(ring, gf.Ring) for ring in rings)
    shared = {"characteristic", "from_int", "_raw_of", "_wrap", "__eq__", "__hash__"}
    assert shared <= set(vars(gf.Ring))
    restated = [f"{ring.__name__}.{name}" for ring in rings for name in shared & set(vars(ring))]
    assert not restated, f"rings that restate the protocol: {restated}"
    own = {name: {ring.__name__ for ring in rings if name in vars(ring)}
           for name in ("zero", "one", "_raw_dot")}
    assert own == {"zero": {"Fq"}, "one": {"Fq"}, "_raw_dot": {"Fq"}}, own
    assert not dataclasses.is_dataclass(LaurentRing)
    single = [f"{path.name}:{node.lineno}"
              for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
              if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_wrap"
              and any(isinstance(arg, ast.List) for arg in node.args)]
    assert not single, f"single raws wrapped as a list: {single}"
    source = Path(charp_dilog.__file__).parent / "tpoly.py"
    trunc = next(node for node in ast.parse(source.read_text()).body
                 if isinstance(node, ast.ClassDef) and node.name == "Trunc")
    named = {f"{method.name}: {node.id}" for method in trunc.body
             if isinstance(method, ast.FunctionDef) and method.name in ("_key", "_equal")
             for node in ast.walk(method) if isinstance(node, ast.Name)
             and node.id in {"isinstance", "Fq", "LaurentRing", "RatFnRing", "Ring"}}
    assert not named, f"Trunc dispatches on its ring's class: {named}"


def test_every_submodule_name_is_its_module():
    # a package-level name that shadows a submodule (the function wedge over
    # charp_dilog.wedge) makes `import charp_dilog.X as m` bind that name, so a
    # spy set through it patches nothing
    names = sorted(p.stem for p in Path(charp_dilog.__file__).parent.glob("*.py")
                   if p.stem != "__init__")
    wrong = []
    for name in names:
        module = importlib.import_module(f"charp_dilog.{name}")
        scope = {}
        exec(f"import charp_dilog.{name} as m", scope)
        if getattr(charp_dilog, name) is not module or scope["m"] is not module:
            wrong.append(name)
    assert not wrong, f"package names that are not their submodules: {wrong}"


def test_suite_runners_declare_no_defaults():
    # the default trial counts live in suites.SUITES alone; every caller of a
    # suite's run_* function passes its trials and its seed
    from charp_dilog.suites import SUITES
    found = [fn.__name__ for fn, _ in SUITES.values()
             if any(param.default is not inspect.Parameter.empty
                    for param in inspect.signature(fn).parameters.values())]
    assert len(SUITES) == 7 and not found, f"suite runners with defaults: {found}"


# Every defaulted parameter under src/, with the library definitions (under
# src/, scripts/ or perfbench/) that pass it a value other than its default.
# A default that no library caller overrides is a constant; a new one fails
# the rule below until its entry names such a caller.
DEFAULTS_SET_BY = {
    "cli.build_parser.common:ext": ("cli.build_parser",),
    "cli.build_parser.common:formats": ("cli.build_parser",),
    "cli.build_parser.common:inp": ("cli.build_parser",),
    "cli.build_parser.common:p": ("cli.build_parser",),
    "cli.build_parser.common:seed": ("cli.build_parser",),
    "cycles.boundary:deep": ("cli.cmd_cycle", "cycles.rho_cycle"),
    "cycles.zero_cycle_value:deep": ("cli.cmd_cycle", "cycles.rho_cycle", "suites.run_modulus"),
    "gf.Fq.__init__:_irreducible": ("gf.residue_field",),
    "gf.Fq.__init__:base": ("cli._field_from", "gf.residue_field", "sampling.quadratic_extension"),
    "gf.Fq.__init__:modulus": ("cli._field_from", "gf.residue_field",
                               "sampling.quadratic_extension"),
    "gf.Poly.__init__:coeffs": ("gf._pth_root_poly", "regulator.LiftedPoint.reduction"),
    "gf._binary:swap": ("gf.RingElem",),
    "gf._factor_monic:mult": ("gf._factor_monic",),
    # Fq._raw_mul_low is _rmul
    "gf._rmul:n": ("gf.horner", "tpoly.Trunc.__mul__", "tpoly.rp_mul"),
    "gf._rderiv:k": ("localfield.RatFn.derivative",),
    "gf._rreduce:quot": ("gf.Fq._raw_inv", "gf.Poly.__divmod__"),
    "localfield.LaurentRing._raw_add:minus": ("localfield.LaurentRing",),
    "localfield.LaurentRing._raw_mul:below": ("omega.omega_p",),
    "localfield.RatFn.__init__:den": ("localfield.RatFnRing.random_element", "sampling.rand_oneform"),
    "localfield.RatFn._sum:minus": ("localfield.RatFn",),
    "localfield.RatFnRing.random_element:deg": ("sampling.rand_ratfn",),
    "regulator.regulate:deep": ("cli.cmd_regulator", "regulator.rho"),
    "sampling.rand_admissible_graph:trivial_units": ("suites.run_cross_module",
                                                     "workloads._cycle_setup"),
    "sampling.rand_ratfn:deg": ("sampling.rand_sigma_weights",),
    "sampling.rand_ratfn:nonzero": ("sampling.rand_letter_wedge_entries", "suites._exactness_check"),
    "sampling.rand_ratfn:pole_at_zero": ("sampling.rand_letter_wedge_entries",
                                         "sampling.rand_sigma_weights"),
    "tpoly.inv_factorials:n": ("tpoly.trunc_exp",),
    "wedge._order:below": ("wedge._check_uniformizer", "wedge.goodness_split"),
    "wedge.ell:ring": ("cycles.zero_cycle_value", "regulator._residue_value"),
    "wedge.ell_p:ring": ("cycles.zero_cycle_value", "regulator._residue_value",
                         "suites.run_residue_formula"),
    "wedge.wedge:coeff": ("bloch.delta",),
}


def _definitions(trees) -> dict[str, ast.AST]:
    """Every function and class under ``trees``, by module.Qual.name."""
    found = {}

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found[f"{qual}.{child.name}"] = child
                visit(child, f"{qual}.{child.name}")
    for tree in trees:
        for path in sorted((ROOT / tree).rglob("*.py")):
            visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_every_default_names_a_library_caller_that_overrides_it():
    # every entry names callers that exist; cli.main's argv needs none, as the
    # console script calls main() with no argument and argparse reads sys.argv
    defaults = set()
    for name, node in _definitions(["src"]).items():
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaults.update(f"{name}:{arg.arg}" for arg in positional[len(positional) - len(args.defaults):])
        defaults.update(f"{name}:{arg.arg}" for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None)
    unmatched = sorted((defaults - {"cli.main:argv"}) ^ set(DEFAULTS_SET_BY))
    assert not unmatched, f"defaults without an entry, or entries without a default: {unmatched}"
    library = _definitions(LIBRARY_TREES)
    missing = [(key, caller) for key, callers in DEFAULTS_SET_BY.items() for caller in callers
               if caller not in library]
    assert all(DEFAULTS_SET_BY.values()) and not missing, f"callers that do not exist: {missing}"

