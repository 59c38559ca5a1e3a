"""Rules on the library source itself."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import charp_dilog
from charp_dilog.gf import FqElem, RingElem
from charp_dilog.localfield import LaurentLocal

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
    assert callers == ["gf.Poly.evaluate", "tpoly.newton_root", "tpoly.rp_eval",
                       "wedge.reduce_at"], callers


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
    # and each name the benchmark counts in FqElem's own dict (all but its
    # equality) is RingElem's function, so the counter wraps the shared operator
    assert issubclass(FqElem, RingElem) and issubclass(LaurentLocal, RingElem)
    arithmetic = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse"}
    counted = next(c[3] for c in _load_spans().COUNTERS if c[0] == "gf.FqElem.ops")
    assert set(counted) - {"__eq__"} <= arithmetic
    own = [name for name in arithmetic & set(vars(FqElem))
           if vars(FqElem)[name] is not vars(RingElem)[name]]
    assert not own, f"FqElem defines its own arithmetic: {own}"
    assert not [name for name in set(counted) - {"__eq__"} if name not in vars(FqElem)]
    assert not arithmetic & set(vars(LaurentLocal)), sorted(arithmetic & set(vars(LaurentLocal)))
    assert not hasattr(FqElem, "_coerce")
    named = [f"{path.name}:{getattr(node, 'lineno', '?')}"
             for path in sorted(Path(charp_dilog.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if "_germ_op" in {getattr(node, key, None) for key in ("id", "attr", "name")}]
    assert not named, f"the germ operator factory is still named: {named}"


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
