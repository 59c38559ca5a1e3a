"""The comparison 1-form on wedges of units of R[t]/(t^p) over a differential ring.

Units are decomposed into letters: a constant-term unit and truncated
exponentials e(alpha t^a).  The form is the alternating multilinear extension
of a closed formula on letter triples whose exponents sum to p, valued in
1-forms over the coefficient field.  Alongside it: the reparametrization
action s -> s + x t^w in closed form and, on germs, by substitution into the
payloads, the exactness identity with its combinatorial coefficients, residue
invariance, the residue pairing of two congruent liftings, and the depth-3
defect form of two triples congruent mod t^2.  Residues at s = 0 are read on
Laurent germs there, from forms cut at s^0, not on the global rational form.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .gf import FqElem
from .localfield import LaurentLocal, LaurentRing, OneForm, RatFn, RatFnRing, germs_at_zero, residue_at
from .tpoly import ModulusMismatch, Trunc, ell_all, inv_factorials, rp_eval, unit_decompose
from .wedge import WedgeK


class OmegaError(Exception):
    """Base class for comparison-form errors."""


class NotCongruentModT2(OmegaError):
    """The two liftings must agree modulo (t^2)."""


class CaseTableGap(OmegaError):
    """A case table (letter-triple formula or antiderivative coefficients) met
    a case it excludes (implementation fault)."""


class NotDivisible(OmegaError):
    """The weight must divide p - (a+b+c) with positive quotient."""


class Letter(NamedTuple):
    """One factor of a unit: e(payload * t^a), with a = 0 meaning the constant unit."""

    a: int
    payload: RatFn


def letters_of_unit(u: Trunc) -> list[Letter]:
    """Decompose a unit into its canonical letters, dropping trivial ones."""
    d = unit_decompose(u)
    letters = []
    if d.a0 != u.ring.one:
        letters.append(Letter(0, d.a0))
    for i, alpha in enumerate(d.exps, start=1):
        if not alpha.is_zero:
            letters.append(Letter(i, alpha))
    return letters


def _letters_of_entry(e) -> list[Letter]:
    """An entry of a wedge may be a unit truncation or a prepared letter list."""
    if isinstance(e, Trunc):
        return letters_of_unit(e)
    return list(e)


def _dpayload(letter: Letter) -> RatFn:
    if letter.a == 0:
        return letter.payload.derivative() / letter.payload
    return letter.payload.derivative()


def _sort3(letters: Sequence[Letter]) -> tuple[list[Letter], int]:
    items = list(letters)
    sign = 1
    for i in range(2):
        for j in range(2 - i):
            if items[j].a < items[j + 1].a:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return items, sign


def _omega_factors(l1: Letter, l2: Letter, l3: Letter, p: int, dpayload) -> tuple[Letter, RatFn]:
    """(F, g) with value F.payload * g on a letter triple whose exponents sum to p."""
    (A, B, C), sign = _sort3((l1, l2, l3))
    a, b, c = A.a, B.a, C.a
    if a > b:
        # alpha (b beta dgamma - c gamma dbeta); the c-term drops when c = 0
        first, g = A, b * B.payload * dpayload(C)
        if c != 0:
            g = g - c * C.payload * dpayload(B)
    elif b > c:
        # a = b > c; c = 0 would force 2a = p, impossible for odd p
        if c == 0:
            raise CaseTableGap(f"tie case ({a},{b},0) needs 2a = p = {p}")
        first, g = C, a * A.payload * dpayload(B) - b * B.payload * dpayload(A)
    else:
        raise CaseTableGap(f"a = b = c = {a} needs 3 | p = {p}")
    return first, g if sign == 1 else -g


def omega_p(w: WedgeK, ring) -> OneForm:
    """The comparison form on a wedge of three units of R[t]/(t^p) over ``ring``:
    rational functions, or their Laurent germs at one point.

    Entries may be unit truncations (decomposed canonically) or prepared
    letter lists; the value is the alternating multilinear extension of the
    letter-triple formula F.payload * g over the triples whose exponents sum
    to p, one product per first letter F.  On germs, those products are cut at
    s^0: the form is known below s^0, which is all a residue reads.
    """
    p = ring.characteristic
    cut = isinstance(ring, LaurentRing)
    total = ring.zero
    for k, entries in w.terms:
        if len(entries) != 3:
            raise ValueError("omega_p consumes wedges of arity 3")
        letter_lists = []
        for u in entries:
            if isinstance(u, Trunc) and u.m != p:
                raise ModulusMismatch("omega_p needs units of R[t]/(t^p)")
            letter_lists.append(_letters_of_entry(u))
        # one derivative per letter; the lists keep letters alive, so ids stay unique
        derivs = {}

        def dpayload(letter):
            if id(letter) not in derivs:
                derivs[id(letter)] = _dpayload(letter)
            return derivs[id(letter)]
        thirds = {}
        for y in letter_lists[2]:
            thirds.setdefault(y.a, []).append(y)
        firsts = {}  # id(F) -> [F.payload, the g of each triple whose first letter is F]
        for a1 in letter_lists[0]:
            for a2 in letter_lists[1]:
                for a3 in thirds.get(p - a1.a - a2.a, ()):
                    first, g = _omega_factors(a1, a2, a3, p, dpayload)
                    firsts.setdefault(id(first), [first.payload]).append(g)
        acc = ring.zero
        for f, g, *gs in firsts.values():
            g = sum(gs, g)
            acc += LaurentLocal(ring, ring._raw_mul(f.raw, g.raw, 0)) if cut else f * g
        total = total + k * acc
    return OneForm(total.reduced() if isinstance(total, RatFn) else total)


# -- reparametrization -------------------------------------------------------

def sigma_letters(x: RatFn, w: int, letters: Sequence[Letter], p: int) -> list[Letter]:
    """The closed-form image of a letter list under s -> s + x t^w."""
    if w < 1:
        raise ValueError(f"the weight w = {w} must be positive")
    if p != x.field.p:
        raise ValueError(f"p = {p} is not the characteristic of {x.field}")
    inv_fact = inv_factorials(p)
    out: list[Letter] = []
    for letter in letters:
        out.append(letter)
        ladder = _derivative_ladder(letter.a, letter.payload, (p - 1 - letter.a) // w)
        for i in range(1, len(ladder)):
            out.append(Letter(letter.a + i * w, (x ** i) * ladder[i] * inv_fact[i]))
    return out


def sigma_image_letters(image: Trunc, entry, germ) -> list[Letter]:
    """Letters of the image of an entry under s -> image = s + delta, on germs at s = 0.

    ``image`` is a truncation of germs with constant term s, and ``germ`` maps
    rational payloads to germs.  Each payload alpha = num/den is substituted,
    num and den by Horner over their own coefficients: e(alpha t^a) maps to
    e(alpha(image) t^a) mod t^p, and a constant h to h e(log_circ(h(image))).
    """
    ring, p = image.ring, image.m
    out: list[Letter] = []
    for a, payload in _letters_of_entry(entry):
        x = image.reduce_to(max(2, p - a))
        num, den = ([f.coeff(i) for i in range(f.degree + 1)] for f in (payload.num, payload.den))
        moved = rp_eval(num, x) / rp_eval(den, x)
        if a == 0:
            out.append(Letter(0, germ(payload)))
            tail = enumerate(ell_all(moved), start=1)
        else:
            tail = enumerate(moved.coeffs[:p - a], start=a)
        out += [Letter(e, c) for e, c in tail if not c.is_zero]
    return out


def res_invariance_check(xs: Sequence[RatFn], w3: WedgeK, ring: RatFnRing) -> bool:
    """Whether the residue at s = 0 of the form of w3, a wedge over the
    rational functions ``ring``, is unchanged by the reparametrization
    s -> s + sum_w xs[w-1] t^w."""
    p = ring.characteristic

    def residue(germ):
        image = germ(Trunc(ring, p, [ring.gen, *xs[:p - 1]]))
        moved = w3.map_entries(lambda e: sigma_image_letters(image, e, germ))
        fixed = w3.map_entries(lambda e: _germ_entry(germ, e))
        return residue_at(omega_p(moved, germ.ring) - omega_p(fixed, germ.ring), germ.ring.center)
    return germs_at_zero(ring.field, p + 1, residue).is_zero


# -- the exactness identity ---------------------------------------------------

def s_coeff(a: int, b: int, c: int, i: int, j: int, k: int, w: int, p: int) -> int:
    """The combinatorial coefficient of the antiderivative, as an integer mod p.

    Defined by a case split on the shifted exponents (a+iw, b+jw, c+kw) and
    two antisymmetry clauses; vanishes whenever a derivative of an undefined
    payload would be requested (exponent and derivative order both zero).
    """
    A, B, C = a + i * w, b + j * w, c + k * w
    if A > max(B, C) or (B == C and C > A):
        inv_fact = inv_factorials(p)
        return (b * k - c * j) * inv_fact[i] * inv_fact[j] * inv_fact[k] % p
    if B > max(A, C) or (A == C and C > B):
        return -s_coeff(b, a, c, j, i, k, w, p) % p
    if C > max(A, B) or (A == B and B > C):
        return s_coeff(c, a, b, k, i, j, w, p) % p
    raise CaseTableGap(f"no branch for ({a},{b},{c};{i},{j},{k}) at w={w}")


def _derivative_ladder(a: int, payload: RatFn, depth: int) -> list[RatFn | None]:
    """payload^(i) for i = 0..depth; for a = 0 the convention (f'/f)^(i-1), with
    the i = 0 entry undefined (None)."""
    if a == 0:
        out: list[RatFn | None] = [None]
        cur = payload.derivative() / payload
    else:
        out = [payload]
        cur = payload
        if depth >= 1:
            cur = payload.derivative()
    if depth >= 1:
        out.append(cur)
        for _ in range(depth - 1):
            cur = cur.derivative()
            out.append(cur)
    return out


def antider_primitive(a: int, b: int, c: int, w: int, x: RatFn,
                      pa: RatFn, pb: RatFn, pc: RatFn) -> RatFn:
    """The rational primitive whose differential measures the reparametrization defect.

    Payloads with exponent zero are constant-term units; their ladder starts at
    the logarithmic derivative and the case-table coefficient of the undefined
    zeroth entry always vanishes.
    """
    p = x.field.p
    rest = p - (a + b + c)
    if rest <= 0 or rest % w != 0:
        raise NotDivisible(f"w = {w} does not divide p - (a+b+c) = {rest} positively")
    q = rest // w
    if q % p == 0:
        # only a+b+c = 0, w = 1 reaches this; the difference need not even be
        # exact there (the all-constant triple sits outside the identity)
        raise NotDivisible("quotient q is divisible by p; the primitive does not exist")
    ring = RatFnRing(x.field)
    da = _derivative_ladder(a, pa, q)
    db = _derivative_ladder(b, pb, q)
    dc = _derivative_ladder(c, pc, q)
    xq_over_q = (x ** q) * pow(q, p - 2, p)
    total = ring.zero
    for i in range(q + 1):
        for j in range(q + 1 - i):
            k = q - i - j
            coeff = s_coeff(a, b, c, i, j, k, w, p)
            if coeff == 0:
                continue
            if da[i] is None or db[j] is None or dc[k] is None:
                raise CaseTableGap(f"coefficient of an undefined payload at ({i},{j},{k})")
            total = total + coeff * da[i] * db[j] * dc[k]
    return (xq_over_q * total).reduced()


# -- residues of pairs of liftings --------------------------------------------

def res_omega_pair(qtilde: WedgeK, qhat: WedgeK, ring: RatFnRing) -> FqElem:
    """Residue at s = 0 of the form difference of two liftings congruent mod t^2,
    whose entries are unit truncations over ``ring``.

    Realizes both liftings in one coordinate; additive in chains of congruent
    liftings.  An entry that is not a truncation, such as a letter list, has
    no class mod t^2 and raises ``TypeError`` naming it.
    """
    if len(qtilde.terms) != len(qhat.terms):
        raise NotCongruentModT2("liftings have different presentations")
    for (k1, e1), (k2, e2) in zip(qtilde.terms, qhat.terms):
        if k1 != k2:
            raise NotCongruentModT2("liftings have different coefficients")
        for u, v in zip(e1, e2):
            for e in (u, v):
                if not isinstance(e, Trunc):
                    raise TypeError(f"a lifting entry must be a unit truncation, not {e!r}")
            if not u.congruent(v, 2):
                raise NotCongruentModT2("entries differ modulo t^2")
    return res_omega_difference(qtilde, qhat, ring)


def res_omega_difference(w1: WedgeK, w2: WedgeK, ring: RatFnRing) -> FqElem:
    """Residue at s = 0 of omega_p(w1) - omega_p(w2), over the rational
    functions ``ring``; entries are unit truncations or letter lists.

    Only germs at s = 0 matter: each rational coefficient or letter payload is
    expanded there once, and the form is computed on those germs.
    """

    def residue(germ):
        a, b = (w.map_entries(lambda e: _germ_entry(germ, e)) for w in (w1, w2))
        return residue_at(omega_p(a, germ.ring) - omega_p(b, germ.ring), germ.ring.center)
    return germs_at_zero(ring.field, ring.characteristic + 1, residue)


def _germ_entry(germ, e):
    """The germ of a wedge entry: a rational unit truncation or a letter list."""
    if isinstance(e, Trunc):
        return germ(e)
    return [Letter(letter.a, germ(letter.payload)) for letter in e]


_PERMS3 = (
    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
    ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
)


def omega_char0_defect(qtilde: Sequence[Trunc], qhat: Sequence[Trunc]) -> OneForm:
    """The depth-3 defect form of two triples congruent mod t^2 (m = 3 model).

    Both triples decompose as a0 * e(t a1 + t^2 a2 + ...); only the depth-2
    exponents differ, and the value is the signed sum over permutations of
    a1 (a2~ - a2^) dlog a0 across the three slots.
    """
    if len(qtilde) != 3 or len(qhat) != 3:
        raise ValueError("defect form takes two triples")
    a0, a1, d2 = [], [], []
    for u, v in zip(qtilde, qhat):
        if u.m != 3 or v.m != 3:
            raise ModulusMismatch("defect form lives over R[t]/(t^3)")
        if not u.congruent(v, 2):
            raise NotCongruentModT2("triples differ modulo t^2")
        lu, lv = ell_all(u), ell_all(v)
        a0.append(u.c0)
        a1.append(lu[0])
        d2.append(lu[1] - lv[1])
    ring = qtilde[0].ring
    total = ring.zero
    for (p1, p2, p3), sign in _PERMS3:
        term = a1[p1] * d2[p3] * (a0[p2].derivative() / a0[p2])
        total = total + (term if sign == 1 else -term)
    return OneForm(total)
