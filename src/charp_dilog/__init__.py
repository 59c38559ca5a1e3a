"""Exact characteristic-p dilogarithms, comparison 1-forms, and regulators.

Arithmetic layers: finite fields and polynomial factorization (:mod:`gf`),
truncated rings with exp/log (:mod:`tpoly`), rational functions with exact
residues (:mod:`localfield`).  On top of them: wedge functionals and the
local residue map (:mod:`wedge`), Bloch symbols and the two additive
dilogarithms (:mod:`bloch`), the comparison 1-form with its reparametrization
theory (:mod:`omega`), the projective-line regulators (:mod:`regulator`),
parametrized-cycle invariants (:mod:`cycles`), and the seeded verification
suites behind the command line (:mod:`suites`, :mod:`cli`).
"""

from .gf import Fq, FqElem, Poly, factor_squarefree_irreducibles, trace_to_base, trace_to_prime
from .localfield import INF, LaurentLocal, LaurentRing, OneForm, RatFn, RatFnRing, expand_at, residue_at
from .tpoly import Trunc, ell_i, log_circ, trunc_exp, unit_decompose, unit_recompose
from .wedge import WedgeK, ell, ell_p, goodness_split, res_good, res_local, wedge
from .bloch import BlochSym, delta, five_term, flat_check, li2, li2_via_lift, li2p, li2p_via_lift, pounds1, symbol
from .omega import antider_primitive, omega_p, omega_p_pair, res_invariance_check, res_omega_pair, s_coeff, sigma_apply
from .regulator import GoodFunction, LiftedPoint, RegulatorInput, linear_input, rho, rho_K, theorem1_closed_form
from .cycles import ParamCycle, admissibility_check, boundary, make_cycle, modulus_compare, rho_K_cycle, rho_cycle

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
