"""Transformation steps: coefficient killing, the halved-root retry of the
Bring-Jerrard ansatz, the quartic obstruction, and the full quintic reduction.

Frozen expectations in this file were derived by hand from power sums (the
derivations live in the repository notes, not in library code): the cubic
b-conditions, the trinomial-quartic step outputs, and the monomial table of
the quintic second condition.
"""

import json
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from bringform import (ConsistencyError, DegenerateDenominator, ReductionTrace,
                       RootConfig, Subsidiary, TransformStep, UniPoly, back_solve,
                       coeff_scale,
                       cubic_to_pure, cx, depress, dual_eliminate,
                       find_roots, match_roots,
                       quartic_obstruction_G, quartic_remove_2_3,
                       quartic_remove_2_4, quintic_bring_ansatz,
                       quintic_to_bring_jerrard, rat, recover_roots,
                       reduce_general_quintic, to_principal, verify_trace)
from bringform.elimination import image_elementary
from bringform.pipeline import _k2_conditions
from bringform.polynomials import lies_on, powers_mod
from helpers import rand_monic, rand_scalar

TINY = mpmath.mpf("1e-70")


def _tiny_coeff(poly, k):
    c = poly.coeff(k)
    assert c.mag() <= TINY * coeff_scale(poly), "coeff %d = %s" % (k, c)


# -- depress -----------------------------------------------------------------

def test_depress_worked_cubic_exactly():
    step = depress(UniPoly([rat(5), rat(3), rat(3), rat(1)]))
    assert step.output == UniPoly([rat(4), rat(0), rat(0), rat(1)], "y")
    assert step.output.is_rational_tree()
    assert step.subsidiary.k == 1 and step.subsidiary.coeffs[0].fraction == 1


def test_depress_random_is_exact_and_invertible():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(2, 6)
        P = rand_monic(rng, n)
        step = depress(P)
        assert step.output.coeff(n - 1).is_exact_zero()
        # k = 1 subsidiary is a translation: back_solve must invert it exactly
        y = rand_scalar(rng)
        (z,) = back_solve(step, y)
        assert step.subsidiary.map_in_z().eval(z) == y


def test_depress_identity_when_already_depressed():
    step = depress(UniPoly([rat(7), rat(0), rat(0), rat(1)]))
    assert step.is_identity


# -- cubic steps ---------------------------------------------------------------

def test_cubic_to_pure_known_constant():
    # z^3 + z maps to y^3 + 8/27 (root product -8/27 derived from 0, +-i)
    step = cubic_to_pure(rat(0), rat(1), rat(0))
    out = step.output
    assert out.degree == 3
    _tiny_coeff(out, 2)
    _tiny_coeff(out, 1)
    assert (out.coeff(0) - rat(8, 27)).mag() <= TINY


def test_cubic_to_pure_falls_back_to_translation_on_degenerate_line():
    # (z+1)^3 + 4: the b-condition collapses, but a shift already purifies
    step = cubic_to_pure(rat(3), rat(3), rat(5))
    assert step.kind == "pure-cubic"
    assert step.subsidiary.k == 1
    assert step.output == UniPoly([rat(4), rat(0), rat(0), rat(1)], "y")


def test_cubic_to_pure_random_suite():
    rng = random.Random(42)
    done = 0
    while done < 25:
        m, n, p = (rand_scalar(rng, -6, 6) for _ in range(3))
        if (rat(3) * n - m * m).is_exact_zero():
            continue
        done += 1
        step = cubic_to_pure(m, n, p)
        _tiny_coeff(step.output, 2)
        _tiny_coeff(step.output, 1)
        for a in step.aux:
            assert a.degree <= 2

def test_cubic_to_pure_of_z3_plus_constant_is_an_identity_step():
    # m = n = 0: the shift is the identity, and no step is made
    for p in (rat(5), cx(5, 1, 256)):
        step = cubic_to_pure(rat(0), rat(0), p)
        A = UniPoly([p, rat(0), rat(0), rat(1)], "z")
        assert step == TransformStep("pure-cubic", A, Subsidiary(1, (rat(0),)), A, ())
        assert step.is_identity and "table" not in vars(step)


# -- quartic steps -------------------------------------------------------------

def test_remove_2_3_worked_case_exact():
    # z^4 + z + 1 with b = -2/3: hand power sums give y^4 - 13/27 y + 151/81
    step = quartic_remove_2_3(rat(0), rat(1), rat(1))
    assert step.output == UniPoly([rat(151, 81), rat(-13, 27), rat(0), rat(0), rat(1)], "y")
    aux = step.aux[-1]
    assert aux.roots[aux.chosen].fraction == Fraction(-2, 3)


def test_back_solve_refuses_a_point_with_no_preimage_on_the_source():
    step = quartic_remove_2_3(rat(0), rat(1), rat(1))
    with pytest.raises(ConsistencyError,
                       match="no preimage of 1000 lies on the source polynomial"):
        back_solve(step, rat(1000))


def test_remove_2_3_random_suite():
    rng = random.Random(43)
    for _ in range(20):
        n, p, q = (rand_scalar(rng, -6, 6) for _ in range(3))
        step = quartic_remove_2_3(n, p, q)
        _tiny_coeff(step.output, 3)
        _tiny_coeff(step.output, 2)


def test_remove_2_4_worked_cases_exact():
    # z^4 + z: images of 0, -1, and the primitive sixth roots give y^2(y^2+3)
    step = quartic_remove_2_4(rat(1), rat(0))
    assert step.output == UniPoly([rat(0), rat(0), rat(3), rat(0), rat(1)], "y")
    aux = step.aux[-1]
    assert aux.roots[aux.chosen].fraction == 1
    # z^4 + 3: b collapses to 0 and y = -z^2 doubles both root pairs
    step = quartic_remove_2_4(rat(0), rat(3))
    assert step.output == UniPoly([rat(9), rat(0), rat(6), rat(0), rat(1)], "y")


def test_remove_2_4_of_z4_is_an_identity_step_with_no_aux_solve():
    # at p = q = 0 the y-term condition -p b^3 - 4q b^2 + p^2 holds for every b
    step = quartic_remove_2_4(rat(0), rat(0))
    assert step.is_identity and step.kind == "quartic-remove-2-4"
    assert step.aux == () and step.output == step.input


def test_remove_2_4_random_suite():
    rng = random.Random(44)
    for _ in range(20):
        p, q = rand_scalar(rng, -6, 6), rand_scalar(rng, -6, 6)
        step = quartic_remove_2_4(p, q)
        _tiny_coeff(step.output, 3)
        _tiny_coeff(step.output, 1)
        for a in step.aux:
            assert a.degree <= 3


def test_quartic_steps_back_solve_recovers_preimages():
    rng = random.Random(45)
    for _ in range(8):
        p, q = rand_scalar(rng, -5, 5), rand_scalar(rng, -5, 5)
        step = quartic_remove_2_4(p, q)
        A = step.input
        from bringform import find_roots
        for y in find_roots(step.output).roots:
            for z in back_solve(step, y):
                assert A.eval(z).mag() <= TINY * coeff_scale(A)


# -- principal form --------------------------------------------------------------

def test_to_principal_kills_two_coefficients():
    rng = random.Random(46)
    for _ in range(15):
        P = rand_monic(rng, 5)
        step = to_principal(P)
        _tiny_coeff(step.output, 4)
        _tiny_coeff(step.output, 3)
        for a in step.aux:
            assert a.degree <= 2


def test_to_principal_identity_when_already_principal():
    P = UniPoly([rat(3), rat(2), rat(1), rat(0), rat(0), rat(1)])
    step = to_principal(P)
    assert step.is_identity


# -- the quintic second condition ------------------------------------------------

def _second_condition(p, q, r):
    """5 e_2 = -(5/2) s_2 of the images of a + b z + c z^2 + d z^3 + z^4 over
    the roots of z^5 + p z^2 + q z + r, a = (3pd + 4q)/5, over (b, c, d)."""
    A = UniPoly([r, q, p, rat(0), rat(0), rat(1)], "z")
    o, i = rat(0), rat(1)
    xs = [(q * rat(4, 5), o, o, p * rat(3, 5)), (o, i, o, o), (o, o, i, o),
          (o, o, o, i), (i, o, o, o)]
    return {key: v * 5 for key, v in image_elementary(A, xs, 2)[1].items()}


def test_second_condition_monomial_table():
    # frozen from the hand expansion of -(5/2) s2 with a = (3pd + 4q)/5
    rng = random.Random(47)
    for _ in range(10):
        p, q, r = (rand_scalar(rng, -9, 9) for _ in range(3))
        E = _second_condition(p, q, r)

        def at(key):
            v = E.get(key, rat(0))
            return v.fraction

        assert at((1, 1, 0)) == (rat(15) * p).fraction
        assert at((1, 0, 1)) == (rat(20) * q).fraction
        assert at((1, 0, 0)) == (rat(25) * r).fraction
        assert at((0, 2, 0)) == (rat(10) * q).fraction
        assert at((0, 1, 1)) == (rat(25) * r).fraction
        assert at((0, 0, 2)) == (rat(-3) * p * p).fraction
        assert at((0, 1, 0)) == (rat(-15) * p * p).fraction
        assert at((0, 0, 1)) == (rat(-23) * p * q).fraction
        assert at((0, 0, 0)) == (rat(-2) * q * q - rat(20) * r * p).fraction
        assert at((2, 0, 0)) == 0


def test_bring_ansatz_satisfies_condition_for_every_d():
    rng = random.Random(48)
    done = 0
    while done < 10:
        p, q, r = (rand_scalar(rng, -7, 7) for _ in range(3))
        if (rat(15) * p + rat(20) * q).is_exact_zero() or p.is_exact_zero():
            continue
        done += 1
        ans, aux = quintic_bring_ansatz(p, q, r)
        E = _second_condition(p, q, r)
        for dval in (ans.d, rand_scalar(rng), rat(17, 3)):
            b = ans.alpha * dval + ans.zeta
            c = dval + ans.gamma
            acc = rat(0)
            for (ib, ic, idd), v in E.items():
                acc = acc + v * b ** ib * c ** ic * dval ** idd
            scale = max(mpmath.mpf(1), max(v.mag() for v in E.values()))
            assert acc.mag() <= TINY * scale
        assert [a.kind for a in aux] == ["gamma-quadratic", "d-cubic"]
        assert all(a.degree <= 3 for a in aux)


def _sympy_fraction(v):
    return Fraction(int(v.p), int(v.q))


def test_bring_ansatz_matches_sympy_closed_forms():
    # alpha, zeta(gamma) and the gamma-quadratic derived in sympy from the
    # companion matrix M of z^5 + p z^2 + q z + r: s_2 of the images is
    # trace(Y^2) with Y = a + b M + c M^2 + d M^3 + M^4
    p, q, r, b, c, d = sympy.symbols("p q r b c d")
    al, ze, ga = sympy.symbols("alpha zeta gamma")
    M = sympy.Matrix(5, 5, lambda i, j: 1 if i == j + 1 else 0)
    M[:, 4] = sympy.Matrix([-r, -q, -p, 0, 0])
    a = (3 * p * d + 4 * q) / 5
    Y = a * sympy.eye(5) + b * M + c * M ** 2 + d * M ** 3 + M ** 4
    assert sympy.expand(Y.trace()) == 0
    E = sympy.expand((Y * Y).trace())
    Ed = sympy.Poly(sympy.expand(E.subs({b: al * d + ze, c: d + ga})), d)
    c2, c1, c0 = (Ed.coeff_monomial(d ** k) for k in (2, 1, 0))
    alpha = sympy.solve(c2, al)[0]
    zeta = sympy.solve(c1.subs(al, alpha), ze)[0]
    g0, g1, g2 = reversed(sympy.Poly(
        sympy.together(c0.subs({al: alpha, ze: zeta})).as_numer_denom()[0], ga).all_coeffs())
    rng = random.Random(52)
    done = 0
    while done < 10:
        pt = {v: sympy.Rational(rng.randint(-9, 9), rng.randint(1, 4)) for v in (p, q, r)}
        if 0 in (pt[p], 3 * pt[p] + 4 * pt[q], g2.subs(pt)):
            continue
        done += 1
        P, Q, R = (rat(_sympy_fraction(pt[v])) for v in (p, q, r))
        ans, aux = quintic_bring_ansatz(P, Q, R)
        assert ans.alpha.fraction == _sympy_fraction(alpha.subs(pt))
        roots = aux[0].roots
        assert aux[0].kind == "gamma-quadratic" and ans.gamma == roots[aux[0].chosen]
        lead = g2.subs(pt)
        want_sum = rat(_sympy_fraction(-g1.subs(pt) / lead))
        want_prod = rat(_sympy_fraction(g0.subs(pt) / lead))
        z_at = sympy.Poly(zeta.subs(pt), ga)
        want_zeta = (rat(_sympy_fraction(z_at.coeff_monomial(ga))) * ans.gamma
                     + rat(_sympy_fraction(z_at.coeff_monomial(1))))
        for got, want in ((roots[0] + roots[1], want_sum), (roots[0] * roots[1], want_prod),
                          (ans.zeta, want_zeta)):
            assert (got - want).mag() <= TINY * max(1, want.mag())


# -- bring-jerrard step ---------------------------------------------------------

def test_bring_jerrard_step_kills_three_coefficients():
    step = quintic_to_bring_jerrard(rat(1), rat(1), rat(1))
    out = step.output
    assert out.degree == 5
    for k in (4, 3, 2):
        _tiny_coeff(out, k)
    assert step.subsidiary.k == 4


def test_bring_jerrard_identity_when_p_is_zero():
    step = quintic_to_bring_jerrard(rat(0), rat(2), rat(3))
    assert step.is_identity


def test_bring_jerrard_rescue_on_vanishing_coupling():
    # 15p + 20q = 0 at scale 1; the ansatz at halved roots revives it, and
    # its map T_w is emitted on the unscaled input as 16 T_w(z/2)
    p, q, r = rat(4), rat(-3), rat(1)
    with pytest.raises(DegenerateDenominator):
        quintic_bring_ansatz(p, q, r)
    step = quintic_to_bring_jerrard(p, q, r)
    assert step.input == UniPoly([r, q, p, rat(0), rat(0), rat(1)])
    for k in (4, 3, 2):
        _tiny_coeff(step.output, k)
    half = quintic_to_bring_jerrard(p / 8, q / 16, r / 32)
    assert step.aux == half.aux
    for got, want, f in zip(step.subsidiary.coeffs, half.subsidiary.coeffs, (16, 8, 4, 2)):
        assert (got - want * f).mag() <= TINY * max(1, got.mag())
    for k, f in ((1, 2 ** 16), (0, 2 ** 20)):
        got = step.output.coeff(k)
        assert (got - half.output.coeff(k) * f).mag() <= TINY * got.mag()


@pytest.mark.parametrize("prec", [256, 512])
@pytest.mark.parametrize("k", [12, 15, 20, 25, 29])
def test_bring_jerrard_rescue_on_a_cancelling_coupling(k, prec):
    # 15p + 20q = 10^-k with p = 4, r = 2: far above tol, yet the d-cubic
    # built on it cancels about three times its lost digits, so the ansatz
    # refuses a denominator below 2^(-prec/8) of its terms and the halved
    # roots take over
    p, q, r = rat(4), rat(-3) + rat(1, 20 * 10 ** k), rat(2)
    if 10 ** -k < 120 * 2.0 ** (-prec // 8):
        with pytest.raises(DegenerateDenominator, match="cancelled"):
            quintic_bring_ansatz(p, q, r, prec=prec)
    P = UniPoly([r, q, p, rat(0), rat(0), rat(1)], "z")
    trace = reduce_general_quintic(P, prec=prec)
    assert verify_trace(trace, RootConfig(precision_bits=prec)).matched
    got = recover_roots(trace, RootConfig(precision_bits=prec))
    ok, dist = match_roots(got, find_roots(P, RootConfig(precision_bits=prec)).roots,
                           tol="1e-25")
    assert ok, dist


@pytest.mark.parametrize("mode", ["rational", "complex"])
@pytest.mark.parametrize("k", [22, 25, 30, 40, 60])
def test_tiny_p_and_q_reduce_verify_and_recover(k, mode):
    # z^5 + eps z^2 + eps z + 1: alpha grows like 1/eps, so the ansatz's
    # composed conditions are large in absolute terms; the step measures
    # them once, on its output, against the output's scale
    eps = rat(1, 10 ** k) if mode == "rational" else cx("1e-%d" % k)
    P = UniPoly([rat(1), eps, eps, rat(0), rat(0), rat(1)], "z")
    cfg = RootConfig(precision_bits=256)
    trace = reduce_general_quintic(P, prec=256)
    assert verify_trace(trace, cfg).matched
    reread = ReductionTrace.from_json(json.loads(json.dumps(trace.to_json())), 256)
    assert verify_trace(reread, cfg).matched
    roots = recover_roots(reread, cfg)
    assert len(roots) == 5
    assert all(lies_on(P, z, cfg.tol) for z in roots)


def test_construction_identities_hold_exactly():
    # each subsidiary coefficient is chosen to make a form vanish, so the
    # steps do not test these at run time: a(b) removes y^(n-1) for every
    # b; the ansatz's y^3 form has no b^2 term and its composed y^4 form
    # vanishes for every d; the obstruction's y^3 form vanishes and its y^2
    # form is linear in b
    rng = random.Random(20260818)
    quintics = [UniPoly([rat(rng.randint(-10, 10)) for _ in range(5)] + [rat(1)], "z")
                for _ in range(40)]
    draws = [tuple(rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
             for _ in range(40)]
    for A in quintics:
        assert _k2_conditions(A, 1)[0].coeffs == ()
        assert _k2_conditions(depress(A).output, 1)[0].coeffs == ()
    o, i = rat(0), rat(1)
    for p, q, r in draws + [(A.coeff(2), A.coeff(1), A.coeff(0)) for A in quintics]:
        assert (2, 0, 0) not in _second_condition(p, q, r)
        A = UniPoly([r, q, p, o, o, i], "z")
        if not (rat(15) * p + rat(20) * q).is_exact_zero():
            ans, _ = quintic_bring_ansatz(p, q, r)
            xs = [(q * rat(4, 5), p * rat(3, 5)), (ans.zeta, ans.alpha), (ans.gamma, i),
                  (o, i), (i, o)]
            assert image_elementary(A, xs, 1) == [{}]
        rep = quartic_obstruction_G(p, q)
        Q = UniPoly([q, p, o, o, i], "z")
        xs = [(rep.a, o, o), (o, i, o), (o, o, i), (i, o, o)]
        e1, E = image_elementary(Q, xs, 2)
        assert e1 == {} and all(ib <= 1 for ib, _ in E)


# -- obstruction -----------------------------------------------------------------

def test_obstruction_generic_cases_reach_degree_six():
    for p, q in ((rat(1), rat(1)), (rat(1), rat(0))):
        rep = quartic_obstruction_G(p, q)
        assert rep.degree == 6
        assert not rep.degenerate
        assert rep.a == rat(3, 4) * p
        assert rep.obstruction.is_rational_tree()


def test_obstruction_matches_sympy_resultant():
    # eliminate b between the y^2 and y^1 coefficients of det(y - Y),
    # Y = -(M^3 + c M^2 + b M + 3p/4) for the companion matrix M of z^4 + p z + q
    b, c, y = sympy.symbols("b c y")
    rng = random.Random(53)
    # at (4, -3) and (2, -3) the b-coefficient 3pc + 4q of the y^2
    # condition vanishes at a small integer c
    points = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(0)),
              (Fraction(4), Fraction(-3)), (Fraction(2), Fraction(-3))]
    while len(points) < 14:
        points.append((Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
    for pf, qf in points:
        p, q = (sympy.Rational(v.numerator, v.denominator) for v in (pf, qf))
        M = sympy.Matrix(4, 4, lambda i, j: 1 if i == j + 1 else 0)
        M[:, 3] = sympy.Matrix([-q, -p, 0, 0])
        Y = -(M ** 3 + c * M ** 2 + b * M + sympy.Rational(3, 4) * p * sympy.eye(4))
        C = sympy.Poly(Y.charpoly(y).as_expr(), y)
        assert sympy.expand(C.coeff_monomial(y ** 3)) == 0
        E, F = (sympy.expand(C.coeff_monomial(y ** k)) for k in (2, 1))
        want = sympy.Poly(sympy.resultant(E, F, b), c).monic()
        rep = quartic_obstruction_G(rat(pf), rat(qf))
        G, _ = rep.obstruction.monic()
        assert [x.fraction for x in G.coeffs] == \
            [_sympy_fraction(v) for v in reversed(want.all_coeffs())], (pf, qf)
        assert rep.degree == want.degree() == 6


def test_obstruction_degenerate_case_frozen():
    rep = quartic_obstruction_G(rat(0), rat(1))
    assert rep.degenerate
    assert rep.obstruction == UniPoly([rat(0), rat(64), rat(0), rat(0), rat(0), rat(-16)], "c")
    from bringform import find_roots, match_roots
    got = find_roots(rep.obstruction).roots
    s = rat(2).sqrt()
    i = rat(-2).sqrt()
    want = [rat(0), s, -s, i, -i]
    ok, _ = match_roots(got, want, tol="1e-40")
    assert ok


# -- full reduction ---------------------------------------------------------------

def test_reduce_structure_and_trinomial_output():
    P = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])
    trace = reduce_general_quintic(P)
    assert [s.kind for s in trace.steps] == ["depress", "principal", "bring-jerrard"]
    final = trace.final
    assert final is trace.steps[-1].output  # not stored: where the chain ends
    assert ReductionTrace._fields == ("original", "steps", "bring_p", "bring_q")
    for k in (4, 3, 2):
        _tiny_coeff(final, k)
    assert trace.bring_p == final.coeff(1)
    assert trace.bring_q == final.coeff(0)
    for s in trace.steps:
        for a in s.aux:
            assert a.degree <= 3


def test_reduce_takes_smallest_real_root_of_all_real_d_cubic():
    # batch quintic #16 (seed 20260818): the d-cubic's roots -12.40, 0.708
    # and 4.833 are real with imaginary parts at rounding level, so the
    # choice must not depend on that noise
    P = UniPoly([rat(c) for c in (-10, -7, 3, 10, -6, 1)])
    trace = reduce_general_quintic(P)
    (dsolve,) = [a for s in trace.steps for a in s.aux if a.kind == "d-cubic"]
    assert dsolve.degree == 3
    assert all(abs(r.im()) <= TINY for r in dsolve.roots)
    d = dsolve.roots[dsolve.chosen]
    assert abs(d.re() - mpmath.mpf("0.708064835434")) <= mpmath.mpf("1e-11")
    assert trace.steps[-1].subsidiary.coeffs[3] == d


def test_reduce_skips_identity_stages():
    trace = reduce_general_quintic(UniPoly([rat(3), rat(2), rat(0), rat(0), rat(0), rat(1)]))
    assert trace.steps == ()
    assert trace.bring_p.fraction == 2 and trace.bring_q.fraction == 3


def test_reduce_rejects_non_quintic_and_non_monic():
    with pytest.raises(ValueError):
        reduce_general_quintic(UniPoly([rat(1), rat(1), rat(1), rat(1), rat(1)]))
    with pytest.raises(ValueError):
        reduce_general_quintic(UniPoly([rat(0)] * 5 + [rat(2)]))


def test_step_chaining_accounts_for_rescue_scaling():
    # a rescued step maps the previous output itself, like every other step
    P = UniPoly([rat(1), rat(-3), rat(4), rat(0), rat(0), rat(1)])
    trace = reduce_general_quintic(P)
    cur = trace.original
    for step in trace.steps:
        assert step.input == cur
        cur = step.output


def test_trace_json_roundtrip_preserves_everything():
    P = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])
    trace = reduce_general_quintic(P)
    wire = json.dumps(trace.to_json(), sort_keys=True)
    back = ReductionTrace.from_json(json.loads(wire), 256)
    assert back.original == trace.original
    assert len(back.steps) == len(trace.steps)
    for a, b in zip(back.steps, trace.steps):
        assert a.kind == b.kind
        assert a.input.degree == b.input.degree
        diff = max((a.output.coeff(k) - b.output.coeff(k)).mag()
                   for k in range(a.output.degree + 1))
        assert diff <= mpmath.mpf("1e-60") * coeff_scale(b.output)
    # serialization is deterministic byte for byte
    again = json.dumps(reduce_general_quintic(P).to_json(), sort_keys=True)
    assert wire == again


def test_trace_json_reads_back_to_identical_json():
    # a rescued step, complex steps from rational input, and complex input;
    # from_json reads complex values at the default precision
    for P in (UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)]),
              UniPoly([rat(1), rat(-3), rat(4), rat(0), rat(0), rat(1)]),
              UniPoly([cx("0.3", "-1.25"), rat(-2), cx("2.5"), rat(1), rat(0), rat(1)])):
        wire = reduce_general_quintic(P).to_json()
        assert ReductionTrace.from_json(json.loads(json.dumps(wire))).to_json() == wire


def test_dual_elimination_is_monic_and_consistent():
    rng = random.Random(50)
    for _ in range(20):
        n = rng.randint(2, 5)
        A = rand_monic(rng, n)
        k = rng.randint(1, min(3, n - 1))
        sub = Subsidiary(k, tuple(rand_scalar(rng) for _ in range(k)))
        C, table = dual_eliminate(A, sub)
        assert C.is_monic() and C.degree == n
        # the table the power-sum route read, which the step builders keep
        rows = table.rows
        assert rows == powers_mod(UniPoly(sub.t_coeffs(), "z"), A).rows
        assert len(rows) == n + 1 and all(len(row) == n for row in rows)


def test_routes_that_disagree_are_refused(monkeypatch):
    # traces whose first power sum is off by one make another rational C:
    # the exact comparison reads them and refuses, the refusal shows the C
    # that the power-sum route builds of them, and the chain names the step
    # it happened in
    from bringform import elimination

    original = elimination.table_traces

    def off_by_one(table):
        P, q, prec, bits = original(table)
        (re, im, e), rest = P[0], P[1:]
        return [(re + q, im, e)] + rest, q, prec, bits  # P_1 = q s_1

    monkeypatch.setattr(elimination, "table_traces", off_by_one)
    A = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])
    sub = Subsidiary(1, (rat(-1, 5),))
    C_ps = elimination.transform_by_power_sums(A, sub.t_coeffs())
    # C's y^4 is -s_1(C), and s_1(C) = s_1(A) + 5 a with s_1(A) = -A's z^4
    assert C_ps.coeff(4) == -(-A.coeff(4) + 5 * rat(-1, 5) + 1)
    with pytest.raises(ConsistencyError, match="^resultant and power-sum routes disagree: ") as e:
        dual_eliminate(A, sub)
    want = "resultant and power-sum routes disagree: %s vs %s" % (
        elimination.map_charpoly(A, sub.t_coeffs()), C_ps)
    assert str(e.value) == want
    with pytest.raises(ConsistencyError,
                       match="^depress step: resultant and power-sum routes disagree: "):
        reduce_general_quintic(A)
