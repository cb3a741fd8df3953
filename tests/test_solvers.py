"""Closed-form solvers for degrees one through four.

Residual suites run on seeded random rational coefficients; every root must
kill its polynomial to the working precision, not merely to double accuracy.
The all-real cubic suite pins the branch-pairing property: the imaginary
parts must cancel to nothing even though the intermediates are complex.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from bringform import (UniPoly, cx, find_roots, match_roots, pipeline, quartic_remove_2_3,
                       rat, solve_condition, solve_cubic_cardano, solve_cubic_general,
                       solve_monic, solve_quadratic, solve_quartic)
from bringform.polynomials import relative_residual
from bringform.scalars import pick_root
from helpers import rand_monic, rand_scalar

TINY = mpmath.mpf("1e-70")


def _scale(*vals):
    m = mpmath.mpf(1)
    for v in vals:
        if v.mag() > m:
            m = v.mag()
    return m


def test_quadratic_random_suite():
    rng = random.Random(21)
    for _ in range(80):
        m, n = rand_scalar(rng), rand_scalar(rng)
        res = solve_quadratic(m, n)
        assert len(res.roots) == 2
        assert res.max_residual() <= TINY * _scale(m, n)
        s = res.roots[0] + res.roots[1]
        p = res.roots[0] * res.roots[1]
        assert (s + m).mag() <= TINY * _scale(m, n)
        assert (p - n).mag() <= TINY * _scale(m, n)


def test_quadratic_rational_discriminant_stays_exact():
    res = solve_quadratic(rat(-5), rat(6))
    assert [r.fraction for r in res.roots] == [Fraction(2), Fraction(3)]
    res = solve_quadratic(rat(1), rat(-6))
    assert [r.fraction for r in res.roots] == [Fraction(-3), Fraction(2)]


@pytest.mark.parametrize("mode", ["rational", "complex"])
@pytest.mark.parametrize("k", [20, 40, 60, 100])
def test_quadratic_keeps_the_small_root_of_a_cancelling_pair(k, mode):
    # z^2 + m z + 2 has roots near -m and -2/m; (-m + sqrt(m^2 - 8)) / 2
    # cancels nearly every digit, so the small root must come from Vieta
    m = 10 ** k
    make = rat if mode == "rational" else (lambda v: cx(v, 0, 256))
    small = min(solve_quadratic(make(m), make(2), prec=256).roots, key=lambda r: r.mag())
    # the root is -2/m (1 + 2/m^2 + ...); one exact Newton step from -2/m
    # has it to 1e-79 relative
    r = Fraction(-2, m)
    r -= (r * r + m * r + 2) / (2 * r + m)
    assert ((small - r) / r).mag() <= mpmath.mpf("1e-60")


def test_cardano_random_suite():
    rng = random.Random(22)
    for _ in range(80):
        p, q = rand_scalar(rng), rand_scalar(rng)
        res = solve_cubic_cardano(p, q)
        assert len(res.roots) == 3
        assert res.max_residual() <= TINY * _scale(p, q)


def test_cardano_edge_shapes():
    r = solve_cubic_cardano(rat(0), rat(-8))
    assert any((x - rat(2)).mag() <= TINY for x in r.roots)
    r = solve_cubic_cardano(rat(-4), rat(0))  # z(z^2 - 4)
    want = [rat(-2), rat(0), rat(2)]
    got = sorted(r.roots, key=lambda s: s.to_mpc().real)
    assert all((a - b).mag() <= TINY for a, b in zip(got, want))
    r = solve_cubic_cardano(rat(0), rat(0))
    assert all(x.mag() == 0 for x in r.roots)


def test_all_real_cubic_imaginary_parts_cancel():
    # three real roots force complex intermediates; the forced pairing of the
    # two cube roots must cancel the imaginary parts outright
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        p = rat(-rng.randint(1, 12), rng.randint(1, 4))
        q = rat(rng.randint(-8, 8), rng.randint(1, 4))
        disc = rat(4) * p ** 3 + rat(27) * q ** 2
        if not disc.fraction < 0:
            continue
        checked += 1
        res = solve_cubic_cardano(p, q)
        for root in res.roots:
            assert abs(root.im()) <= TINY
        assert res.max_residual() <= TINY * _scale(p, q)


def test_cubic_general_matches_known_factorization():
    res = solve_cubic_general(rat(-6), rat(11), rat(-6))  # (z-1)(z-2)(z-3)
    got = sorted(res.roots, key=lambda s: s.to_mpc().real)
    for r, k in zip(got, (1, 2, 3)):
        assert (r - rat(k)).mag() <= TINY


@pytest.mark.parametrize("mode", ["rational", "complex"])
@pytest.mark.parametrize("prec, k, bound", [
    (256, 31, "1e-60"), (256, 45, "1e-60"), (256, 60, "1e-60"),
    (512, 45, "1e-120"), (512, 60, "1e-120")])
def test_cubic_keeps_its_small_roots_beside_a_large_one(prec, k, bound, mode):
    # eps b^3 + b^2 + 1 has roots near -1/eps and +-i; the shift back from
    # the depressed cubic, by 1/(3 eps), cancels nearly every digit of the
    # small pair, so they must come from Vieta's relations with the large root
    eps = rat(1, 10 ** k) if mode == "rational" else cx(Fraction(1, 10 ** k), 0, prec)
    cond = UniPoly([rat(1), rat(0), rat(1), eps], "b")
    deg, roots = solve_condition(cond, prec=prec)
    assert deg == 3 and len(roots) == 3
    for r in roots:
        assert relative_residual(cond, r) <= mpmath.mpf(bound), r


def test_cubic_small_double_root_beside_a_large_one():
    # (z - 1)^2 (z + 2^100): Vieta gives the pair as exactly 1, where the
    # cubic's slope is exactly zero, so no Newton step may divide by it
    res = solve_cubic_general(rat(2 ** 100 - 2), rat(1 - 2 ** 101), rat(2 ** 100), prec=256)
    assert res.roots[1:] == (rat(1), rat(1)) and res.max_residual() == 0


def test_real_coefficients_give_conjugate_closed_roots():
    rng = random.Random(24)
    for _ in range(40):
        m, n, p = (rand_scalar(rng) for _ in range(3))
        res = solve_cubic_general(m, n, p)
        conj = [r.conjugate() for r in res.roots]
        ok, _ = match_roots(res.roots, conj, tol="1e-60")
        assert ok


def test_quartic_random_suite():
    rng = random.Random(25)
    for _ in range(60):
        n, p, q = (rand_scalar(rng) for _ in range(3))
        res = solve_quartic(n, p, q)
        assert len(res.roots) == 4
        assert res.max_residual() <= TINY * _scale(n, p, q)


def test_quartic_biquadratic_path():
    res = solve_quartic(rat(-5), rat(0), rat(4))  # (z^2-1)(z^2-4)
    got = sorted(res.roots, key=lambda s: s.to_mpc().real)
    for r, k in zip(got, (-2, -1, 1, 2)):
        assert (r - rat(k)).mag() <= TINY
    assert res.method == "biquadratic"


def test_quartic_trinomial_path_uses_low_degree_chain():
    res = solve_quartic(rat(0), rat(1), rat(1))
    assert len(res.roots) == 4
    assert res.max_residual() <= TINY


@pytest.mark.parametrize("mode", ["rational", "complex"])
@pytest.mark.parametrize("ascending, tol", [
    ((5, 2, -3, 0, 1), "1e-60"),   # z^4 - 3z^2 + 2z + 5
    ((0, 1, 0, 0, 1), "1e-60"),    # z^4 + z: its map sends two roots to y = 0
    ((12, 4, -9, 0, 1), "1e-30"),  # (z - 2)^2 (z + 1)(z + 3)
])
def test_quartic_pulls_back_through_subsidiary_relations_alone(monkeypatch, ascending,
                                                               tol, mode):
    def refuse(step):
        raise AssertionError("solve_quartic built the inverse map of a %s step" % step.kind)

    monkeypatch.setattr(pipeline, "step_inverse", refuse)
    make = rat if mode == "rational" else (lambda v: cx(v, 0, 256))
    cs = [make(c) for c in ascending]
    res = solve_quartic(cs[2], cs[1], cs[0], prec=256)
    ok, dist = match_roots(res.roots, find_roots(UniPoly(cs)).roots, tol=tol)
    assert ok, dist


def test_quartic_whose_first_step_leaves_no_z_term():
    # z^4 - 3z^2 + 3z - 3/4: the first step (b = 1) lands on y^4 - 3/4, so
    # the second runs at p = 0, where b = 0 and y = -z^2 merges root pairs
    n, p, q = rat(-3), rat(3), rat(-3, 4)
    first = quartic_remove_2_3(n, p, q)
    assert first.output == UniPoly([rat(-3, 4), rat(0), rat(0), rat(0), rat(1)], "y")
    res = solve_quartic(n, p, q, prec=256)
    ok, dist = match_roots(res.roots, find_roots(UniPoly([q, p, n, rat(0), rat(1)])).roots,
                           tol="1e-60")
    assert ok, dist


@pytest.mark.parametrize("prec", [128, 256, 512])
@pytest.mark.parametrize("mode", ["rational", "complex"])
def test_quartic_whose_first_step_leaves_a_noise_z_term_keeps_its_bits(mode, prec):
    # in complex mode the first step leaves rounding noise for the z term
    # (-2.6e-77 at 256 bits), whose near-double root at b = 0 once cost
    # half the bits (6.5e-39); counted as 0, it takes rational mode's path
    lift = rat if mode == "rational" else lambda v: cx(v, 0, prec)
    n, p, q = lift(-3), lift(3), lift(Fraction(-3, 4))
    res = solve_quartic(n, p, q, prec=prec)
    assert res.method == "tschirnhaus-biquadratic"
    assert res.max_residual() <= mpmath.ldexp(1, 8 - prec), res.residuals


def test_solve_monic_dispatch_and_degree_guard():
    rng = random.Random(26)
    for deg in (1, 2, 3, 4):
        P = rand_monic(rng, deg)
        res = solve_monic(P)
        assert len(res.roots) == deg
        assert res.max_residual() <= TINY * max(mpmath.mpf(1), P.max_mag())
    with pytest.raises(ValueError):
        solve_monic(rand_monic(rng, 5))


def test_solve_monic_agrees_with_iterative_root_finder():
    rng = random.Random(27)
    for deg in (2, 3, 4):
        for _ in range(10):
            P = rand_monic(rng, deg)
            closed = solve_monic(P)
            iterated = find_roots(P)
            ok, dist = match_roots(closed.roots, iterated.roots, tol="1e-40")
            assert ok, "closed-form and iterative roots diverge: %s" % dist


def test_solve_condition_effective_degrees():
    assert solve_condition(UniPoly([], "b")) == (-1, [])
    assert solve_condition(UniPoly([rat(3)], "b")) == (0, [])
    deg, roots = solve_condition(UniPoly([rat(4), rat(2)], "b"))
    assert deg == 1 and roots[0].fraction == -2
    # a leading coefficient at the noise of 256 bits, 2^-250 of the
    # scale, is not a real degree
    lead = rat(4, 2 ** 250) * rat(2).sqrt()
    deg, roots = solve_condition(UniPoly([rat(4), rat(2), lead], "b"))
    assert deg == 1
    assert (roots[0] + rat(2)).mag() <= mpmath.mpf("1e-40")
    # one far above that noise is, though below the acceptance tolerance
    lead = rat(1, 10 ** 45) * rat(2).sqrt()
    deg, roots = solve_condition(UniPoly([rat(4), rat(2), lead], "b"))
    assert deg == 2 and (roots[pick_root(roots)] + rat(2)).mag() <= mpmath.mpf("1e-40")
