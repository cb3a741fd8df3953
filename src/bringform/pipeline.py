"""Root-transformation steps that lower a polynomial toward trinomial shape.

Every step pairs the source polynomial A(z) with a subsidiary relation
B(z, y) = 0 that is monic in z and linear in y, so the transformed polynomial
C(y) is the z-resultant of the pair and each root of C is the image T(z_i) of
a root of A.  Free coefficients of the subsidiary are pinned by closed-form
conditions of degree at most three; nothing above a cubic is ever solved.

Subsidiary coefficients are named upward from the constant term:

    k = 1:  B = z + a - y                    T = z + a
    k >= 2: B = z^k + ... + c*z^2 + b*z + (a + y)
                                             T = -(z^k + ... + b*z + a)

Each step is computed twice, by independent routes: a Sylvester resultant in
z, and power-sum transport through Newton's identities.  The two results must
agree (exactly in rational mode) or the step refuses to exist.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elimination import (BiPoly, polynomial_resultant,
                          sylvester_resultant_with_factor,
                          transform_by_power_sums)
from .errors import ConsistencyError, DegenerateDenominator, RescueExhausted
from .polynomials import (UniPoly, coeff_scale, power_sums, rem_monic,
                          shift_substitute)
from .scalars import Scalar, as_tol, negligible, pick_root, rat
from .solvers import solve_condition, solve_monic

RESCUE_SCALES = (2, 3, 5, 7, 11)


def _scalar(v) -> Scalar:
    s = Scalar._coerce(v)
    if s is None:
        raise TypeError("expected a Scalar-compatible value, got %r" % (v,))
    return s


@dataclass(frozen=True)
class Subsidiary:
    """The relation B(z, y) = 0 of one step; coefficients ascending from the
    constant term, so (a,), (a, b), (a, b, c) or (a, b, c, d)."""

    k: int
    coeffs: tuple

    def __post_init__(self):
        cs = tuple(_scalar(c) for c in self.coeffs)
        if len(cs) != self.k:
            raise ValueError("need %d coefficients, got %d" % (self.k, len(cs)))
        object.__setattr__(self, "coeffs", cs)

    def is_identity(self) -> bool:
        return self.k == 1 and self.coeffs[0].is_exact_zero()

    def t_coeffs(self):
        """Ascending z-coefficients of the map T."""
        if self.k == 1:
            return [self.coeffs[0], rat(1)]
        return [-c for c in self.coeffs] + [rat(-1)]

    def z_coeffs_in_y(self):
        """B as a polynomial in z whose coefficients live in y."""
        a = self.coeffs[0]
        if self.k == 1:
            return [UniPoly([a, rat(-1)], "y"), UniPoly([rat(1)], "y")]
        rows = [UniPoly([a, rat(1)], "y")]
        rows.extend(UniPoly([c], "y") for c in self.coeffs[1:])
        rows.append(UniPoly([rat(1)], "y"))
        return rows

    def map_in_z(self) -> UniPoly:
        return UniPoly(self.t_coeffs(), "z")

    def to_json(self):
        d = {"k": self.k}
        for name, c in zip("abcd", self.coeffs):
            d[name] = c.to_json()
        return d

    @classmethod
    def from_json(cls, d, prec=None):
        k = d["k"]
        coeffs = [Scalar.from_json(d[name], prec) for name in "abcd"[:k]]
        return cls(k, tuple(coeffs))


@dataclass(frozen=True)
class AuxSolve:
    """Record of one auxiliary closed-form solve: what was solved, every root
    found, and which was chosen."""

    kind: str
    degree: int
    roots: tuple
    chosen: int

    def to_json(self):
        return {"kind": self.kind, "degree": self.degree,
                "roots": [r.to_json() for r in self.roots], "chosen": self.chosen}

    @classmethod
    def from_json(cls, d, prec=None):
        return cls(d["kind"], d["degree"],
                   tuple(Scalar.from_json(r, prec) for r in d["roots"]), d["chosen"])


@dataclass(frozen=True)
class TransformStep:
    kind: str
    input: UniPoly
    subsidiary: Subsidiary  # None only for the reciprocal step
    output: UniPoly
    aux: tuple
    normalization: Scalar
    rescue_scaling: Scalar = None

    @property
    def is_identity(self) -> bool:
        return self.subsidiary is not None and self.subsidiary.is_identity()

    def to_json(self):
        return {
            "kind": self.kind,
            "subsidiary": None if self.subsidiary is None else self.subsidiary.to_json(),
            "aux": [a.to_json() for a in self.aux],
            "rescue_lambda": None if self.rescue_scaling is None else self.rescue_scaling.to_json(),
            "output": self.output.to_json(),
        }

    @classmethod
    def from_json(cls, d, input_poly: UniPoly, prec=None):
        sub = d.get("subsidiary")
        lam = d.get("rescue_lambda")
        return cls(
            d["kind"],
            input_poly,
            None if sub is None else Subsidiary.from_json(sub, prec),
            UniPoly.from_json(d["output"], prec),
            tuple(AuxSolve.from_json(a, prec) for a in d.get("aux", ())),
            rat(1),
            None if lam is None else Scalar.from_json(lam, prec),
        )


@dataclass(frozen=True)
class BringAnsatz:
    """Parameters of the coupled substitution b = alpha*d + zeta, c = d + gamma
    that makes the second-coefficient condition hold for every d."""

    alpha: Scalar
    gamma: Scalar
    zeta: Scalar
    d: Scalar
    d_cubic: UniPoly


@dataclass(frozen=True)
class ObstructionReport:
    """Why a cubic subsidiary cannot finish a trinomial quartic in radicals of
    low degree: the two remaining conditions collide in a sextic."""

    p: Scalar
    q: Scalar
    a: Scalar
    y2_condition: UniPoly  # in b over c
    y1_condition: UniPoly  # in b over c
    obstruction: UniPoly   # in c
    degree: int
    degenerate: bool


@dataclass(frozen=True)
class ReductionTrace:
    original: UniPoly
    steps: tuple
    final: UniPoly
    bring_p: Scalar
    bring_q: Scalar

    def to_json(self):
        return {
            "original": self.original.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "bring_p": self.bring_p.to_json(),
            "bring_q": self.bring_q.to_json(),
        }

    @classmethod
    def from_json(cls, d, prec=None):
        original = UniPoly.from_json(d["original"], prec)
        steps = []
        cur = original
        for sd in d["steps"]:
            lam = sd.get("rescue_lambda")
            if lam is not None:
                cur = scale_poly(cur, Scalar.from_json(lam, prec))
            st = TransformStep.from_json(sd, cur.with_var("z"), prec)
            steps.append(st)
            cur = st.output
        final = steps[-1].output if steps else original
        return cls(original, tuple(steps), final,
                   Scalar.from_json(d["bring_p"], prec),
                   Scalar.from_json(d["bring_q"], prec))


def scale_poly(poly: UniPoly, lam) -> UniPoly:
    """A(lam * w) / lam^n: root z maps to w = z / lam, monic stays monic."""
    lam = _scalar(lam)
    n = poly.degree
    out = []
    for i, c in enumerate(poly.coeffs):
        out.append(c / lam ** (n - i))
    return UniPoly(out, poly.var)


def expected_step_input(prev_output: UniPoly, step: TransformStep) -> UniPoly:
    if step.rescue_scaling is not None:
        return scale_poly(prev_output, step.rescue_scaling)
    return prev_output


def _require_monic(poly: UniPoly):
    if not poly.is_monic():
        raise ValueError("transformation steps require a monic polynomial")


def _assert_vanishes(value, scale, tol, what):
    """value is a Scalar or a parameter polynomial that must be zero."""
    coeffs = value.coeffs if isinstance(value, UniPoly) else (value,)
    for c in coeffs:
        if not negligible(c, tol, scale):
            raise ConsistencyError("%s failed to vanish: %s" % (what, value))


def _identity_step(kind: str, poly: UniPoly) -> TransformStep:
    sub = Subsidiary(1, (rat(0),))
    return TransformStep(kind, poly, sub, poly, (), rat(1))


def dual_eliminate(A: UniPoly, sub: Subsidiary, tol=None):
    """Eliminate z by both routes and insist they agree.

    Returns (C, lead) where C is monic in y and lead is the factor divided out
    of the resultant.  The two routes share no code past the input, so their
    agreement is a genuine cross-check, not a tautology.
    """
    C_res, lead = sylvester_resultant_with_factor(A, BiPoly(sub.z_coeffs_in_y()))
    C_ps = transform_by_power_sums(A, sub.t_coeffs())
    if C_res.is_rational_tree() and C_ps.is_rational_tree():
        if not C_res == C_ps:
            raise ConsistencyError(
                "resultant and power-sum routes disagree: %s vs %s" % (C_res, C_ps))
    else:
        scale = coeff_scale(C_res, C_ps)
        t = as_tol(tol)
        for k in range(max(C_res.degree, C_ps.degree) + 1):
            d = C_res.coeff(k) - C_ps.coeff(k)
            if d.mag() > t * scale:
                raise ConsistencyError(
                    "resultant and power-sum routes disagree at y^%d by %s" % (k, d.mag()))
    return C_res, lead


def depress(poly: UniPoly, *, tol=None) -> TransformStep:
    """Remove the second coefficient with the shift map T = z + c_{n-1}/n."""
    _require_monic(poly)
    n = poly.degree
    if n < 2:
        raise ValueError("nothing to depress below degree 2")
    c = poly.coeff(n - 1)
    if c.is_exact_zero():
        return _identity_step("depress", poly)
    a = c * rat(1, n)
    sub = Subsidiary(1, (a,))
    C, lead = dual_eliminate(poly, sub, tol)
    # third route, classical shift: C(y) must equal A(y - a)
    shifted = shift_substitute(poly, a)
    scale = coeff_scale(C, shifted)
    for k in range(n + 1):
        _assert_vanishes(C.coeff(k) - shifted.coeff(k), scale, tol, "shift cross-check")
    _assert_vanishes(C.coeff(n - 1), scale, tol, "second coefficient")
    return TransformStep("depress", poly, sub, C, (), lead)


def _symbolic_k2(A: UniPoly):
    """C(y) under T = -(z^2 + b z + a(b)) with a(b) = -(s2 + b s1)/n, leaving
    b formal.  Coefficients of the result are polynomials in b."""
    n = A.degree
    s = power_sums(A, 2)
    neg_a = UniPoly([s.s(2) * rat(1, n), s.s(1) * rat(1, n)], "b")
    t = [neg_a, UniPoly([rat(0), rat(-1)], "b"), UniPoly([rat(-1)], "b")]
    return transform_by_power_sums(A, t), neg_a


def _quadratic_subsidiary_step(kind: str, A: UniPoly, cond_power: int,
                               *, prec=None, tol=None) -> TransformStep:
    """One k = 2 step: a(b) pins the second coefficient, then the coefficient
    of y^cond_power, as a polynomial in b of degree <= 3, picks b."""
    _require_monic(A)
    n = A.degree
    Csym, neg_a = _symbolic_k2(A)
    scale = coeff_scale(A)
    _assert_vanishes(Csym.coeff(n - 1), scale, tol, "second coefficient in b")
    cond = Csym.coeff(cond_power)
    deg, roots = solve_condition(cond, prec=prec, tol=tol)
    if deg == 0:
        raise DegenerateDenominator(cond.coeff(0),
                                    "coefficient condition for %s is unsatisfiable" % kind)
    if deg < 0:
        # condition holds identically: the input already has the target shape
        return _identity_step(kind, A)
    idx = pick_root(roots, tol)
    b = roots[idx]
    a = neg_a.eval(b)
    if isinstance(a, UniPoly):
        a = a.coeff(0)
    a = -a
    sub = Subsidiary(2, (a, b))
    C, lead = dual_eliminate(A, sub, tol)
    out_scale = coeff_scale(C)
    _assert_vanishes(C.coeff(n - 1), out_scale, tol, "second output coefficient")
    _assert_vanishes(C.coeff(cond_power), out_scale, tol, "targeted output coefficient")
    aux = (AuxSolve(kind + "-b", deg, tuple(roots), idx),)
    return TransformStep(kind, A, sub, C, aux, lead)


def to_principal(poly: UniPoly, *, prec=None, tol=None) -> TransformStep:
    """Remove the second and third coefficients with a quadratic subsidiary."""
    _require_monic(poly)
    n = poly.degree
    if n < 3:
        raise ValueError("principal shape needs degree at least 3")
    if poly.coeff(n - 1).is_exact_zero() and poly.coeff(n - 2).is_exact_zero():
        return _identity_step("principal", poly)
    return _quadratic_subsidiary_step("principal", poly, n - 2, prec=prec, tol=tol)


def cubic_b_quadratic(m, n, p) -> UniPoly:
    """The monic quadratic in b whose roots complete z^3 + m z^2 + n z + p to
    pure form; raises when its leading coefficient 3n - m^2 vanishes."""
    m, n, p = _scalar(m), _scalar(n), _scalar(p)
    A = UniPoly([p, n, m, rat(1)], "z")
    Csym, _ = _symbolic_k2(A)
    cond = Csym.coeff(1)
    if cond.degree < 2 or cond.leading.is_exact_zero():
        raise DegenerateDenominator(3 * n - m * m,
                                    "pure-form condition degenerates when 3n - m^2 = 0")
    return cond.monic()[0]


def cubic_to_pure(m, n, p, *, prec=None, tol=None) -> TransformStep:
    """Take z^3 + m z^2 + n z + p to a pure cubic y^3 + const.

    When 3n = m^2 the plain shift already lands on a pure cubic, so the
    quadratic subsidiary is not needed at all.
    """
    m, n, p = _scalar(m), _scalar(n), _scalar(p)
    A = UniPoly([p, n, m, rat(1)], "z")
    if (3 * n - m * m).is_exact_zero():
        st = depress(A, tol=tol)
        return TransformStep("pure-cubic", A, st.subsidiary, st.output,
                             st.aux, st.normalization)
    return _quadratic_subsidiary_step("pure-cubic", A, 1, prec=prec, tol=tol)


def quartic_remove_2_3(n, p, q, *, prec=None, tol=None) -> TransformStep:
    """Remove the z^2 term from z^4 + n z^2 + p z + q (the z^3 term stays gone)."""
    n, p, q = _scalar(n), _scalar(p), _scalar(q)
    A = UniPoly([q, p, n, rat(0), rat(1)], "z")
    return _quadratic_subsidiary_step("quartic-remove-2-3", A, 2, prec=prec, tol=tol)


def quartic_remove_2_4(p, q, *, prec=None, tol=None) -> TransformStep:
    """Remove the z term from z^4 + p z + q, leaving a quadratic in y^2.

    The coefficient condition here is the cubic -p b^3 - 4q b^2 + p^2 = 0,
    the one place the quartic route genuinely needs a cubic solve.
    """
    p, q = _scalar(p), _scalar(q)
    A = UniPoly([q, p, rat(0), rat(0), rat(1)], "z")
    return _quadratic_subsidiary_step("quartic-remove-2-4", A, 1, prec=prec, tol=tol)


def reciprocal_transform(poly: UniPoly, *, tol=None) -> TransformStep:
    """Map every root to its reciprocal by reversing the coefficient list,
    cross-checked against Res_z(A, y z - 1)."""
    _require_monic(poly)
    c0 = poly.coeff(0)
    if c0.is_exact_zero():
        raise DegenerateDenominator(c0, "a root at zero has no reciprocal")
    rev = list(reversed(poly.coeffs))
    C = UniPoly([c / c0 for c in rev], "y")
    lifted = UniPoly([UniPoly([c], "y") for c in poly.coeffs], "z")
    B = UniPoly([UniPoly([rat(-1)], "y"), UniPoly([rat(0), rat(1)], "y")], "z")
    res = polynomial_resultant(lifted, B)
    res_monic, _ = res.monic()
    scale = coeff_scale(C, res_monic)
    for k in range(C.degree + 1):
        _assert_vanishes(C.coeff(k) - res_monic.coeff(k), scale, tol,
                         "reciprocal cross-check")
    return TransformStep("reciprocal", poly, None, C, (), c0)


def quartic_obstruction_G(p, q, *, prec=None, tol=None) -> ObstructionReport:
    """Push a cubic subsidiary at z^4 + p z + q and report the blockage.

    The constant coefficient a = 3p/4 removes y^3 for free, but the conditions
    on y^2 and y^1 are then two polynomials E(b, c), F(b, c), and eliminating
    b leaves a degree-six polynomial in c: reaching a pure quartic this way
    costs a sextic, which is the whole point of reporting it.
    """
    p, q = _scalar(p), _scalar(q)
    A = UniPoly([q, p, rat(0), rat(0), rat(1)], "z")
    s = power_sums(A, 3)
    a = -s.s(3) * rat(1, 4)

    def two_level(x):
        return UniPoly([UniPoly([x], "c")], "b")

    neg_b = UniPoly([UniPoly([rat(0)], "c"), UniPoly([rat(-1)], "c")], "b")
    neg_c = UniPoly([UniPoly([rat(0), rat(-1)], "c")], "b")
    t = [two_level(-a), neg_b, neg_c, two_level(rat(-1))]
    Csym = transform_by_power_sums(A, t)
    scale = coeff_scale(A)
    top = Csym.coeff(3)
    for row in (top.coeffs if isinstance(top, UniPoly) else (top,)):
        _assert_vanishes(row, scale, tol, "second coefficient in b, c")
    E = Csym.coeff(2)
    F = Csym.coeff(1)
    G = polynomial_resultant(E, F)
    if isinstance(G, Scalar):
        G = UniPoly([G], "c")
    eff = G.effective_degree(tol)
    return ObstructionReport(p, q, a, E, F, G, eff, eff < 6)


# -- the quintic -----------------------------------------------------------


def _monomials_times(m1, m2, weight):
    out = {}
    for k1, v1 in m1.items():
        for k2, v2 in m2.items():
            key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            term = v1 * v2 * weight
            got = out.get(key)
            out[key] = term if got is None else got + term
    return out


def _second_condition_monomials(p, q, r):
    """The y^3 condition E as a monomial dict over (b, c, d), with the first
    condition a = (3 p d + 4 q)/5 already substituted in."""
    A = UniPoly([r, q, p, rat(0), rat(0), rat(1)], "z")
    s = power_sums(A, 8)
    mons = {
        4: {(0, 0, 0): rat(1)},
        3: {(0, 0, 1): rat(1)},
        2: {(0, 1, 0): rat(1)},
        1: {(1, 0, 0): rat(1)},
        0: {(0, 0, 1): p * rat(3, 5), (0, 0, 0): q * rat(4, 5)},
    }
    E = {}
    for u in range(5):
        for v in range(5):
            sk = s.s(u + v)
            if sk.is_exact_zero():
                continue
            for key, term in _monomials_times(mons[u], mons[v], sk * rat(-5, 2)).items():
                got = E.get(key)
                E[key] = term if got is None else got + term
    return E


def _e_at(E, key):
    got = E.get(key)
    return rat(0) if got is None else got


def quintic_bring_ansatz(p, q, r, *, prec=None, tol=None):
    """Choose alpha, gamma, zeta so that with b = alpha d + zeta, c = d + gamma
    the y^3 condition on z^5 + p z^2 + q z + r holds for every d, then pin d by
    the y^2 condition, a cubic.  Returns (BringAnsatz, aux solves).
    """
    p, q, r = _scalar(p), _scalar(q), _scalar(r)
    E = _second_condition_monomials(p, q, r)
    scale = coeff_scale(UniPoly([r, q, p, rat(1)], "z"))
    e_bc, e_bd = _e_at(E, (1, 1, 0)), _e_at(E, (1, 0, 1))
    e_cd, e_c2, e_d2 = _e_at(E, (0, 1, 1)), _e_at(E, (0, 2, 0)), _e_at(E, (0, 0, 2))
    e_b, e_c, e_d = _e_at(E, (1, 0, 0)), _e_at(E, (0, 1, 0)), _e_at(E, (0, 0, 1))
    e_00 = _e_at(E, (0, 0, 0))
    if not negligible(_e_at(E, (2, 0, 0)), tol, scale):
        raise ConsistencyError("unexpected b^2 term in the y^3 condition")
    den = e_bc + e_bd
    if negligible(den, tol, scale):
        raise DegenerateDenominator(den, "ansatz coupling denominator 15p + 20q vanished")
    alpha = -(e_cd + e_c2 + e_d2) / den
    zeta1 = -(e_bc * alpha + e_cd + 2 * e_c2) / den
    zeta0 = -(e_b * alpha + e_c + e_d) / den
    g2 = e_bc * zeta1 + e_c2
    g1 = e_b * zeta1 + e_c + e_bc * zeta0
    g0 = e_00 + e_b * zeta0
    gq = UniPoly([g0, g1, g2], "gamma")
    deg_g, groots = solve_condition(gq, prec=prec, tol=tol)
    if deg_g == 0:
        raise DegenerateDenominator(g0, "gamma condition is unsatisfiable")
    if deg_g < 0:
        gidx, gamma = 0, rat(0)
        groots = (rat(0),)
    else:
        gidx = pick_root(groots, tol)
        gamma = groots[gidx]
    zeta = zeta1 * gamma + zeta0
    aux = [AuxSolve("gamma-quadratic", max(deg_g, 0), tuple(groots), gidx)]

    # with gamma fixed, E composed with the ansatz must vanish for every d
    b_d = UniPoly([zeta, alpha], "d")
    c_d = UniPoly([gamma, rat(1)], "d")
    d_d = UniPoly([rat(0), rat(1)], "d")
    composed = None
    for (ib, ic, idd), v in E.items():
        term = (b_d ** ib) * (c_d ** ic) * (d_d ** idd) * v
        composed = term if composed is None else composed + term
    _assert_vanishes(composed, scale, tol, "ansatz-composed y^3 condition")

    # third condition: the y^2 coefficient, degree at most 3 in the free d
    A = UniPoly([r, q, p, rat(0), rat(0), rat(1)], "z")
    a_d = UniPoly([q * rat(4, 5), p * rat(3, 5)], "d")
    t = [-a_d, -b_d, -c_d, -d_d, UniPoly([rat(-1)], "d")]
    Csym = transform_by_power_sums(A, t)
    _assert_vanishes(Csym.coeff(4), scale, tol, "y^4 coefficient in d")
    _assert_vanishes(Csym.coeff(3), scale, tol, "y^3 coefficient in d")
    dcub = Csym.coeff(2)
    if isinstance(dcub, Scalar):
        dcub = UniPoly([dcub], "d")
    if dcub.degree > 3:
        raise ConsistencyError("the d condition exceeded degree three: %s" % dcub)
    deg_d, droots = solve_condition(dcub, prec=prec, tol=tol)
    if deg_d == 0:
        raise DegenerateDenominator(dcub.coeff(0), "d condition is unsatisfiable")
    if deg_d < 0:
        didx, dstar = 0, rat(0)
        droots = (rat(0),)
    else:
        didx = pick_root(droots, tol)
        dstar = droots[didx]
    aux.append(AuxSolve("d-cubic", max(deg_d, 0), tuple(droots), didx))
    return BringAnsatz(alpha, gamma, zeta, dstar, dcub), aux


def quintic_to_bring_jerrard(p, q, r, *, prec=None, tol=None) -> TransformStep:
    """One quartic subsidiary takes z^5 + p z^2 + q z + r to y^5 + P y + Q.

    When the ansatz denominator vanishes the input is rescaled z = lam * w
    over a short ladder of integer lam until the denominator revives; the
    step then records the scaled input and the lam used.
    """
    p, q, r = _scalar(p), _scalar(q), _scalar(r)
    if p.is_exact_zero():
        return _identity_step("bring-jerrard",
                              UniPoly([r, q, p, rat(0), rat(0), rat(1)], "z"))
    failures = []
    for lam_int in (1,) + RESCUE_SCALES:
        lam = rat(lam_int)
        ps = p / lam ** 3
        qs = q / lam ** 4
        rs = r / lam ** 5
        A = UniPoly([rs, qs, ps, rat(0), rat(0), rat(1)], "z")
        try:
            ansatz, aux = quintic_bring_ansatz(ps, qs, rs, prec=prec, tol=tol)
        except DegenerateDenominator as exc:
            failures.append((lam_int, exc))
            continue
        d = ansatz.d
        b = ansatz.alpha * d + ansatz.zeta
        c = d + ansatz.gamma
        a = (3 * ps * d + 4 * qs) * rat(1, 5)
        sub = Subsidiary(4, (a, b, c, d))
        C, lead = dual_eliminate(A, sub, tol)
        out_scale = coeff_scale(C)
        _assert_vanishes(C.coeff(4), out_scale, tol, "y^4 coefficient")
        _assert_vanishes(C.coeff(3), out_scale, tol, "y^3 coefficient")
        _assert_vanishes(C.coeff(2), out_scale, tol, "y^2 coefficient")
        return TransformStep("bring-jerrard", A, sub, C, tuple(aux), lead,
                             rescue_scaling=None if lam_int == 1 else lam)
    raise RescueExhausted("no rescue scaling revived the ansatz denominator",
                          tuple(failures))


def reduce_general_quintic(poly: UniPoly, *, prec=None, tol=None) -> ReductionTrace:
    """Full chain: depress, principal shape, then the trinomial step.

    Identity steps (stages the input already satisfies) are elided from the
    trace; the final polynomial is y^5 + P y + Q.
    """
    _require_monic(poly)
    if poly.degree != 5:
        raise ValueError("the reduction chain is for monic quintics")
    steps = []
    cur = poly.with_var("z")
    st = depress(cur, tol=tol)
    if not st.is_identity:
        steps.append(st)
        cur = st.output.with_var("z")
    st = to_principal(cur, prec=prec, tol=tol)
    if not st.is_identity:
        steps.append(st)
        cur = st.output.with_var("z")
    st = quintic_to_bring_jerrard(cur.coeff(2), cur.coeff(1), cur.coeff(0),
                                  prec=prec, tol=tol)
    if not st.is_identity:
        steps.append(st)
        cur = st.output
    final = cur.with_var("y")
    return ReductionTrace(poly, tuple(steps), final, final.coeff(1), final.coeff(0))


def back_solve(step: TransformStep, y, *, prec=None, tol=None):
    """All z with B(z, y) = 0 that are also roots of the step's input; these
    are exactly the preimages of y under the step's map."""
    y = _scalar(y)
    if step.kind == "reciprocal":
        if y.is_exact_zero():
            raise ConsistencyError("zero has no reciprocal preimage")
        return [rat(1) / y]
    sub = step.subsidiary
    if sub.is_identity():
        return [y]
    if sub.k == 1:
        return [y - sub.coeffs[0]]
    B_at_y = UniPoly([sub.coeffs[0] + y] + list(sub.coeffs[1:]) + [rat(1)], "z")
    cands = solve_monic(B_at_y, prec=prec, tol=tol).roots
    keep = [z for z in cands if lies_on(step.input, z, tol)]
    if not keep:
        raise ConsistencyError("no preimage of %s lies on the source polynomial" % y)
    return keep


def lies_on(A: UniPoly, z, tol=None) -> bool:
    """Is z a root of A within |A(z)| <= tol * coeff_scale(A) * max(1, |z|)^deg A?"""
    bound = as_tol(tol) * coeff_scale(A) * max(1, z.mag()) ** A.degree
    return A.eval(z).mag() <= bound


def step_inverse(step: TransformStep, tol=None):
    """The inverse map U of a step, with U(T(z)) = z for every root z of the
    step's monic input A, or None when T merges roots of A.

    U = sum u_j y^j solves the n x n system sum u_j T^j = z modulo A
    (n = deg A; PARI's ``modreverse``).  The elimination is exact when every
    matrix entry is rational, and pivots by magnitude otherwise.  A pivot that
    is exactly zero, or in complex mode no larger than tol times the largest
    entry, means the basis 1, T, ..., T^(n-1) is singular: the map is not
    one-to-one on the roots of A and only ``back_solve`` can pull them back.
    """
    A = step.input
    n = A.degree
    T = step.subsidiary.map_in_z()
    cols = [rem_monic(UniPoly([rat(1)], "z"), A)]
    while len(cols) < n:
        cols.append(rem_monic(UniPoly(cols[-1], "z") * T, A))
    rhs = rem_monic(UniPoly([rat(0), rat(1)], "z"), A)
    M = [[cols[j][i] for j in range(n)] + [rhs[i]] for i in range(n)]
    entries = [e for row in M for e in row[:n]]
    exact = all(e.is_rational for e in entries)
    floor = None if exact else as_tol(tol) * max(e.mag() for e in entries)
    for c in range(n):
        p = max(range(c, n), key=lambda r: M[r][c].mag())
        pivot = M[p][c]
        if pivot.is_exact_zero() or (floor is not None and pivot.mag() <= floor):
            return None
        M[c], M[p] = M[p], M[c]
        for r in range(c + 1, n):
            f = M[r][c] / pivot
            if not f.is_exact_zero():
                for k in range(c, n + 1):
                    M[r][k] = M[r][k] - f * M[c][k]
    u = [rat(0)] * n
    for c in range(n - 1, -1, -1):
        acc = M[c][n]
        for k in range(c + 1, n):
            acc = acc - M[c][k] * u[k]
        u[c] = acc / M[c][c]
    return UniPoly(u, "y")
