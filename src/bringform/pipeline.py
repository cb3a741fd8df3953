"""Root-transformation steps that lower a polynomial toward trinomial shape.

Every step pairs the source polynomial A(z) with a subsidiary relation
B(z, y) = 0 that is monic in z and linear in y, so the transformed polynomial
is C(y) = Res_z(A, B) = prod (y - T(z_i)) over the roots z_i of A.  Free
coefficients of the subsidiary are pinned by closed-form conditions of
degree at most three; nothing above a cubic is ever solved.

Subsidiary coefficients are named upward from the constant term:

    k = 1:  B = z + a - y                    T = z + a
    k >= 2: B = z^k + ... + c*z^2 + b*z + (a + y)
                                             T = -(z^k + ... + b*z + a)

Each step is computed twice, by independent routes: det(y - M_T) of
multiplication by T modulo A, and power-sum transport through Newton's
identities.  They must agree (exactly in rational mode) or the step fails.

A ``TransformStep`` owns everything that depends on its kind: ``redo``
recomputes its output, and ``image`` and ``preimages`` move roots through it
forward and back.  The reciprocal step, z -> 1/z, is the one step without a
subsidiary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .elimination import (form_in, formal_resultant, image_elementary,
                          map_charpoly, transform_by_power_sums)
from .errors import ConsistencyError, DegenerateDenominator
from .polynomials import (UniPoly, coeff_mismatch, coeff_scale, power_sums,
                          relative_residual, rem_monic, shift_substitute)
from .scalars import Scalar, as_scalar, as_tol, negligible, pick_root, rat
from .solvers import assemble_preimages, solve_condition, solve_monic


@dataclass(frozen=True)
class Subsidiary:
    """The relation B(z, y) = 0 of one step; coefficients ascending from the
    constant term, so (a,), (a, b), (a, b, c) or (a, b, c, d)."""

    k: int
    coeffs: tuple

    def __post_init__(self):
        cs = tuple(as_scalar(c) for c in self.coeffs)
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

    # not a field: every step maps the previous output itself; the
    # benchmark's outside oracle (bench/oracles.py) still reads it
    rescue_scaling = None

    @property
    def is_identity(self) -> bool:
        return self.subsidiary is not None and self.subsidiary.is_identity()

    def redo(self, tol=None) -> UniPoly:
        """The output recomputed from the input; raises ``ConsistencyError``
        or ``DegenerateDenominator`` when the step cannot be redone."""
        if self.is_identity:
            return self.input
        if self.subsidiary is None:
            return reciprocal_transform(self.input, tol=tol).output
        return dual_eliminate(self.input, self.subsidiary, tol)[0]

    def image(self, zs):
        """The images of the roots zs under the step's map."""
        if self.subsidiary is None:
            return [rat(1) / z for z in zs]
        T = self.subsidiary.map_in_z()
        return [T.eval(z) for z in zs]

    @cached_property
    def inverse(self):
        """The step's inverse map U (``step_inverse``), built once per step:
        ``verify_transform`` and ``preimages`` share it."""
        return step_inverse(self)

    def preimages(self, ys, *, prec=None, tol=None):
        """The roots of the input that the map sends to the roots ys of the
        output, one per y and in the order of ys: 1/y for the reciprocal
        step; U(y) by the step's one inverse map U (``inverse``) when every
        U(y) lies on the input; otherwise by solving the subsidiary relation
        root by root (``assemble_preimages``)."""
        if self.subsidiary is None:
            return [rat(1) / y for y in ys]
        U = self.inverse
        if U is not None:
            zs = [U.eval(y) for y in ys]
            if all(lies_on(self.input, z, tol) for z in zs):
                return zs
        return assemble_preimages(self.input, ys, self, prec=prec, tol=tol)

    def to_json(self):
        return {
            "kind": self.kind,
            "subsidiary": None if self.subsidiary is None else self.subsidiary.to_json(),
            "aux": [a.to_json() for a in self.aux],
            "output": self.output.to_json(),
        }

    @classmethod
    def from_json(cls, d, input_poly: UniPoly, prec=None):
        """Inverse of ``to_json`` on the step's input; ValueError unless the
        step maps that input to a monic output of the same degree, by a
        subsidiary of lower degree, or by reciprocals (no subsidiary) of
        roots that are not zero; ValueError, too, for the rescaled input of
        an older trace (a ``rescue_lambda``), which no step takes now."""
        if d.get("rescue_lambda") is not None:
            raise ValueError("a rescaled step input (rescue_lambda); reduce the quintic again")
        sub = d.get("subsidiary")
        step = cls(
            d["kind"],
            input_poly,
            None if sub is None else Subsidiary.from_json(sub, prec),
            UniPoly.from_json(d["output"], prec),
            tuple(AuxSolve.from_json(a, prec) for a in d.get("aux", ())),
        )
        n = input_poly.degree
        if (step.subsidiary is None) != (step.kind == "reciprocal"):
            raise ValueError("the reciprocal step, and only it, has no subsidiary")
        if step.subsidiary is None and input_poly.coeff(0).is_exact_zero():
            raise ValueError("a root at zero has no reciprocal")
        if step.subsidiary is not None and step.subsidiary.k >= n:
            raise ValueError("a subsidiary of degree %d on an input of degree %d"
                             % (step.subsidiary.k, n))
        _require_monic(step.output)
        if step.output.degree != n:
            raise ValueError("a step output of degree %d from an input of degree %d"
                             % (step.output.degree, n))
        return step


@dataclass(frozen=True)
class BringAnsatz:
    """Parameters of the coupled substitution b = alpha*d + zeta, c = d + gamma
    that makes the second-coefficient condition hold for every d."""

    alpha: Scalar
    gamma: Scalar
    zeta: Scalar
    d: Scalar


@dataclass(frozen=True)
class ObstructionReport:
    """Why a cubic subsidiary cannot finish a trinomial quartic in radicals of
    low degree: the two remaining conditions collide in a sextic."""

    p: Scalar
    q: Scalar
    a: Scalar
    y2_condition: dict     # {(b, c) exponents: Scalar}
    y1_condition: dict     # {(b, c) exponents: Scalar}
    obstruction: UniPoly   # in c
    degree: int
    degenerate: bool

    def conditions_at(self, c):
        """The y^2 and y^1 conditions as polynomials in b at the given c."""
        return (UniPoly(_b_coeffs(self.y2_condition, c), "b"),
                UniPoly(_b_coeffs(self.y1_condition, c), "b"))


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
        """Inverse of ``to_json``; ValueError for an original that is not
        monic of degree >= 1, or for a step of the wrong shape
        (``TransformStep.from_json``)."""
        original = UniPoly.from_json(d["original"], prec)
        _require_monic(original)
        if original.degree < 1:
            raise ValueError("a constant original has no roots")
        steps = []
        cur = original
        for sd in d["steps"]:
            st = TransformStep.from_json(sd, cur.with_var("z"), prec)
            steps.append(st)
            cur = st.output
        final = steps[-1].output if steps else original
        return cls(original, tuple(steps), final,
                   Scalar.from_json(d["bring_p"], prec),
                   Scalar.from_json(d["bring_q"], prec))


def _require_monic(poly: UniPoly):
    if not poly.is_monic():
        raise ValueError("transformation steps require a monic polynomial")


def _assert_vanishes(value, scale, tol, what):
    """value, a Scalar or an iterable of Scalars (the coefficients of a
    condition), must be zero: exactly if rational, within tol * scale if not."""
    for c in (value,) if isinstance(value, Scalar) else value:
        if not negligible(c, tol, scale):
            raise ConsistencyError("%s failed to vanish: %s" % (what, c))


def _identity_step(kind: str, poly: UniPoly) -> TransformStep:
    sub = Subsidiary(1, (rat(0),))
    return TransformStep(kind, poly, sub, poly, ())


def dual_eliminate(A: UniPoly, sub: Subsidiary, tol=None):
    """Eliminate z by both routes and insist they agree.

    Returns (C, lead): C monic in y, lead the factor divided out of Res_z(A, B),
    (-1)^n for k = 1 and 1 otherwise.  The routes share no code past the input,
    so their agreement is a genuine cross-check, not a tautology.
    """
    C_res = map_charpoly(A, sub.t_coeffs())
    lead = rat(-1) ** A.degree if sub.k == 1 else rat(1)
    C_ps = transform_by_power_sums(A, sub.t_coeffs())
    bad = coeff_mismatch(C_res, C_ps, tol)
    if bad is None:
        return C_res, lead
    if C_res.is_rational_tree() and C_ps.is_rational_tree():
        raise ConsistencyError(
            "resultant and power-sum routes disagree: %s vs %s" % (C_res, C_ps))
    raise ConsistencyError(
        "resultant and power-sum routes disagree at y^%d by %s" % (bad[0], bad[1].mag()))


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
    C, _ = dual_eliminate(poly, sub, tol)
    # third route, classical shift: C(y) must equal A(y - a)
    shifted = shift_substitute(poly, a)
    bad = coeff_mismatch(C, shifted, tol)
    if bad is not None:
        raise ConsistencyError("shift cross-check failed to vanish: %s" % bad[1])
    _assert_vanishes(C.coeff(n - 1), coeff_scale(C, shifted), tol, "second coefficient")
    return TransformStep("depress", poly, sub, C, ())


def _k2_conditions(A: UniPoly, j: int):
    """The coefficients of y^(n-1), ..., y^(n-j) of C under the map
    T = -(z^2 + b z + a(b)), as polynomials in b, with a(b) = -(s2 + b s1)/n,
    which removes y^(n-1); plus a(b), also as a polynomial in b.

    C(y) = prod (y + y'_i) with y' = -T, so its y^(n-k) coefficient is e_k
    of the y'_i.
    """
    n = A.degree
    s = power_sums(A, 2)
    a = (-s.s(2) * rat(1, n), -s.s(1) * rat(1, n))
    es = image_elementary(A, [a, (rat(0), rat(1)), (rat(1), rat(0))], j)
    return [form_in(e, "b") for e in es], UniPoly(a, "b")


def _quadratic_subsidiary_step(kind: str, A: UniPoly, cond_power: int,
                               *, prec=None, tol=None) -> TransformStep:
    """One k = 2 step: a(b) pins the second coefficient, then the coefficient
    of y^cond_power, as a polynomial in b of degree <= 3, picks b."""
    _require_monic(A)
    n = A.degree
    es, a_b = _k2_conditions(A, n - cond_power)
    _assert_vanishes(es[0].coeffs, coeff_scale(A), tol, "second coefficient in b")
    cond = es[-1]
    deg, roots = solve_condition(cond, prec=prec, tol=tol)
    if deg == 0:
        raise DegenerateDenominator(cond.coeff(0),
                                    "coefficient condition for %s is unsatisfiable" % kind)
    if deg < 0:
        # condition holds identically: the input already has the target shape
        return _identity_step(kind, A)
    idx = pick_root(roots, tol)
    b = roots[idx]
    a = a_b.eval(b)
    sub = Subsidiary(2, (a, b))
    C, _ = dual_eliminate(A, sub, tol)
    out_scale = coeff_scale(C)
    _assert_vanishes(C.coeff(n - 1), out_scale, tol, "second output coefficient")
    _assert_vanishes(C.coeff(cond_power), out_scale, tol, "targeted output coefficient")
    aux = (AuxSolve(kind + "-b", deg, tuple(roots), idx),)
    return TransformStep(kind, A, sub, C, aux)


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
    m, n, p = as_scalar(m), as_scalar(n), as_scalar(p)
    A = UniPoly([p, n, m, rat(1)], "z")
    cond = _k2_conditions(A, 2)[0][1]
    if cond.degree < 2:
        raise DegenerateDenominator(3 * n - m * m,
                                    "pure-form condition degenerates when 3n - m^2 = 0")
    return cond.monic()[0]


def cubic_to_pure(m, n, p, *, prec=None, tol=None) -> TransformStep:
    """Take z^3 + m z^2 + n z + p to a pure cubic y^3 + const.

    When 3n = m^2 the plain shift already lands on a pure cubic, so the
    quadratic subsidiary is not needed at all.
    """
    m, n, p = as_scalar(m), as_scalar(n), as_scalar(p)
    A = UniPoly([p, n, m, rat(1)], "z")
    if (3 * n - m * m).is_exact_zero():
        st = depress(A, tol=tol)
        return TransformStep("pure-cubic", A, st.subsidiary, st.output, st.aux)
    return _quadratic_subsidiary_step("pure-cubic", A, 1, prec=prec, tol=tol)


def quartic_remove_2_3(n, p, q, *, prec=None, tol=None) -> TransformStep:
    """Remove the z^2 term from z^4 + n z^2 + p z + q (the z^3 term stays gone)."""
    n, p, q = as_scalar(n), as_scalar(p), as_scalar(q)
    A = UniPoly([q, p, n, rat(0), rat(1)], "z")
    return _quadratic_subsidiary_step("quartic-remove-2-3", A, 2, prec=prec, tol=tol)


def quartic_remove_2_4(p, q, *, prec=None, tol=None) -> TransformStep:
    """Remove the z term from z^4 + p z + q, leaving a quadratic in y^2.

    The coefficient condition here is the cubic -p b^3 - 4q b^2 + p^2 = 0,
    the one place the quartic route genuinely needs a cubic solve.
    """
    p, q = as_scalar(p), as_scalar(q)
    A = UniPoly([q, p, rat(0), rat(0), rat(1)], "z")
    return _quadratic_subsidiary_step("quartic-remove-2-4", A, 1, prec=prec, tol=tol)


def reciprocal_transform(poly: UniPoly, *, tol=None) -> TransformStep:
    """Map every root to its reciprocal by reversing the coefficient list,
    cross-checked against the characteristic polynomial of z^-1 mod A."""
    _require_monic(poly)
    c0 = poly.coeff(0)
    if c0.is_exact_zero():
        raise DegenerateDenominator(c0, "a root at zero has no reciprocal")
    C = UniPoly([c / c0 for c in reversed(poly.coeffs)], "y")
    # z (c_1 + c_2 z + ... + z^(n-1)) = -c_0 modulo A
    bad = coeff_mismatch(C, map_charpoly(poly, [-c / c0 for c in poly.coeffs[1:]]), tol)
    if bad is not None:
        raise ConsistencyError("reciprocal cross-check failed to vanish: %s" % bad[1])
    return TransformStep("reciprocal", poly, None, C, ())


def _b_coeffs(form, c):
    """Ascending b-coefficients of a form in (b, c) at a value of c (Horner
    in c), up to the form's formal degree in b."""
    rows = [{} for _ in range(max((ib for ib, _ in form), default=-1) + 1)]
    for (ib, ic), v in form.items():
        rows[ib][(ic,)] = v
    return [form_in(row, "c").eval(c) for row in rows]


def _interpolate(values, var: str) -> UniPoly:
    """The polynomial of degree < len(values) that takes values[c] at
    c = 0, 1, 2, ..., by Newton's forward differences."""
    coef = list(values)
    for j in range(1, len(coef)):
        for i in range(len(coef) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * rat(1, j)
    out = UniPoly([coef[-1]], var)
    for i in range(len(coef) - 2, -1, -1):
        out = out * UniPoly([rat(-i), rat(1)], var) + coef[i]
    return out


def quartic_obstruction_G(p, q, *, prec=None, tol=None) -> ObstructionReport:
    """Push a cubic subsidiary at z^4 + p z + q and report the blockage.

    The constant coefficient a = 3p/4 removes y^3 for free, but the conditions
    on y^2 and y^1 are then two polynomials E(b, c), F(b, c), and eliminating
    b leaves a degree-six polynomial in c: reaching a pure quartic this way
    costs a sextic, which is the whole point of reporting it.

    E and F are power-sum forms.  G(c) = Res_b(E, F) is a scalar Sylvester
    determinant at c = 0, ..., 7, with E and F at their formal degrees in b
    (a leading coefficient may vanish at a node), interpolated through the
    first seven nodes; the eighth checks that deg G <= 6.
    """
    p, q = as_scalar(p), as_scalar(q)
    A = UniPoly([q, p, rat(0), rat(0), rat(1)], "z")
    a = -power_sums(A, 3).s(3) * rat(1, 4)
    zero, one = rat(0), rat(1)
    # T = -(z^3 + c z^2 + b z + a): C's y^(4-k) coefficient is e_k of -T,
    # a form in the parameters (b, c)
    xs = [(a, zero, zero), (zero, one, zero), (zero, zero, one), (one, zero, zero)]
    e1, E, F = image_elementary(A, xs, 3)
    _assert_vanishes(e1.values(), coeff_scale(A), tol, "second coefficient in b, c")
    values = [formal_resultant(_b_coeffs(E, rat(c)), _b_coeffs(F, rat(c)))
              for c in range(8)]
    G = _interpolate(values[:7], "c")
    _assert_vanishes(G.eval(rat(7)) - values[7], max(1, values[7].mag()), tol,
                     "obstruction above degree six")
    eff = G.effective_degree(tol)
    return ObstructionReport(p, q, a, E, F, G, eff, eff < 6)


# -- the quintic -----------------------------------------------------------


def quintic_bring_ansatz(p, q, r, *, prec=None, tol=None):
    """Choose alpha, gamma, zeta so that with b = alpha d + zeta, c = d + gamma
    the y^3 condition on z^5 + p z^2 + q z + r holds for every d, then pin d by
    the y^2 condition, a cubic.  Returns (BringAnsatz, aux solves).

    The map is T = -(z^4 + d z^3 + c z^2 + b z + a) with a = (3 p d + 4 q)/5,
    which removes y^4.  The y^3 condition is a quadratic power-sum form in
    (b, c, d); once b, c and a are affine in d, the y^2 condition is a cubic
    power-sum form in d.
    """
    p, q, r = as_scalar(p), as_scalar(q), as_scalar(r)
    A = UniPoly([r, q, p, rat(0), rat(0), rat(1)], "z")
    scale = coeff_scale(UniPoly([r, q, p, rat(1)], "z"))
    zero, one = rat(0), rat(1)
    a0, a1 = q * rat(4, 5), p * rat(3, 5)
    # C's y^(5-k) coefficient is e_k of -T = a + b z + c z^2 + d z^3 + z^4;
    # 5 e_2 = -(5/2) s_2 is the normalisation whose b-coupling is 15p + 20q
    xs = [(a0, zero, zero, a1), (zero, one, zero, zero), (zero, zero, one, zero),
          (zero, zero, zero, one), (one, zero, zero, zero)]
    E = image_elementary(A, xs, 2)[1]

    def e(*key):
        got = E.get(key)
        return zero if got is None else got * 5

    e_bc, e_bd = e(1, 1, 0), e(1, 0, 1)
    e_cd, e_c2, e_d2 = e(0, 1, 1), e(0, 2, 0), e(0, 0, 2)
    e_b, e_c, e_d = e(1, 0, 0), e(0, 1, 0), e(0, 0, 1)
    e_00 = e(0, 0, 0)
    if not negligible(e(2, 0, 0), tol, scale):
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
    gamma, gsolve = _aux_root("gamma-quadratic", UniPoly([g0, g1, g2], "gamma"),
                              prec=prec, tol=tol)
    zeta = zeta1 * gamma + zeta0

    # with gamma fixed, a, b and c are affine in d: the y^4 and y^3
    # coefficients must vanish for every d, and the y^2 coefficient is the
    # d-cubic
    xs = [(a0, a1), (zeta, alpha), (gamma, one), (zero, one), (one, zero)]
    e1, e2, e3 = image_elementary(A, xs, 3)
    _assert_vanishes(e1.values(), scale, tol, "y^4 coefficient in d")
    _assert_vanishes(e2.values(), scale, tol, "ansatz-composed y^3 condition")
    dstar, dsolve = _aux_root("d-cubic", form_in(e3, "d"), prec=prec, tol=tol)
    return BringAnsatz(alpha, gamma, zeta, dstar), [gsolve, dsolve]


def _aux_root(kind: str, cond: UniPoly, *, prec=None, tol=None):
    """Solve the condition on the auxiliary parameter ``cond.var`` and choose
    a root (``pick_root``); 0 when the condition holds identically.  Returns
    (root, AuxSolve)."""
    deg, roots = solve_condition(cond, prec=prec, tol=tol)
    if deg == 0:
        raise DegenerateDenominator(cond.coeff(0),
                                    "%s condition is unsatisfiable" % cond.var)
    if deg < 0:
        roots, idx = [rat(0)], 0
    else:
        idx = pick_root(roots, tol)
    return roots[idx], AuxSolve(kind, max(deg, 0), tuple(roots), idx)


def quintic_to_bring_jerrard(p, q, r, *, prec=None, tol=None) -> TransformStep:
    """One quartic subsidiary takes z^5 + p z^2 + q z + r to y^5 + P y + Q.

    Where the ansatz fails (``DegenerateDenominator``: its coupling
    denominator 15p + 20q vanishes, or a condition is unsatisfiable), it is
    solved once more for the halved roots w = z/2, that is on
    w^5 + (p/8) w^2 + (q/16) w + r/32, whose denominator (30p + 20q)/16 is
    15p/16 != 0 where 15p + 20q = 0.  The map T_w found there is emitted on the
    unscaled input as T(z) = 16 T_w(z/2), the subsidiary
    (16 a_w, 8 b_w, 4 c_w, 2 d_w), whose a is again (3 p d + 4 q)/5; P and
    Q are 2^16 and 2^20 times those of the halved quintic, and the aux
    records are the solves at the halved roots.  A second failure raises.
    """
    p, q, r = as_scalar(p), as_scalar(q), as_scalar(r)
    A = UniPoly([r, q, p, rat(0), rat(0), rat(1)], "z")
    if p.is_exact_zero():
        return _identity_step("bring-jerrard", A)
    lam = rat(1)
    try:
        ansatz, aux = quintic_bring_ansatz(p, q, r, prec=prec, tol=tol)
    except DegenerateDenominator:
        lam = rat(2)
        ansatz, aux = quintic_bring_ansatz(p / lam ** 3, q / lam ** 4, r / lam ** 5,
                                           prec=prec, tol=tol)
    # T = lam^4 T_w(z / lam): the coefficient of z^j gains lam^(4 - j)
    d = lam * ansatz.d
    c = lam ** 2 * (ansatz.d + ansatz.gamma)
    b = lam ** 3 * (ansatz.alpha * ansatz.d + ansatz.zeta)
    a = (3 * p * d + 4 * q) * rat(1, 5)
    sub = Subsidiary(4, (a, b, c, d))
    C, _ = dual_eliminate(A, sub, tol)
    out_scale = coeff_scale(C)
    _assert_vanishes(C.coeff(4), out_scale, tol, "y^4 coefficient")
    _assert_vanishes(C.coeff(3), out_scale, tol, "y^3 coefficient")
    _assert_vanishes(C.coeff(2), out_scale, tol, "y^2 coefficient")
    return TransformStep("bring-jerrard", A, sub, C, tuple(aux))


def _has_repeated_root(A: UniPoly) -> bool:
    """Does the rational A share a root with A'?  Euclid's gcd on
    ``rem_monic``, exact over Fraction."""
    f, g = A, A.derivative()
    while g.degree > 0:
        f, g = g, UniPoly(rem_monic(f, g.monic()[0]), A.var)
    return g.is_exact_zero()


def reduce_general_quintic(poly: UniPoly, *, prec=None, tol=None) -> ReductionTrace:
    """Full chain: depress, principal shape, then the trinomial step.

    Identity steps (stages the input already satisfies) are elided from the
    trace; the final polynomial is y^5 + P y + Q.  A rational input with a
    repeated root raises ``DegenerateDenominator`` and gets no trace: the
    ansatz would collapse its roots (README, "Repeated roots").
    """
    _require_monic(poly)
    if poly.degree != 5:
        raise ValueError("the reduction chain is for monic quintics")
    if poly.is_rational_tree() and _has_repeated_root(poly):
        raise DegenerateDenominator(rat(0), "the discriminant vanishes: a repeated root")
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
    y = as_scalar(y)
    if step.subsidiary is None:
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
    """Is z a root of A, with a ``relative_residual`` of at most tol?"""
    return relative_residual(A, z) <= as_tol(tol)


def step_inverse(step: TransformStep):
    """The inverse map U of a step, with U(T(z)) = z for every root z of the
    step's monic input A, or None on an exactly zero pivot.

    U = sum u_j y^j solves the n x n system sum u_j T^j = z modulo A
    (n = deg A; PARI's ``modreverse``) by elimination with magnitude
    pivoting, which is exact when every matrix entry is rational.  An exactly
    zero pivot means the basis 1, T, ..., T^(n-1) is singular: the map is not
    one-to-one on the roots of A and only ``back_solve`` can pull them back.
    In complex mode a merging map gives a tiny pivot rather than a zero one,
    and neither the pivot nor the solve's own residual tells it apart from a
    fine map, so a caller evaluates U: ``verify_transform`` checks U(T) = z
    mod A, and ``TransformStep.preimages`` tests each U(y) on A.
    """
    A = step.input
    n = A.degree
    T = step.subsidiary.map_in_z()
    cols = [rem_monic(UniPoly([rat(1)], "z"), A)]
    while len(cols) < n:
        cols.append(rem_monic(UniPoly(cols[-1], "z") * T, A))
    rhs = rem_monic(UniPoly([rat(0), rat(1)], "z"), A)
    M = [[cols[j][i] for j in range(n)] + [rhs[i]] for i in range(n)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: M[r][c].mag())
        pivot = M[p][c]
        if pivot.is_exact_zero():
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
