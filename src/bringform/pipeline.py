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
identities.  They must agree (exactly in rational mode, judged on ints) or
the step fails.

A ``TransformStep`` owns everything that depends on its kind: ``certify``
proves its output without eliminating again, and ``pull_back`` moves roots
back through it by its one inverse map U.  The certificate is two identities
modulo A.  U(T) = z makes 1, T, ..., T^(n-1) a basis of K[z]/(A), so the
minimal polynomial of M_T is its characteristic polynomial; a monic C of
degree n with C(T) = 0 is then det(y - M_T) = prod (y - T(z_i)).  One
constructor, ``_step``, makes every step that eliminates: it runs
``dual_eliminate``, checks each targeted output coefficient once, and hands
the step the table of the powers of T modulo A that the power-sum route
built (``table``), whose vectors its C(T) sum and solve for U read in the
ring.  The table (built by ``powers_mod`` alone), U(T) by Horner
(``compose_mod``), the charpoly's columns (``columns_mod``) and the traces
of the conditions' power-sum forms (``image_elementary``) multiply by T
modulo A in the ring of ``polynomials``, on one kernel (``gauss_mul_mod``):
exactly for rational input, so every trace, certificate and refusal is the
same to the byte as the Scalar operations would make it, and otherwise on a
fixed-point Gaussian-integer block cut to prec + 64 bits, U(T) held to the
working precision (``certify`` says why).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import mpmath
from mpmath.libmp import mpf_add, mpf_div, mpf_le, mpf_shift, round_nearest

from .elimination import (form_in, image_elementary, map_charpoly, matches_power_sums,
                          transform_by_power_sums)
from .errors import ConsistencyError, DegenerateDenominator
from .polynomials import (Record, UniPoly, coeff_mismatch, coeff_scale, compose_mod,
                          graded_horner, lies_on, power_sums, powers_mod, solve_mod,
                          table_sum)
from .scalars import (DEFAULT_PRECISION_BITS, TOL_PREC, Scalar, as_scalar, as_tol,
                      from_ratio, mag_binades, negligible, pick_root, rat, within)
from .solvers import solve_condition, solve_monic


class Subsidiary(Record):
    """The relation B(z, y) = 0 of one step; coefficients ascending from the
    constant term, so (a,), (a, b), (a, b, c) or (a, b, c, d)."""

    __slots__ = _fields = ("k", "coeffs")

    def __init__(self, k: int, coeffs: tuple):
        cs = tuple(as_scalar(c) for c in coeffs)
        if type(k) is not int or not 1 <= k == len(cs):  # True is no k
            raise ValueError("need k >= 1 coefficients, got k = %r and %d" % (k, len(cs)))
        self._set(k=k, coeffs=cs)

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


class AuxSolve(NamedTuple):
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
        """Inverse of ``to_json``; ValueError unless the degree is an int in
        0..3 (no solve above a cubic) and chosen an int indexing the roots."""
        roots = tuple(Scalar.from_json(r, prec) for r in d["roots"])
        deg, idx = d["degree"], d["chosen"]
        if not (type(deg) is int and 0 <= deg <= 3 and type(idx) is int and 0 <= idx < len(roots)):
            raise ValueError("an auxiliary solve of degree %r choosing root %r of %d"
                             % (deg, idx, len(roots)))
        return cls(d["kind"], deg, roots, idx)


class TransformStep(Record):
    _fields = ("kind", "input", "subsidiary", "output", "aux")

    def __init__(self, kind: str, input: UniPoly, subsidiary: Subsidiary, output: UniPoly,
                 aux: tuple, table=None):
        # no part of equality, repr or JSON: table, when ``_step`` hands one
        # over (else ``table`` builds it), and _verdicts, certify's verdicts
        # by tolerance, a memo that racing threads fill with the same verdict
        self._set(kind=kind, input=input, subsidiary=subsidiary, output=output, aux=aux,
                  _verdicts={})
        if table is not None:
            self._set(table=table)

    # not a field: every step maps the previous output itself; the
    # benchmark's outside oracle (bench/oracles.py) still reads it
    rescue_scaling = None

    @property
    def is_identity(self) -> bool:
        return self.subsidiary.is_identity()

    @property
    def is_finite(self) -> bool:
        """No coefficient of the input, the subsidiary or the output is an
        infinity or nan: ``certify`` passes no other step, and
        ``recover_roots`` walks none back."""
        return None not in map(mag_binades, self.input.coeffs + self.subsidiary.coeffs
                               + self.output.coeffs)

    def certify(self, tol=None):
        """Certify the step modulo its monic input A, with no elimination
        and no roots (see the module docstring): U(T) = z, U being the
        step's one inverse map (``inverse``), and C(T) = 0 for the monic
        output C of degree n, summed as sum c_j (T^j mod A) over ``table``
        by one exact dot on ints (``table_sum``).

        U(T) is evaluated by Horner on T (``compose_mod``), not summed over
        ``table``: U solves sum u_j (T^j mod A) = z on those very rows, so
        that sum is only the solve's own residual, and it passes complex
        steps that merge roots.  The Horner rejects them because it holds U
        to the working precision: each product is cut to prec +
        ``polynomials.HORNER_GUARD_BITS`` bits before it is reduced.  A
        merging map's rows T^j mod A fall toward zero, so the U the solve
        reads off them has huge coefficients, and the cuts of its huge
        products leave U(T) - z far above tol: 0.002 of the scale on
        (z - 1)^2 (z^3 + 2z + 3) at 256 bits, against 1e-20 for a Horner at
        4096 bits of the same rounded inputs and 4e-20 with 64 guard bits,
        so more bits must not decide the verdict.  The 7 make the cut,
        relative to the block's largest part, no less accurate than rounding
        every operation at prec on its own, as the Scalar Horner did: on the
        complex steps of 200 batch quintics, the worst distance from a
        Horner at 4 prec is below the Scalar Horner's at 64, 128 and 256
        bits (5 bits missed that at 128).

        Returns (largest |coefficient| of U(T) - z relative to
        ``coeff_scale(A)``, inf for a step without U or that is not
        ``is_finite``; ok); C(T) must vanish in rational mode and otherwise
        lie within tol * coeff_scale(A) * coeff_scale(C), judged on its
        exact ints (``scalars.within``).  The verdict reads only the step
        and ``as_tol(tol)``, never mpmath's global precision, so the step
        keeps it per tolerance: ``verify_trace`` of a reduced trace reads
        what ``reduce_general_quintic`` computed; a re-read step has none."""
        key = as_tol(tol)._mpf_
        got = self._verdicts.get(key)
        if got is None:
            got = self._verdicts[key] = self._certificate(tol)
        return got

    def _certificate(self, tol):
        """The body of ``certify``, run once per tolerance."""
        A, C = self.input, self.output
        if not A.is_monic() or not self.is_finite:
            return mpmath.inf, False
        U = self.inverse
        if U is None:
            return mpmath.inf, False
        UT = compose_mod(U, self.subsidiary.map_in_z(), A)
        miss = UniPoly(UT, "z") - UniPoly([rat(0), rat(1)], "z")
        scale = coeff_scale(A)
        # rounded once at mpmath's default 53 bits, whatever the global
        # precision, so the residual depends on the step alone
        residual = mpmath.mp.make_mpf(mpf_div(miss.max_mag()._mpf_, scale._mpf_, 53,
                                              round_nearest))
        n = A.degree
        t = as_tol(tol, scale)
        ok = (all(negligible(c, t) for c in miss.coeffs)
              and self.subsidiary.k < n and C.is_monic() and C.degree == n)
        if ok:  # C(T) on its exact ints; in rational mode only a zero passes
            terms, d, prec = table_sum(self.table, C.coeffs)
            bound = as_tol(tol, scale, coeff_scale(C)) if prec else mpmath.mpf(0)
            ok = all(within(x * x + y * y, d * d, e, bound) for x, y, e in terms)
        return residual, ok

    @cached_property
    def table(self):
        """T^0..T^n modulo the input A in the ring (``powers_mod``): the
        table the step was built with, or, for a step read from JSON or made
        by hand, one built on first use, read by ``certify`` and ``inverse``."""
        return powers_mod(self.subsidiary.map_in_z(), self.input)

    @cached_property
    def powers(self):
        """The table's rows as tuples of n ascending Scalars (``rows``)."""
        return self.table.rows

    @cached_property
    def inverse(self):
        """The step's one inverse map U (``step_inverse``), built once per
        step: ``certify`` and ``pull_back`` share it."""
        return step_inverse(self)

    def pull_back(self, ys):
        """The unchecked preimages of the Scalars ys, in their order: U(y) by
        the step's one inverse map U (``inverse``), or None for a step
        without U.  One ``graded_horner`` pass takes U at every y, U's
        coefficients entered once, and each value is rounded once at the
        largest precision in play; it is exact when U and every y are
        rational."""
        U = self.inverse
        if U is None:
            return None
        prec = max(c.prec or 0 for c in [*U.coeffs, *ys]) or None
        return [from_ratio(*v.p, prec) for v in graded_horner(U.coeffs, ys, prec)]

    def to_json(self):
        return {
            "kind": self.kind,
            "subsidiary": self.subsidiary.to_json(),
            "aux": [a.to_json() for a in self.aux],
            "output": self.output.to_json(),
        }

    @classmethod
    def from_json(cls, d, input_poly: UniPoly, prec=None):
        """Inverse of ``to_json`` on the step's input; ValueError unless d
        is an object whose kind is a string and whose subsidiary, of lower
        degree than the input, maps it to a monic output of the same
        degree; ValueError, too, for the rescaled input of an older trace (a
        ``rescue_lambda``), which no step takes now."""
        if not (isinstance(d, dict) and isinstance(d.get("kind"), str)):
            raise ValueError("a step must be an object with a string kind")
        if d.get("rescue_lambda") is not None:
            raise ValueError("a rescaled step input (rescue_lambda); reduce the quintic again")
        sub = d.get("subsidiary")
        if sub is None:
            raise ValueError("a step without a subsidiary")
        step = cls(
            d["kind"],
            input_poly,
            Subsidiary.from_json(sub, prec),
            UniPoly.from_json(d["output"], prec),
            tuple(AuxSolve.from_json(a, prec) for a in d.get("aux", ())),
        )
        n = input_poly.degree
        if step.subsidiary.k >= n:
            raise ValueError("a subsidiary of degree %d on an input of degree %d"
                             % (step.subsidiary.k, n))
        _require_monic(step.output)
        if step.output.degree != n:
            raise ValueError("a step output of degree %d from an input of degree %d"
                             % (step.output.degree, n))
        return step


class BringAnsatz(NamedTuple):
    """Parameters of the coupled substitution b = alpha*d + zeta, c = d + gamma
    that makes the second-coefficient condition hold for every d."""

    alpha: Scalar
    gamma: Scalar
    zeta: Scalar
    d: Scalar


class ObstructionReport(NamedTuple):
    """Why a cubic subsidiary cannot finish a trinomial quartic in radicals of
    low degree: the two remaining conditions collide in a sextic.

    ``y2_condition`` is E(b, c), linear in b, and ``y1_condition`` F(b, c);
    ``obstruction`` is G(c) = Res_b(E, F) and ``degree`` its
    ``effective_degree`` at the precision of p and q (exact for rational p
    and q), so both modes agree; below six when ``degenerate``.
    """

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
        return tuple(UniPoly([row.eval(c) for row in _b_rows(form)], "b")
                     for form in (self.y2_condition, self.y1_condition))


class ReductionTrace(NamedTuple):
    original: UniPoly
    steps: tuple
    bring_p: Scalar
    bring_q: Scalar

    @property
    def final(self) -> UniPoly:
        """Where the chain ends: the last step's output, or the original."""
        return self.steps[-1].output if self.steps else self.original

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
        return cls(original, tuple(steps), Scalar.from_json(d["bring_p"], prec),
                   Scalar.from_json(d["bring_q"], prec))


def _require_monic(poly: UniPoly):
    if not poly.is_monic():
        raise ValueError("transformation steps require a monic polynomial")


def _assert_vanishes(value: Scalar, scale, tol, what):
    """value must be zero: exactly if rational, within tol * scale if not.
    A refusal states the value, the bound tol * scale and their ratio."""
    if not negligible(value, tol, scale):
        bound = as_tol(tol, scale)
        raise ConsistencyError("%s failed to vanish: %s, %s times tol x scale %s"
                               % (what, value, mpmath.nstr(value.mag() / bound, 3),
                                  mpmath.nstr(bound, 3)))


def _identity_step(kind: str, poly: UniPoly) -> TransformStep:
    sub = Subsidiary(1, (rat(0),))
    return TransformStep(kind, poly, sub, poly, ())


def _step(kind: str, A: UniPoly, sub: Subsidiary, aux, tol, checks=()) -> TransformStep:
    """The one maker of a step that eliminates: C and the table of powers
    from ``dual_eliminate``, looked up by name in this module so that a
    tracer can rebind it, then each of checks, (power, name) pairs in order, once on
    C's coefficient of y^power against tol * ``coeff_scale(C)``
    (``_assert_vanishes``).  The step keeps the table."""
    C, table = dual_eliminate(A, sub, tol)
    scale = coeff_scale(C)
    for power, what in checks:
        _assert_vanishes(C.coeff(power), scale, tol, what)
    return TransformStep(kind, A, sub, C, tuple(aux), table)


def dual_eliminate(A: UniPoly, sub: Subsidiary, tol=None):
    """Eliminate z by both routes and insist they agree.

    Returns (C, table): C monic in y, the charpoly route's
    (``map_charpoly``), and the table T^0..T^n mod A (``powers_mod``) that
    the power-sum route read, kept in the ring, which ``_step`` hands to
    its ``TransformStep``.  The routes share no code past the polynomial
    ring, so their agreement is a genuine cross-check, not a tautology.
    With rational A and T (an exact table) they must agree exactly, judged
    on ints (``matches_power_sums``), and the power-sum route's C is built
    (``transform_by_power_sums``) only for the refusal that shows both.
    Otherwise that C is built and held to tol (``coeff_mismatch``), and a
    disagreement is reported relative to ``coeff_scale(C_res, C_ps)``,
    beside the tol it was held to.
    """
    t = sub.t_coeffs()
    C_res = map_charpoly(A, t)
    table = powers_mod(UniPoly(t, A.var), A)
    if table.prec is None:
        if matches_power_sums(C_res, A, t, table):
            return C_res, table
        raise ConsistencyError("resultant and power-sum routes disagree: %s vs %s"
                               % (C_res, transform_by_power_sums(A, t, table)))
    C_ps = transform_by_power_sums(A, t, table)
    bad = coeff_mismatch(C_res, C_ps, tol)
    if bad is None:
        return C_res, table
    d, scale = bad[1].mag(), coeff_scale(C_res, C_ps)
    d, rel, scale, t = (mpmath.nstr(v, 3) for v in (d, d / scale, scale, as_tol(tol)))
    raise ConsistencyError("resultant and power-sum routes disagree at y^%d by %s, %s of "
                           "a scale of %s, against tol %s" % (bad[0], d, rel, scale, t))


def depress(poly: UniPoly, *, tol=None) -> TransformStep:
    """Remove the second coefficient with the shift map T = z + c_{n-1}/n.

    The images sum to s_1 + n c_{n-1}/n = 0, so C's second coefficient
    vanishes by construction, exactly in rational mode; the two routes of
    ``dual_eliminate`` and the step's certificate are its checks."""
    _require_monic(poly)
    n = poly.degree
    if n < 2:
        raise ValueError("nothing to depress below degree 2")
    c = poly.coeff(n - 1)
    if c.is_exact_zero():
        return _identity_step("depress", poly)
    return _step("depress", poly, Subsidiary(1, (c * rat(1, n),)), (), tol)


def _k2_conditions(A: UniPoly, j: int):
    """The coefficient of y^(n-j) of C under the map T = -(z^2 + b z + a(b)),
    as a polynomial in b, with a(b) = -(s2 + b s1)/n, which removes y^(n-1)
    for every b; plus a(b), also as a polynomial in b.

    C(y) = prod (y + y'_i) with y' = -T, so its y^(n-k) coefficient is e_k
    of the y'_i.
    """
    n = A.degree
    s = power_sums(A, 2)
    a = (-s[2] * rat(1, n), -s[1] * rat(1, n))
    (e,) = image_elementary(A, [a, (rat(0), rat(1)), (rat(1), rat(0))], j, (j,))
    return form_in(e, "b"), UniPoly(a, "b")


def _quadratic_subsidiary_step(kind: str, A: UniPoly, cond_power: int,
                               *, prec=None, tol=None) -> TransformStep:
    """One k = 2 step: a(b) pins the second coefficient, then the coefficient
    of y^cond_power, as a polynomial in b of degree <= 3, picks b."""
    _require_monic(A)
    n = A.degree
    cond, a_b = _k2_conditions(A, n - cond_power)
    b, solve = _aux_root(kind + "-b", cond, prec=prec, tol=tol)
    if solve.degree == 0:
        # condition holds identically: the input already has the target shape
        return _identity_step(kind, A)
    return _step(kind, A, Subsidiary(2, (a_b.eval(b), b)), (solve,), tol,
                 ((n - 1, "second output coefficient"),
                  (cond_power, "targeted output coefficient")))


def to_principal(poly: UniPoly, *, prec=None, tol=None) -> TransformStep:
    """Remove the second and third coefficients with a quadratic subsidiary."""
    _require_monic(poly)
    n = poly.degree
    if n < 3:
        raise ValueError("principal shape needs degree at least 3")
    if poly.coeff(n - 1).is_exact_zero() and poly.coeff(n - 2).is_exact_zero():
        return _identity_step("principal", poly)
    return _quadratic_subsidiary_step("principal", poly, n - 2, prec=prec, tol=tol)


def cubic_to_pure(m, n, p, *, prec=None, tol=None) -> TransformStep:
    """Take z^3 + m z^2 + n z + p to a pure cubic y^3 + const.

    When 3n = m^2 the shift T = z + m/3 already lands on a pure cubic and
    no quadratic subsidiary is needed; at m = n = 0 the step is the identity.
    """
    m, n, p = as_scalar(m), as_scalar(n), as_scalar(p)
    A = UniPoly([p, n, m, rat(1)], "z")
    if (3 * n - m * m).is_exact_zero():
        if m.is_exact_zero():
            return _identity_step("pure-cubic", A)
        return _step("pure-cubic", A, Subsidiary(1, (m * rat(1, 3),)), (), tol)
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


def _b_rows(form):
    """The rows of a form in (b, c), ascending in b up to its formal degree,
    each a polynomial in c."""
    rows = [{} for _ in range(max((ib for ib, _ in form), default=-1) + 1)]
    for (ib, ic), v in form.items():
        rows[ib][(ic,)] = v
    return [form_in(row, "c") for row in rows]


def quartic_obstruction_G(p, q) -> ObstructionReport:
    """Push a cubic subsidiary at z^4 + p z + q and report the blockage.

    The constant coefficient a = 3p/4 removes y^3 for free, but the conditions
    on y^2 and y^1 are then two polynomials E(b, c), F(b, c), and eliminating
    b leaves a degree-six polynomial in c: reaching a pure quartic this way
    costs a sextic, which is the whole point of reporting it.

    E and F are power-sum forms.  Since s_1 = s_2 = 0 for z^4 + p z + q, the
    y^3 coefficient e_1 is zero for every b and c, and E is E_0(c) + E_1(c) b,
    linear in b; neither is tested at run time.  So G(c) = Res_b(E, F) at the
    forms' formal degrees is sum_j F_j(c) (-E_0(c))^j E_1(c)^(d_F - j) over the
    b-rows F_j of F: a polynomial identity, of degree at most six by
    construction.
    """
    p, q = as_scalar(p), as_scalar(q)
    A = UniPoly([q, p, rat(0), rat(0), rat(1)], "z")
    a = -power_sums(A, 3)[3] * rat(1, 4)
    zero, one = rat(0), rat(1)
    # T = -(z^3 + c z^2 + b z + a): C's y^(4-k) coefficient is e_k of -T,
    # a form in the parameters (b, c)
    xs = [(a, zero, zero), (zero, one, zero), (zero, zero, one), (one, zero, zero)]
    E, F = image_elementary(A, xs, 3, (2, 3))
    Es, Fs = _b_rows(E), _b_rows(F)
    G = UniPoly((), "c")
    if len(Es) == 2:
        # each power of -E_0 and E_1 formed once, as E times the power
        # before: in complex mode the order of the products fixes the bits
        neg, pos = [UniPoly([one], "c")], [UniPoly([one], "c")]
        for _ in Fs[1:]:
            neg.append(-Es[0] * neg[-1])
            pos.append(Es[1] * pos[-1])
        for j, Fj in enumerate(Fs):
            G = G + Fj * neg[j] * pos[len(Fs) - 1 - j]
    eff = G.effective_degree(max(p.prec or 0, q.prec or 0) or None)
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
    zero, one = rat(0), rat(1)
    a0, a1 = q * rat(4, 5), p * rat(3, 5)
    # C's y^(5-k) coefficient is e_k of -T = a + b z + c z^2 + d z^3 + z^4;
    # 5 e_2 = -(5/2) s_2 is the normalisation whose b-coupling is 15p + 20q,
    # and it has no b^2 term, since s_2 = 0
    xs = [(a0, zero, zero, a1), (zero, one, zero, zero), (zero, zero, one, zero),
          (zero, zero, zero, one), (one, zero, zero, zero)]
    (E,) = image_elementary(A, xs, 2, (2,))

    def e(*key):
        got = E.get(key)
        return zero if got is None else got * 5

    e_bc, e_bd = e(1, 1, 0), e(1, 0, 1)
    e_cd, e_c2, e_d2 = e(0, 1, 1), e(0, 2, 0), e(0, 0, 2)
    e_b, e_c, e_d = e(1, 0, 0), e(0, 1, 0), e(0, 0, 1)
    e_00 = e(0, 0, 0)
    den = e_bc + e_bd
    # the d-cubic's coefficients grow like 1/den^3, and forming it cancels
    # about three times the bits that den cancelled: at or below 2^(-prec/8)
    # of its terms, an exact zero included, the halved roots take over
    terms = mpf_add(e_bc.mag()._mpf_, e_bd.mag()._mpf_, TOL_PREC, round_nearest)
    if mpf_le(den.mag()._mpf_, mpf_shift(terms, -((prec or DEFAULT_PRECISION_BITS) // 8))):
        raise DegenerateDenominator(den, "ansatz coupling denominator 15p + 20q cancelled")
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
    # coefficients vanish for every d by construction (the bring-jerrard
    # step checks them on its output), and the y^2 coefficient is the d-cubic
    xs = [(a0, a1), (zeta, alpha), (gamma, one), (zero, one), (one, zero)]
    (e3,) = image_elementary(A, xs, 3, (3,))
    dstar, dsolve = _aux_root("d-cubic", form_in(e3, "d"), prec=prec, tol=tol)
    return BringAnsatz(alpha, gamma, zeta, dstar), [gsolve, dsolve]


def _aux_root(kind: str, cond: UniPoly, *, prec=None, tol=None):
    """Solve the condition on the auxiliary parameter ``cond.var`` and choose
    a root (``pick_root``); 0, a solve of degree 0, when the condition holds
    identically.  Returns (root, AuxSolve)."""
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

    The ansatz makes the y^4 and y^3 coefficients vanish by construction;
    the step measures them, and the y^2 coefficient its d-cubic pins, once,
    on the output C, against tol * ``coeff_scale(C)``.

    Where the ansatz fails (``DegenerateDenominator``: its coupling
    denominator 15p + 20q is at most 2^(-prec/8) of |15p| + |20q|, zero
    included, or a condition is unsatisfiable), it is solved once more for
    the halved roots w = z/2, that is on w^5 + (p/8) w^2 + (q/16) w + r/32,
    whose denominator (30p + 20q)/16 is 15p/16 != 0 where 15p + 20q = 0.
    The map T_w found there is emitted on the unscaled input as
    T(z) = 16 T_w(z/2), the subsidiary
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
    return _step("bring-jerrard", A, Subsidiary(4, (a, b, c, d)), aux, tol,
                 ((4, "y^4 coefficient"), (3, "y^3 coefficient"), (2, "y^2 coefficient")))


def reduce_general_quintic(poly: UniPoly, *, prec=None, tol=None) -> ReductionTrace:
    """Full chain: depress, principal shape, then the trinomial step.

    Identity steps (stages the input already satisfies) are elided from the
    trace; the final polynomial is y^5 + P y + Q.  Every step the chain
    keeps, in either mode, must pass ``TransformStep.certify`` at tol; one
    that fails merges roots, as the ansatz does to a repeated root (README,
    "Repeated roots") or to roots too close to resolve at prec bits, and
    raises ``DegenerateDenominator`` naming the step and prec, with no
    denominator.  A ``ConsistencyError`` raised while a step is built
    gains the step's kind in front of its message.
    A repeated root that no kept step merges, as in z^5 - 5z + 4, reduces.
    """
    _require_monic(poly)
    if poly.degree != 5:
        raise ValueError("the reduction chain is for monic quintics")
    steps = []
    cur = poly.with_var("z")
    for kind, make in (
            ("depress", lambda A: depress(A, tol=tol)),
            ("principal", lambda A: to_principal(A, prec=prec, tol=tol)),
            ("bring-jerrard", lambda A: quintic_to_bring_jerrard(
                A.coeff(2), A.coeff(1), A.coeff(0), prec=prec, tol=tol))):
        try:
            st = make(cur)
        except ConsistencyError as exc:
            raise ConsistencyError("%s step: %s" % (kind, exc)) from exc
        if st.is_identity:
            continue
        if not st.certify(tol)[1]:
            raise DegenerateDenominator(None, "the %s map merges roots: a repeated root, "
                                        "or roots too close to resolve at %d bits"
                                        % (st.kind, prec or DEFAULT_PRECISION_BITS))
        steps.append(st)
        cur = st.output.with_var("z")
    return ReductionTrace(poly, tuple(steps), cur.coeff(1), cur.coeff(0))


def back_solve(step: TransformStep, y, *, prec=None, tol=None):
    """All z with B(z, y) = 0 that are also roots of the step's input; these
    are exactly the preimages of y under the step's map."""
    y = as_scalar(y)
    sub = step.subsidiary
    if sub.k == 1:
        return [y - sub.coeffs[0]]
    B_at_y = UniPoly([sub.coeffs[0] + y] + list(sub.coeffs[1:]) + [rat(1)], "z")
    cands = solve_monic(B_at_y, prec=prec, tol=tol).roots
    keep = [z for z in cands if lies_on(step.input, z, tol)]
    if not keep:
        raise ConsistencyError("no preimage of %s lies on the source polynomial" % y)
    return keep


def step_inverse(step: TransformStep):
    """The inverse map U of a step, with U(T(z)) = z for every root z of the
    step's monic input A, or None when no such U exists.

    U = sum u_j y^j solves the n x n system sum u_j T^j = z modulo A
    (n = deg A; PARI's ``modreverse``) on the first n rows of the step's
    ``table``, whose vectors are ints, by fraction-free elimination
    (``polynomials.solve_mod``), each u_j exact or rounded once.  None comes back
    exactly when the determinant of those ints is 0: the basis 1, T, ...,
    T^(n-1) is singular, the map is not one-to-one on the roots of A, and
    no inverse map can pull them back.  In complex mode a merging map
    gives a tiny determinant rather than a zero one, and the solve alone
    does not tell it apart from a fine map, so a caller evaluates U:
    ``TransformStep.certify`` checks U(T) = z mod A, and ``recover_roots``
    tests each pulled-back root on the original.
    """
    u = solve_mod(step.table)
    return None if u is None else UniPoly(u, "y")
