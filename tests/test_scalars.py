"""Number tower: exactness of the rational layer, precision of the complex
layer, and the promotion rules between them.

The rational oracle is fractions.Fraction itself; the complex checks pin the
working precision to 256 bits and require residuals at the 1e-70 scale, far
below anything double arithmetic could produce.
"""

import json
import operator
import random
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (finf, fnan, fninf, from_int, from_man_exp, fzero, mpc_abs, mpc_add,
                          mpc_div, mpc_mul, mpc_pos, mpc_sub, mpf_div, mpf_neg, mpf_pos,
                          mpf_shift, round_down, round_nearest)

from bringform import (DEFAULT_PRECISION_BITS, RootConfig, Scalar, UniPoly, cx,
                       find_roots, match_roots, rat, reduce_general_quintic, verify_trace)
from bringform.polynomials import coeff_mismatch, lies_on, relative_residual
from bringform.scalars import (_q, add, as_scalar, as_tol, cadd, cmul, context, div,
                               from_ratio, hypot, mag_binades, mul, negligible, pick_root,
                               pivot_index, sort_key, sub)

TINY = mpmath.mpf("1e-70")


def test_rational_ops_match_fraction_oracle():
    rng = random.Random(101)
    for _ in range(300):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        sa, sb = rat(a.numerator, a.denominator), rat(b.numerator, b.denominator)
        assert (sa + sb).fraction == a + b
        assert (sa - sb).fraction == a - b
        assert (sa * sb).fraction == a * b
        if b != 0:
            assert (sa / sb).fraction == a / b
        assert (-sa).fraction == -a
        assert (sa ** 3).fraction == a ** 3


def test_rational_layer_is_exact_not_float():
    # 1/3 in binary floats would drift; here the identity is exact
    x = rat(1, 3)
    acc = rat(0)
    for _ in range(99):
        acc = acc + x
    assert acc.fraction == Fraction(33)
    assert (rat(1, 10 ** 40) + rat(1)).fraction != Fraction(1)


def test_exact_roots_stay_rational():
    assert rat(49, 4).sqrt().fraction == Fraction(7, 2)
    assert rat(27, 8).cbrt().fraction == Fraction(3, 2)
    assert rat(-27).cbrt().fraction == Fraction(-3)
    assert rat(0).sqrt().fraction == 0
    assert rat(1024).nth_root(5).fraction == 4


def test_inexact_roots_promote_with_full_precision():
    s = rat(2).sqrt()
    assert not s.is_rational
    assert s.prec == DEFAULT_PRECISION_BITS
    assert (s * s - rat(2)).mag() < TINY
    c = rat(5).cbrt()
    assert (c * c * c - rat(5)).mag() < TINY


def test_negative_sqrt_is_imaginary():
    s = rat(-4).sqrt()
    assert abs(s.re()) == 0
    assert (s * s + rat(4)).mag() < TINY


def test_negation_conjugation_keep_precision():
    # regression: both paths once rounded through the ambient 53-bit context
    s = rat(2).sqrt()
    n = -s
    assert (n * n - rat(2)).mag() < TINY
    k = s.conjugate()
    assert (k * k - rat(2)).mag() < TINY
    z = cx("1.5", "0.25").sqrt()
    w = z.conjugate()
    assert (z * w - (z * w).conjugate()).mag() < TINY  # |z|^2 is real
    assert (z.conjugate().conjugate() - z).mag() == 0


def test_from_mpc_respects_requested_precision():
    with mpmath.workprec(300):
        v = mpmath.mpf(2).sqrt()
    s = Scalar.from_mpc(v, 256)
    assert (s * s - rat(2)).mag() < TINY


def test_promotion_rules():
    a = rat(1, 3)
    b = cx(2)
    c = a + b
    assert not c.is_rational and c.prec == b.prec
    d = rat(1, 2) * rat(4)  # stays rational
    assert d.is_rational and d.fraction == 2


def test_a_complex_value_equals_a_rational_only_when_it_is_that_dyadic():
    assert cx(3) == 3 and cx("-1.25") == rat(-5, 4) and rat(1, 2 ** 70) == cx(2.0 ** -70)
    assert cx("0.1") != rat(1, 10)  # 1/10 is no binary float
    assert cx(2, 1) != rat(2) and cx(1) != rat(2)
    assert cx(mpmath.inf) != cx(mpmath.inf) and cx(mpmath.nan) != rat(0)
    # compared as mpf values: 2^(10^12 log2 10) is never built
    huge = Scalar.from_json(["1e999999999999", "0"])
    assert huge != rat(1) and huge == huge and huge != cx(1)


def test_json_roundtrip_rational_exact():
    for f in (Fraction(0), Fraction(-7, 3), Fraction(10 ** 30, 7)):
        s = rat(f.numerator, f.denominator)
        t = Scalar.from_json(s.to_json())
        assert t.is_rational and t.fraction == f


def test_a_negative_denominator_gives_its_sign_to_the_numerator():
    assert rat(3, -6).to_json() == Scalar.from_json([3, -6]).to_json() == [-1, 2]
    assert rat(-3, -6).to_json() == [1, 2] and rat(0, -5).to_json() == [0, 1]


def test_json_roundtrip_complex_precision():
    rng = random.Random(202)
    for _ in range(25):
        z = cx(rng.uniform(-5, 5), rng.uniform(-5, 5)).sqrt()
        back = Scalar.from_json(z.to_json(), z.prec)
        rel = (back - z).mag() / max(mpmath.mpf(1), z.mag())
        assert rel < mpmath.mpf(2) ** (-240)


@pytest.mark.parametrize("v", [["nan", "0"], ["0", "inf"], ["-inf", "1"], [1.5, float("nan")]])
def test_json_refuses_a_part_that_is_not_finite(v):
    with pytest.raises(ValueError, match="finite"):
        Scalar.from_json(v)


def test_negligible_is_exact_for_rationals():
    assert negligible(rat(0), "1e-30")
    assert not negligible(rat(1, 10 ** 60), "1e-30")  # exact nonzero never passes
    assert negligible(cx("1e-40"), "1e-30")
    assert not negligible(cx("1e-20"), "1e-30")
    assert negligible(cx("1e-20"), "1e-30", scale=mpmath.mpf("1e15"))


def test_as_tol_accepts_common_forms():
    assert as_tol("1e-30") == mpmath.mpf("1e-30")
    assert as_tol(None) == mpmath.mpf("1e-30")
    assert as_tol(mpmath.mpf("1e-5")) == mpmath.mpf("1e-5")


def test_sort_key_orders_by_real_then_imaginary():
    xs = [cx(1, 1), cx(0, 2), cx(1, -1), cx(-3, 0)]
    ordered = sorted(xs, key=sort_key)
    assert [x.re() for x in ordered] == sorted(x.re() for x in xs)
    assert ordered[0] == cx(-3, 0)
    assert ordered[2] == cx(1, -1)  # same real part: imaginary breaks the tie


def test_tie_break_prefers_real_small_roots():
    xs = [cx(2, 1), cx(-1, 0), cx(3, 0)]
    best = xs[pick_root(xs)]
    assert best == cx(-1, 0)


def test_pick_root_ignores_rounding_noise_in_imaginary_parts():
    # the d-cubic of batch quintic #16: three real roots whose imaginary
    # parts are rounding noise; the smallest-magnitude real root must win
    # whatever the sign or size of that noise
    real = [cx("-12.4024264671"), cx("0.708064835434"), cx("4.83277061979")]
    assert pick_root(real) == 1
    eps = cx(0, "1e-70")
    for signs in ((1, -1, 1), (-1, 1, -1), (1, 1, 0), (0, -1, 1)):
        noisy = [r + eps * s for r, s in zip(real, signs)]
        assert pick_root(noisy) == 1
    xs = [cx(2, 1), cx(-1, 0), cx(3, 0)]
    for s in (1, -1):
        assert pick_root([x + eps * s for x in xs]) == 1


def test_pick_root_breaks_exact_ties_by_real_then_imaginary_part():
    assert pick_root([cx(1, 2), cx(1, -2)]) == 1       # conjugates: Im < 0
    assert pick_root([cx(2, 0), cx(-2, 0)]) == 1       # equal |z|: smaller Re
    assert pick_root([rat(3), rat(-1, 2)]) == 1        # exact rationals
    assert pick_root([cx("1e40", 0), cx("-1e40", "1e-50")]) == 1


@pytest.mark.parametrize("huge", ["-1e31", "1e45", "-1e70"])
def test_pick_root_does_not_prefer_a_huge_real_root_to_small_complex_ones(huge):
    # a condition's leading coefficient eps at most tol times its scale,
    # kept because it lies above the working precision's noise, adds one
    # root of about 1/eps >= 1/tol beside the others; "prefer real" counts
    # every root within tol times the largest one as real, so the small
    # complex pair wins
    assert pick_root([cx(huge), cx("0.5", 1), cx("0.5", -1)]) == 2


def test_division_by_exact_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rat(1) / rat(0)


# -- a binary operator gives the generic libmp result, whatever its operands ----

# dunder -> (Fraction operator, libmp function, whether the argument is the
# left operand, the same operation seen from the argument)
BINARY_DUNDERS = {
    "__add__": (operator.add, mpc_add, False, "__radd__"),
    "__radd__": (operator.add, mpc_add, True, "__add__"),
    "__sub__": (operator.sub, mpc_sub, False, "__rsub__"),
    "__rsub__": (operator.sub, mpc_sub, True, "__sub__"),
    "__mul__": (operator.mul, mpc_mul, False, "__rmul__"),
    "__rmul__": (operator.mul, mpc_mul, True, "__mul__"),
    "__truediv__": (operator.truediv, mpc_div, False, "__rtruediv__"),
    "__rtruediv__": (operator.truediv, mpc_div, True, "__truediv__"),
}


def _generic_raw(v, prec):
    """The libmp pair the generic path feeds to libmp: a rational rounded
    as mpf(numerator) / denominator, a complex Scalar as it is stored."""
    if isinstance(v, Scalar) and not v.is_rational:
        return v._c
    f = v.fraction if isinstance(v, Scalar) else Fraction(v)
    return (mpf_div(from_int(f.numerator, prec, round_nearest), from_int(f.denominator),
                    prec, round_nearest), fzero)


_fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-10 ** 40, 10 ** 40).map(Fraction),
    st.fractions(max_denominator=10 ** 12).filter(lambda f: abs(f) < 10 ** 40))


@st.composite
def _rational_operands(draw):
    """0, 1, -1, integers and fractions, as Scalars or as plain int / Fraction."""
    f = draw(_fractions)
    form = draw(st.sampled_from(["scalar", "plain"] if f.denominator == 1
                                else ["scalar", "fraction"]))
    if form == "scalar":
        return rat(f.numerator, f.denominator)
    return f.numerator if form == "plain" else f


PRECISIONS = [53, 64, 256, 1024]


@st.composite
def _complex_operands(draw):
    """Complex Scalars at 53, 64, 256 or 1024 bits, real-valued or not; some
    read by from_json (prec + 16 bits in a prec-bit value), some not finite."""
    prec = draw(st.sampled_from(PRECISIONS))
    kind = draw(st.sampled_from(["cx", "cx", "json", "json", "inf"]))
    if kind == "inf":
        return Scalar.complex_(draw(st.sampled_from([mpmath.inf, -mpmath.inf, mpmath.nan, 1])),
                               draw(st.sampled_from([mpmath.inf, mpmath.nan, 0, 2])), prec)
    re = draw(_fractions)
    im = draw(st.one_of(st.just(Fraction(0)), _fractions))
    z = cx(re, im, prec + 40).sqrt() if draw(st.booleans()) else cx(re, im, prec + 40)
    if kind == "json":
        return Scalar.from_json(z.to_json(), prec)
    return Scalar.from_mpc(z.to_mpc(), prec)


def _mantissas(prec):
    """Signed mantissas of up to prec + 40 bits, or of prec + 1 bits ending
    in 1: halfway between two prec-bit values, where only a term far below
    (mpf_add's sticky bit) decides the rounding.  A value read by from_json
    carries prec + 16 bits, so it keeps such a mantissa."""
    tie = st.integers(2 ** (prec - 1), 2 ** prec - 1).map(lambda r: 2 * r + 1)
    return st.tuples(st.one_of(st.integers(1, 2 ** (prec + 40)), tie),
                     st.sampled_from([1, -1])).map(lambda t: t[0] * t[1])


# exponent gaps around the complex kernels' window of 100 bits, and around
# prec + 4, past which libmp's addition perturbs instead of shifting
_GAPS = [0, 1, 50, 99, 100, 101, 102, 150, 300, 600, "prec+3", "prec+4", "prec+5",
         "prec+60"]


@st.composite
def _gapped_pairs(draw):
    """Two complex Scalars at one precision whose parts, or the products of
    their parts, lie the drawn exponent gaps apart: y is -x (an exact
    cancellation), x scaled by 2^(+-gap) with its sign flipped or not, or x
    with its parts swapped and one of them gapped; x may have an exactly
    zero part, and either may be read by from_json."""
    prec = draw(st.sampled_from(PRECISIONS))
    wide = context(prec + 40)

    def gap():
        g = draw(st.sampled_from(_GAPS))
        return prec + int(g[5:]) if isinstance(g, str) else g

    def part(exp):
        return from_man_exp(draw(_mantissas(prec)), exp)

    def scalar(re, im):
        z = wide.mpc(wide.make_mpf(re), wide.make_mpf(im))
        if draw(st.booleans()):
            # the text of a (prec + 40)-bit value, read at prec + 16 bits
            return Scalar.from_json(Scalar.from_mpc(z, prec + 40).to_json(), prec)
        return Scalar.from_mpc(z, prec)

    exp = draw(st.integers(-200, 200))
    re, im = part(exp), part(exp - gap())
    shape = draw(st.sampled_from(["both", "both", "zero-re", "zero-im"]))
    if shape == "zero-re":
        re = fzero
    elif shape == "zero-im":
        im = fzero
    x = scalar(re, im)
    xr, xi = x._c
    how = draw(st.sampled_from(["negated", "scaled", "scaled", "swapped"]))
    if how == "negated":
        return x, -x
    k = gap() * draw(st.sampled_from([1, -1]))
    sign = mpf_neg if draw(st.booleans()) else mpf_pos
    if how == "scaled":
        return x, scalar(sign(mpf_shift(xr, k)), sign(mpf_shift(xi, k)))
    return x, scalar(sign(mpf_shift(xi, k)), xr)


def _check_dunder(x, y, name):
    """x.name(y), and the same operation from y when y is a Scalar, against
    the generic libmp call: same kind, precision and raw pair."""
    _, cop, swapped, mirror = BINARY_DUNDERS[name]
    prec = max(x.prec, y.prec if isinstance(y, Scalar) and y.prec else 0)
    a, b = _generic_raw(x, prec), _generic_raw(y, prec)
    calls = [lambda: getattr(x, name)(y)]
    if isinstance(y, Scalar):
        calls.append(lambda: getattr(y, mirror)(x))
    try:
        want = cop(b, a, prec, round_nearest) if swapped else cop(a, b, prec, round_nearest)
    except ZeroDivisionError:
        for call in calls:
            with pytest.raises(ZeroDivisionError):
                call()
        return
    for call in calls:
        got = call()
        assert not got.is_rational and got.prec == prec
        assert got._c == want, (x, y, name)


# rationals, in each form, that meet every drawn complex value: 0 and +-1
# pin z * 0 = nan for an infinite z and the rounding of z * 1
RATIONAL_OPERANDS = (rat(0), rat(1), rat(-1), 0, 1, -1, Fraction(-1), rat(12), 12,
                     Fraction(-5, 3), rat(2, 7))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(pair=st.one_of(
    st.tuples(_complex_operands(), st.one_of(_rational_operands(), _complex_operands())),
    _gapped_pairs()))
def test_binary_dunders_match_the_generic_libmp_call(pair):
    # a complex operation runs one kernel per operator (scalars.add, sub,
    # mul, div), a rational operand entering rounded to the complex
    # precision; each must give the generic bits
    x, y = pair
    for other in RATIONAL_OPERANDS + (y,):
        for name in BINARY_DUNDERS:
            _check_dunder(x, other, name)


# numerators and denominators up to 10^40, of either sign
_wide_fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-10 ** 40, 10 ** 40).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)))


@st.composite
def _exact_operands(draw):
    """A rational as a Scalar, a Fraction, or a plain int when it is one."""
    f = draw(_wide_fractions)
    form = draw(st.sampled_from(["scalar", "fraction", "int"] if f.denominator == 1
                                else ["scalar", "fraction"]))
    if form == "scalar":
        return rat(f.numerator, f.denominator)
    return f.numerator if form == "int" else f


def _assert_exact(got, f):
    """got is the rational f, kept in lowest terms with a positive denominator."""
    assert got.is_rational and type(got.fraction) is Fraction
    assert got.fraction == f and got.to_json() == [f.numerator, f.denominator]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(x=_exact_operands(), y=_exact_operands(),
       name=st.sampled_from(sorted(BINARY_DUNDERS)))
def test_rational_dunders_stay_exact(x, y, name):
    # the dunder on a Scalar x, and the operator with the plain operand y on
    # its side (an int or Fraction y on the left reaches the reflected one)
    op, _, swapped, _ = BINARY_DUNDERS[name]
    x = as_scalar(x)
    left, right = x.fraction, y.fraction if isinstance(y, Scalar) else Fraction(y)
    if swapped:
        left, right = right, left
    calls = [lambda: getattr(x, name)(y), lambda: op(y, x) if swapped else op(x, y)]
    if op is operator.truediv and right == 0:
        for call in calls:
            with pytest.raises(ZeroDivisionError):
                call()
        return
    for call in calls:
        _assert_exact(call(), op(left, right))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(f=_wide_fractions, k=st.integers(-3, 5))
def test_rational_powers_stay_exact(f, k):
    x = rat(f.numerator, f.denominator)
    if f == 0 and k < 0:
        with pytest.raises(ZeroDivisionError):
            x ** k
        return
    _assert_exact(x ** k, f ** k)


def test_zero_to_a_negative_power_raises():
    for k in (-1, -2, -3):
        with pytest.raises(ZeroDivisionError):
            rat(0) ** k
    _assert_exact(rat(0) ** 0, Fraction(1))


# n / 2^k: the rationals a complex value can equal
_dyadics = st.builds(lambda n, k: Fraction(n, 2 ** k), st.integers(-10 ** 40, 10 ** 40),
                     st.integers(0, 130))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(f=st.one_of(_wide_fractions, _dyadics))
def test_rational_equality_with_ints_fractions_and_complex_values(f):
    x = rat(f.numerator, f.denominator)
    assert x == f and f == x and x != f + 1 and f - 1 != x
    n = f.numerator
    assert (x == n) == (f.denominator == 1) and (n == x) == (f.denominator == 1)
    # 256 bits hold every such n / 2^k exactly, and no other rational
    dyadic = not f.denominator & (f.denominator - 1)
    z = cx(f, 0, 256)
    assert (x == z) is dyadic and (z == x) is dyadic
    assert x != cx(f, 1, 256) and cx(f, 1, 256) != x


def test_times_one_rounds_a_value_read_at_extra_precision():
    # from_json carries prec + 16 bits; x * 1 must come back at prec bits
    x = Scalar.from_json(["0.1234567890123456789012345678901234567", "-7.5e-3"], 64)
    assert x._c != mpc_pos(x._c, 64, round_nearest)
    for y in (x * 1, 1 * x, x * rat(1), x + 0, x - 0, -(0 - x), -(x * -1)):
        assert y._c == mpc_pos(x._c, 64, round_nearest)


def test_each_operator_runs_exactly_one_kernel(monkeypatch):
    # the operators only coerce an operand and call a module kernel, which
    # a tracer can rebind in the scalars namespace to count every operation
    from bringform import scalars

    calls = []
    for name in ("add", "sub", "mul", "div"):
        def counted(x, y, name=name, original=getattr(scalars, name)):
            calls.append(name)
            return original(x, y)
        monkeypatch.setattr(scalars, name, counted)
    z, r = cx("1.5", "-2", 256), rat(2, 3)
    cases = [("add", lambda: z + r), ("add", lambda: r + z), ("sub", lambda: z - 3),
             ("sub", lambda: Fraction(1, 3) - z), ("mul", lambda: 2 * z),
             ("div", lambda: z / r), ("div", lambda: 1 / z), ("add", lambda: r + 5),
             ("sub", lambda: r - r), ("mul", lambda: r * Fraction(3, 4)),
             ("div", lambda: 7 / r)]
    for name, op in cases:
        calls.clear()
        op()
        assert calls == [name], (name, calls)
    for bad in (lambda: z + 1.5, lambda: z * "a"):
        calls.clear()
        with pytest.raises(TypeError):
            bad()
        assert calls == []


# -- the kernels give the bits of libmp's generic calls and of Fraction ---------

# exponent gaps between the parts of one value, around the 100-bit window
# of libmp's addition and past it
_PART_GAPS = [0, 1, 99, 100, 101, 150, 260, 300, 450, 600]


@st.composite
def _kernel_complex(draw, prec):
    """A complex Scalar at prec bits: from cx, from JSON (prec + 16 bits
    carried), real-valued, the exact complex zero, with an infinite or nan
    part, or with parts 0-600 bits apart at an exponent within +-600."""
    kind = draw(st.sampled_from(["cx", "json", "real", "zero", "inf", "gapped", "gapped"]))
    if kind == "zero":
        return cx(0, 0, prec)
    if kind == "inf":
        return Scalar.complex_(draw(st.sampled_from([mpmath.inf, -mpmath.inf, mpmath.nan, 1])),
                               draw(st.sampled_from([mpmath.inf, mpmath.nan, 0, 2])), prec)
    wide = context(prec + 40)
    if kind == "gapped":
        exp, gap = draw(st.integers(-600, 600)), draw(st.sampled_from(_PART_GAPS))
        parts = [from_man_exp(draw(_mantissas(prec)), e) for e in (exp, exp - gap)]
        if draw(st.booleans()):
            parts.reverse()
        z = wide.mpc(*map(wide.make_mpf, parts))
    else:
        z = cx(draw(_fractions), Fraction(0) if kind == "real" else draw(_fractions), prec + 40)
        z = (z.sqrt() if draw(st.booleans()) else z).to_mpc()
    if kind == "json" or kind == "gapped" and draw(st.booleans()):
        return Scalar.from_json(Scalar.from_mpc(z, prec + 40).to_json(), prec)
    return Scalar.from_mpc(z, prec)


_KERNEL_PRECISIONS = [64, 256, 1024]
_kernel_rationals = _fractions.map(lambda f: rat(f.numerator, f.denominator))
_kernel_operands = st.one_of(
    _kernel_rationals,
    st.sampled_from(_KERNEL_PRECISIONS).flatmap(_kernel_complex))


@st.composite
def _complex_triples(draw):
    """acc, x and y complex, acc at a precision at least that of x and y
    (often above both: the product rounds at the factors' precision)."""
    px, py = (draw(st.sampled_from(_KERNEL_PRECISIONS)) for _ in "xy")
    pa = draw(st.sampled_from([p for p in _KERNEL_PRECISIONS if p >= max(px, py)]))
    return tuple(draw(_kernel_complex(p)) for p in (pa, px, py))


def _bits(v):
    """The kind, precision and raw pair or (numerator, denominator) of v."""
    return (v.is_rational, v.prec, (v._num, v._den) if v.is_rational else v._c)


_units = st.sampled_from([rat(0), rat(1), rat(-1)])
# exact 1, -1 and 0 against cx, from_json (prec + 16 bits) and non-finite
# values: each rounds the complex value as any other rational operand does
_fused_operands = st.one_of(_units, _kernel_operands)


@st.composite
def _zero_acc_triples(draw):
    """An exact rational zero accumulator, x and y complex at two
    precisions or one of them rational (often an exact unit)."""
    px, py = (draw(st.sampled_from(_KERNEL_PRECISIONS)) for _ in "xy")
    x, y = draw(_kernel_complex(px)), draw(_kernel_complex(py))
    if draw(st.booleans()):
        x = draw(st.one_of(_units, _kernel_rationals))
    return rat(0), x, y


_REFERENCES = {  # kernel -> (Fraction operator, libmp function)
    add: (operator.add, mpc_add),
    sub: (operator.sub, mpc_sub),
    mul: (operator.mul, mpc_mul),
    div: (operator.truediv, mpc_div),
}


def _reference(kernel, a, b):
    """a OP b for values a and b, each a Fraction or a complex Scalar's
    (raw pair, precision), sharing no code with the kernels: Fraction
    arithmetic for two rationals, otherwise libmp's generic call at the
    larger precision in play with a rational rounded at it
    (``_generic_raw``).  Returns ``_bits``, or the exception's type."""
    fop, cop = _REFERENCES[kernel]
    try:
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            f = fop(a, b)
            return True, None, (f.numerator, f.denominator)
        prec = max(v[1] for v in (a, b) if not isinstance(v, Fraction))
        raw = [_generic_raw(v, prec) if isinstance(v, Fraction) else v[0] for v in (a, b)]
        return False, prec, cop(*raw, prec, round_nearest)
    except ZeroDivisionError as e:
        return type(e)


def _value(v):
    """The value of a Scalar, or of a reference result, as ``_reference``
    takes it."""
    if isinstance(v, Scalar):
        return v.fraction if v.is_rational else (v._c, v.prec)
    return Fraction(*v[2]) if v[0] else (v[2], v[1])


def _outcome(kernel, *args):
    try:
        return _bits(kernel(*args))
    except ZeroDivisionError as e:
        return type(e)


def _fused(acc, x, y):
    """acc + x * y as the fused kernel ``scalars.fma`` formed it before
    ``UniPoly``'s product and Horner and the certificate's C(T) sum called
    add(acc, mul(x, y)): one ``_q`` for three rationals, and ``cmul`` then
    ``cadd`` on the raw pairs for three complex values."""
    ad, xd, yd = acc._den, x._den, y._den
    if ad is not None:
        if xd is not None and yd is not None:
            d = xd * yd
            return _q(acc._num * d + x._num * y._num * ad, ad * d)
    elif xd is None and yd is None:
        prec = x._prec if x._prec >= y._prec else y._prec
        z = cmul(x._c, y._c, prec)
        if acc._prec > prec:
            prec = acc._prec
        return Scalar(None, None, cadd(acc._c, z, prec), prec)
    return add(acc, mul(x, y))


@settings(max_examples=700, derandomize=True, deadline=None, database=None)
@given(ops=st.one_of(st.tuples(_fused_operands, _fused_operands, _fused_operands),
                     _complex_triples(), _zero_acc_triples()))
def test_kernels_match_libmp_and_fraction(ops):
    # every mix of kinds, exact 0 and +-1, values read by from_json at
    # prec + 16 bits and infinite or nan parts: the generic call gives the
    # same bits
    acc, x, y = ops
    for a, b in ((x, y), (acc, x), (y, acc)):
        for kernel in _REFERENCES:
            want = _reference(kernel, _value(a), _value(b))
            assert _outcome(kernel, a, b) == want, (kernel.__name__, a, b)
    # acc + x * y: the product at its factors' larger precision, the sum
    # at the larger of that and acc's
    xy = _value(_reference(mul, _value(x), _value(y)))
    got = _bits(add(acc, mul(x, y)))
    assert got == _reference(add, _value(acc), xy)
    # and with the bits of the fused kernel that UniPoly's product and
    # Horner and the certificate's C(T) sum called before
    assert got == _bits(_fused(acc, x, y))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(re=st.integers(-2 ** 400, 2 ** 400), im=st.integers(-2 ** 400, 2 ** 400),
       d=st.one_of(st.integers(1, 2 ** 200), st.integers(-2 ** 200, -1),
                   st.integers(0, 300).map(lambda k: 2 ** k)),
       e=st.integers(-300, 300), prec=st.sampled_from([53, 64, 256]))
def test_a_gaussian_ratio_is_rounded_once_as_mpf_div_rounds_it(re, im, d, e, prec):
    # each part of (re + im i) 2^e / d is the correctly rounded quotient of
    # two exact ints; a zero is the rational 0, and with no precision the
    # real quotient is the rational in lowest terms
    got = from_ratio(re, im, d, e, prec)
    if re == im == 0:
        assert got.is_rational and got._num == 0
    else:
        want = tuple(mpf_shift(mpf_div(from_int(x), from_int(d), prec, round_nearest), e)
                     for x in (re, im))
        assert (got.prec, got._c) == (prec, want)
    exact = from_ratio(re, 0, d)
    assert (exact._num, exact._den) == (rat(re, d)._num, rat(re, d)._den)


# |z| has one kernel, ``hypot``, which must give libmp's mpc_abs bit for
# bit: mpc_abs itself is the reference, on parts that are zero, negative,
# of any mantissa length up to twice the precision, and up to 10^4 binades
# apart, where the sum of squares takes mpf_add's sticky path
@st.composite
def _hypot_parts(draw):
    prec = draw(st.integers(2, 1100))
    e = draw(st.integers(-400, 400))

    def part():
        m = draw(st.one_of(st.just(0), st.integers(-2 ** (2 * prec + 8), 2 ** (2 * prec + 8))))
        return from_man_exp(m, e + draw(st.one_of(st.integers(-300, 300),
                                                  st.integers(-10 ** 4, 10 ** 4))))
    return (part(), part()), prec


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(case=_hypot_parts())
def test_hypot_is_mpc_abs_bit_for_bit(case):
    z, prec = case
    for rnd in (round_nearest, round_down):
        assert hypot(z, prec, rnd) == mpc_abs(z, prec, rnd), (z, prec, rnd)


def test_hypot_hands_an_infinity_or_nan_to_libmp():
    one = from_int(1)
    for z in [(finf, fzero), (fzero, fninf), (fnan, one), (one, fnan), (finf, fnan)]:
        for rnd in (round_nearest, round_down):
            assert hypot(z, 53, rnd) == mpc_abs(z, 53, rnd)
    assert Scalar.complex_(mpmath.inf, 1, 64).mag() == mpmath.inf


def _binade_values():
    """Values at exact powers of two around 2^-100, 2^0 and 2^100 and just
    off them, complex at 64 and 256 bits (real, both parts, from JSON) and
    rational; zeros and infinite and nan parts."""
    out = [rat(0), cx(0, 0, 64), Scalar.complex_(mpmath.inf, 0, 256),
           Scalar.complex_(0, mpmath.nan, 64), rat(2 ** 300 - 1), rat(2 ** 300),
           rat(-(2 ** 300))]
    for center in (-100, 0, 100):
        for k in range(center - 4, center + 5):
            p = Fraction(2) ** k
            for f in (p, p * (1 - Fraction(1, 2 ** 70)), p * (1 + Fraction(1, 2 ** 70))):
                out += [rat(f.numerator, f.denominator), cx(f, 0, 64), cx(0, -f, 256),
                        cx(f, f, 256), cx(f / 3, f, 64)]
            out.append(Scalar.from_json(cx(p, p / 7, 300).to_json(), 256))
    return out


_TOLS = ["1e-30", 1e-30, mpmath.mpf("1e-30"), "0.5", 2.0 ** -60, mpmath.mpf(2) ** 100]
_SCALES = [mpmath.mpf(1), mpmath.mpf(2) ** 70, mpmath.mpf("3.7e5"), mpmath.mpf(2) ** -130]


def test_the_binade_bounds_decide_as_the_square_roots_do():
    values = _binade_values()
    for v in values:
        b = mag_binades(v)
        m = v.mag()
        if b is not None:
            lo, hi = (mpmath.mpf(0) if e == float("-inf") else mpmath.ldexp(1, e) for e in b)
            assert lo <= m <= hi, (v, b)
    # negligible: x.mag() <= as_tol(tol, scale), a whole binade clear or not
    for tol in _TOLS:
        for scale in _SCALES:
            bound = as_tol(tol, scale)
            near = [cx(mpmath.ldexp(bound, k), 0, 256) for k in range(-3, 4)]
            near += [cx(bound, 0, 64), cx(0, mpmath.ldexp(bound, 1), 64)]
            for x in values + near:
                assert negligible(x, tol, scale) is (x.mag() <= bound
                                                    if not x.is_rational
                                                    else x.is_exact_zero()), (x, tol, scale)
    # the pivot: the first index of the largest mag(), from every start
    rng = random.Random(5)
    for _ in range(300):
        v = [rng.choice(values) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:  # a tie: 2^300 - 1 rounds up to 2^300 at 256 bits
            v = [rat(2 ** 300 - 1), rat(2 ** 300)] + v
        for start in range(len(v)):
            want = max(range(start, len(v)), key=lambda i: v[i].mag())
            assert start + pivot_index(v[start:]) == want, (v, start)
    # lies_on: relative_residual(A, z) <= as_tol(tol), points swept across
    # the binades of the residual from far inside tol to far outside.  A
    # rational A at a finite complex z is judged exactly, on z's dyadic
    # value, so its reference carries z at 4096 bits, where the Horner's
    # rounding lies far below every tol here (at 64 bits it cancels to 0)
    def agree(A, z, tol):
        w = z
        if not z.is_rational and A.is_rational_tree() and mag_binades(z) is not None:
            w = Scalar.from_raw(z._c, 4096)
        return lies_on(A, z, tol) is (relative_residual(A, w) <= as_tol(tol))

    polys = [UniPoly([rat(-2), rat(0), rat(1)]),
             UniPoly([rat(-5), rat(3), rat(0), rat(1, 2 ** 90)]),
             UniPoly([cx("1.5", "-2", 256), rat(0), rat(0), rat(1)])]
    for A in polys:
        for prec in (64, 256):
            r = find_roots(A, RootConfig(precision_bits=prec)).roots[-1]
            points = [r * (rat(1) + rat(m, 2 ** j)) for j in range(prec + 8) for m in (1, 3)]
            points += [r, cx(0, 0, prec), rat(0), rat(3, 2), rat(2 ** 40),
                       Scalar.complex_(mpmath.inf, 1, prec), Scalar.complex_(1, mpmath.nan, prec)]
            for z in points:
                for tol in _TOLS[:5]:
                    assert agree(A, z, tol), (A, z, tol)
    # and where the bounds are tight: |A(z)| just below a power of two with
    # coeff_scale(A) = max(1, |z|) = 1, or |A(z)| = 1 with coeff_scale(A)
    # just below 2^40, against tols at and near powers of two
    tight = [UniPoly([rat(1 - 2 ** k, 2 ** (k + 30)), rat(1)]) for k in (1, 2, 60)]
    tight.append(UniPoly([rat(1), rat(2 ** 40 - 1), rat(1)]))
    for A in tight:
        for z in (rat(0), cx(0, 0, 64), rat(1, 2 ** 50), cx(Fraction(-1, 2 ** 33), 0, 256)):
            for m in range(26, 44):
                for tol in (2.0 ** -m, mpmath.ldexp(3, -m), repr(2.0 ** -m), "1e-%d" % (m // 3)):
                    assert agree(A, z, tol), (A, z, tol)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(values=st.lists(_kernel_operands, max_size=6))
def test_max_mag_is_the_largest_mag(values):
    # the mag() of pivot_index's pick: on finite values the largest mag()
    # itself, bit for bit; with an infinite or nan part, Python's max of
    # the mag()s, which pivot_index falls back to
    got = UniPoly(values).max_mag()._mpf_
    if all(mag_binades(v) is not None for v in values):
        want = mpmath.mpf(0)
        for v in values:
            if v.mag() > want:
                want = v.mag()
    else:
        want = max(v.mag() for v in values)
    assert got == want._mpf_


# -- precision is local to each value -------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "bringform"


def test_package_never_sets_mpmath_global_precision():
    # nor reads it: mp.prec, mp.dps and mpmath.mp.prec appear nowhere
    pattern = re.compile(r"workprec|extraprec|\bmp\.(prec|dps)\b")
    hits = ["%s:%d" % (path.name, i)
            for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def _boundary_verdicts():
    """Each tolerance check on a value just past its bound: |x| is
    1e-30 (1 + 2^-40) against "1e-30", and a leading coefficient is
    2^(24 - 256) (1 + 2^-40) times a coefficient scale 2 - 2^-29, which 20
    bits would round up to 2."""
    x = cx("1e-30") * rat(2 ** 40 + 1, 2 ** 40)
    scale = rat(2) - rat(1, 2 ** 29)
    lead = cx(0) + scale * rat(2 ** 40 + 1, 2 ** (40 + 232))
    return (negligible(x, "1e-30"),
            UniPoly([scale, rat(0), lead]).effective_degree(256),
            coeff_mismatch(UniPoly([x]), UniPoly([]), "1e-30") is not None,
            match_roots([x], [rat(0)], tol="1e-30")[0],
            pick_root([cx(1) + x, cx(1)], "1e-30"))


def test_verdicts_do_not_depend_on_mpmaths_global_precision():
    default = _boundary_verdicts()
    assert default == (False, 2, True, False, 1)
    for prec in (20, 300):
        with mpmath.workprec(prec):
            assert _boundary_verdicts() == default, prec


def test_threads_at_mixed_precisions_reproduce_serial_runs():
    # each run reduces and verifies the README quintic; threads at 128 and
    # 512 bits interleave, and every run must give the serial bytes
    P = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])

    def run(prec):
        trace = reduce_general_quintic(P, prec=prec)
        report = verify_trace(trace, RootConfig(precision_bits=prec))
        return json.dumps(trace.to_json(), sort_keys=True), report.matched

    precs = (128, 512, 128, 512)
    serial = {p: run(p) for p in set(precs)}
    assert all(matched for _, matched in serial.values())
    start = threading.Barrier(len(precs))
    results = [None] * len(precs)

    def work(i):
        start.wait()
        try:
            results[i] = [run(precs[i]) for _ in range(2)]
        except Exception as exc:  # a race surfaces as a failed check
            results[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(precs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for prec, got in zip(precs, results):
        assert got == [serial[prec]] * 2, "a %d-bit run differed from the serial one" % prec
