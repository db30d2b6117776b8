"""Exact construction of weighted binomial power-sum ratio sequences.

For integer parameters ``m >= 0``, ``l >= 1`` and a positive rational weight
``a``, the sequence studied by this package has the ``m + 1`` entries

    s(r) = P(m, r) / P(r, r),    r = 0, 1, ..., m,

where

    P(t, r) = sum_{i=0}^{r} (C(t, i) * a**i) ** l

and ``C`` is the binomial coefficient.  Both endpoints equal 1 (the r = 0
terms are 1, and P(m, m) = P(m, m)).  Everything here is integer or rational
arithmetic; nothing is ever rounded.

Writing ``a = p/q`` in lowest terms, both sums in ``s(r)`` carry the common
denominator ``q**(r*l)``, so the entry is a ratio of the scaled integers

    N_r = sum_{i<=r} C(m, i)**l * p**(i*l) * q**((r-i)*l)
    D_r = sum_{i<=r} C(r, i)**l * p**(i*l) * q**((r-i)*l)

and ``s(r) = N_r / D_r`` exactly.  The numerators satisfy the one-term
extension ``N_r = N_{r-1} * q**l + C(m, r)**l * p**(r*l)``, so a full row
costs one new term per step.  That term comes by one of two rules, chosen
by m: below m = 400 the step powers w_r = C(m, r) * p**r, and from m = 400
on it multiplies the last term by its exact term ratio ((m-r+1) p / r)**l
(see ``binomial_power_sums``); for integer a the factor q**l is 1 and the
step skips it.  The denominators do not depend on ``m`` at all, which lets
parameter sweeps compute them once per ``(l, a)`` and reuse them across
every ``m``.  Property checkers compare entries through the integer pairs
``(N_r, D_r)``: a float filter on their mantissas, and cross-multiplication
where the filter cannot decide; reduced ``Fraction`` entries are
materialised only on demand.

Row sums by certified recurrences.  Summed term by term, D_0..D_n cost
Theta(n**2) big-integer terms.  For l <= 5, ``scaled_row_sums`` instead
steps a linear recurrence of order J = l from the table ``_ROW_RECURRENCES``.
With ``P = p**l`` and ``Q = q**l`` it reads ``sum_{j=0}^{J} c_j(r) D_{r+j} = 0``,
where each c_j is a sum of polynomials in r times forms in P, Q homogeneous
of degree J - j + e, with e = 0 for l <= 3, e = 2 for l = 4 and e = 4 for
l = 5; the leading coefficient c_J is itself such a form, of degree e:

    l = 1:  D_{r+1} = (P+Q) D_r
    l = 2:  (r+2) D_{r+2} = (2r+3)(P+Q) D_{r+1} - (r+1)(Q-P)^2 D_r
    l = 3:  (r+3)^2 (3r+4) D_{r+3} = (P+Q)(9r^3+57r^2+116r+74) D_{r+2}
                - (3r+5)[(3r^2+11r+9)(P^2+Q^2) - (21r^2+77r+66)PQ] D_{r+1}
                + (r+1)^2 (3r+7)(P+Q)^3 D_r

and l = 4 and l = 5 have degree 8 and 16 in r (the table lists them).  At
p = q the (Q-P)^2 term vanishes and l = 2 gives the central binomial
coefficients C(2r, r); l = 1 is the binomial theorem, D_r = (p+q)**r.

Each recurrence is proved by creative telescoping (Zeilberger; Petkovsek,
Wilf and Zeilberger, "A = B", 1996).  Put x = P/Q, F(r, k) = C(r, k)**l x**k
and S_r = sum_k F(r, k) = D_r / Q**r.  Dividing c_j by Q**(J-j+e) makes it a
polynomial c_j(r, x), and a certificate

    G(r, k) = R(r, k, x) * C(r+J-1, k-1)**l * x**k,

with R = M(r, k, x) / d(r) for a polynomial M and a polynomial d with no
root at r >= 0, satisfies

    sum_j c_j(r, x) F(r+j, k) = G(r, k+1) - G(r, k)    for 0 <= k <= r+J.

Divided by C(r+J, k)**l x**k, which is nonzero there, both sides are
rational functions of (r, k, x): F(r+j, k) becomes
(ff(r+J-k, J-j) / ff(r+J, J-j))**l with ff the falling factorial, G(r, k)
becomes R(r, k, x) (k / (r+J))**l and G(r, k+1) becomes
x R(r, k+1, x) ((r+J-k) / (r+J))**l.  With denominators cleared this is a
polynomial identity, which the tests check on a grid larger than its degree
in each variable.  Summing it over k = 0..r+J, the left side is
sum_j c_j S_{r+j}, because F(r+j, k) = 0 for k > r+j; the right side
telescopes to G(r, r+J+1) - G(r, 0) = 0, because C(r+J-1, r+J) and
C(r+J-1, -1) vanish.  Multiplying by Q**(r+J+e) gives the recurrence for
the D_r.  Where its leading coefficient is nonzero it determines D_{r+J}
from the J rows before it, by an exact integer division that the code
checks.  For l <= 4 the leading coefficient is positive at every r >= 0;
for l = 5 it can vanish at some weights, and a step whose leading
coefficient is 0 takes its D_r from the direct sum instead.

For l >= 6 no recurrence is certified here, and each D_r is still summed
term by term, as it is for every l on short rows (``_ROW_RECURRENCE_MIN_R``).
That direct route is also the test oracle for the recurrences.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, islice, repeat
from operator import mul

__all__ = [
    "SeqParams",
    "ExactSequence",
    "parse_rational",
    "weighted_power_sum",
    "binomial_power_sums",
    "scaled_prefix_sums",
    "scaled_row_sums",
    "sequence_entry",
    "full_sequence",
    "central_binomial_sequence",
]


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational from ``"p/q"``, an integer or a decimal string.

    Accepts e.g. ``"3"``, ``"2/5"``, ``"0.25"`` (decimals are exact: 0.1
    becomes 1/10).  Floats are rejected: binary floats do not represent the
    intended decimal exactly, so callers must pass a string instead.  Bools
    are rejected too, as ``SeqParams`` rejects a bool ``m`` or ``l``.  A
    ``Fraction`` (not a subclass) is immutable, so it is returned as is.
    """
    if type(text) is Fraction:
        return text
    if isinstance(text, float):
        raise TypeError(
            "refusing to convert a float to an exact rational; "
            "pass a string like '0.25' or '1/4' instead"
        )
    if isinstance(text, bool):
        raise TypeError(f"refusing to read a bool as a rational, got {text!r}")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a valid rational: {text!r}") from exc
    return value


@dataclass(frozen=True)
class SeqParams:
    """Parameters (m, l, a) of one sequence.

    ``m``: final index of the sequence (entries r = 0..m), m >= 0.
    ``l``: integer power applied to each weighted binomial term, l >= 1.
    ``a``: positive rational weight.  Strings, ints and Fractions are
    accepted and normalised to ``Fraction``; floats are rejected as inexact.
    """

    m: int
    l: int
    a: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", parse_rational(self.a))
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise TypeError(f"m must be an int, got {self.m!r}")
        if not isinstance(self.l, int) or isinstance(self.l, bool):
            raise TypeError(f"l must be an int, got {self.l!r}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if self.a <= 0:
            raise ValueError(f"a must be > 0, got {self.a}")

    def label(self) -> str:
        return f"(m={self.m}, l={self.l}, a={self.a})"


def weighted_power_sum(m: int, l: int, a: Fraction | int | str, r: int) -> Fraction:
    """P(m, r) = sum_{i=0}^{r} (C(m, i) * a**i) ** l, exactly.

    m, l and a are checked as ``SeqParams`` checks them, and 0 <= r <= m is
    required.  Built incrementally, one new term per index, over the
    denominator-cleared integers described in the module docstring.
    """
    a = SeqParams(m, l, a).a
    if r < 0 or r > m:
        raise ValueError(f"r must satisfy 0 <= r <= m={m}, got {r}")
    p, q = a.numerator, a.denominator
    ql = q**l
    total = 1  # i = 0 term
    coeff = 1  # C(m, i)
    p_pow = 1  # p**(i*l)
    for i in range(1, r + 1):
        coeff = coeff * (m - i + 1) // i
        p_pow *= p**l
        total = total * ql + coeff**l * p_pow
    return Fraction(total, q ** (r * l))


# Smallest n whose terms ``binomial_power_sums`` steps by their term ratio.
# Best-of-N timings of the whole generator, ratio step against powering w
# (2-core x86-64, Python 3.11.7): 0.60-1.12x at n = 100 (slower at high l,
# where dividing by a multi-digit i**l costs more than powering a short w),
# 0.92-2.2x at n = 400 and 2.1-6.3x at n = 2000.
_RATIO_STEP_MIN_N = 400


def binomial_power_sums(n: int, l: int, a: Fraction | int | str, r_max: int) -> Iterator[int]:
    """Yield sum_{i<=r} C(n, i)**l * p**(i*l) * q**((r-i)*l) for r = 0..r_max.

    ``a = p/q`` in lowest terms.  These are the scaled prefix sums of the
    module docstring, one new term per step; with a = 1 they are the plain
    sums of C(n, i)**l.  It returns a generator, so callers that need only
    the last sum hold one big integer at a time.  When q = 1, that is for
    every integer weight a, each step skips the multiplication by q**l.

    Each new term t_i = (C(n, i) * p**i)**l comes by one of two rules,
    chosen by n.  For n < ``_RATIO_STEP_MIN_N`` the loop steps
    w_i = C(n, i) * p**i and powers it, t_i = w_i**l.  From there on it
    steps t_i itself by its term ratio ((n-i+1) p / i)**l, one product and
    one division by the small integer i**l, which saves the big-integer
    power of a long w.  The division is exact:
    t_{i-1} * ((n-i+1) p)**l = (C(n, i-1) (n-i+1) p**i)**l
    = (C(n, i) * i * p**i)**l = t_i * i**l.

    n, l and a are checked as ``SeqParams`` checks them, and r_max >= 0,
    at the call rather than at the first ``next``.  r_max > n is allowed.
    """
    a = SeqParams(n, l, a).a
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    return _binomial_power_sums(n, l, a, r_max)


def _binomial_power_sums(n: int, l: int, a: Fraction, r_max: int) -> Iterator[int]:
    """``binomial_power_sums`` without its argument checks."""
    p, q = a.numerator, a.denominator
    acc = 1
    yield acc
    ql = q**l
    if n < _RATIO_STEP_MIN_N:
        w = 1  # w = C(n, i) * p**i; each division by i below is exact
        for i in range(1, r_max + 1):
            w = w * ((n - i + 1) * p) // i
            if q != 1:
                acc *= ql
            acc += w**l
            yield acc
        return
    t = 1  # t = (C(n, i) * p**i)**l; each division by i**l below is exact
    for i in range(1, r_max + 1):
        t = t * ((n - i + 1) * p) ** l // i**l
        if q != 1:
            acc *= ql
        acc += t
        yield acc


def scaled_prefix_sums(m: int, l: int, a: Fraction) -> list[int]:
    """Numerators N_r for r = 0..m (see module docstring), one term per step.

    N_r equals P(m, r) * a.denominator**(r*l); these integers share their
    scaling with ``scaled_row_sums`` so N_r / D_r is the sequence entry.
    m, l and a are checked as ``binomial_power_sums`` checks n, l and a.
    """
    return list(binomial_power_sums(m, l, a, m))


# Certified recurrences for the row sums, keyed by l.  An entry
# (lead, shifts) of order J = len(shifts) reads
#
#     sum_{(u, f) in lead} u(r) * f(P, Q) * D_{r+J}
#         = sum_{j<J} sum_{(u, f) in shifts[j]} u(r) * f(P, Q) * D_{r+j}
#
# with P = p**l and Q = q**l.  A polynomial u in r lists its coefficients from
# the constant term up; a form f = (f_0, ..., f_d) in P, Q stands for
# sum_i f_i * P**i * Q**(d-i).  The forms of the lead have one degree e
# (0 for l <= 3, 2 for l = 4, 4 for l = 5), and those at shift j have degree
# J - j + e.  The module docstring gives the proof; the certificates are
# checked in the tests, and ``scripts/row_recurrence.py`` finds both.
_ROW_RECURRENCES = {
    # D_{r+1} = (P + Q) D_r
    1: ((((1,), (1,)),), (
        (((1,), (1, 1)),),
    )),
    # (r+2) D_{r+2} = (2r+3)(P+Q) D_{r+1} - (r+1)(Q-P)^2 D_r
    2: ((((2, 1), (1,)),), (
        (((-1, -1), (1, -2, 1)),),
        (((3, 2), (1, 1)),),
    )),
    # (r+3)^2 (3r+4) D_{r+3} = (P+Q)(9r^3+57r^2+116r+74) D_{r+2}
    #     - (3r+5)[(3r^2+11r+9)(P^2+Q^2) - (21r^2+77r+66)PQ] D_{r+1}
    #     + (r+1)^2 (3r+7)(P+Q)^3 D_r
    3: ((((36, 51, 22, 3), (1,)),), (
        (((7, 17, 13, 3), (1, 3, 3, 1)),),
        (((-45, -82, -48, -9), (1, 0, 1)), ((330, 583, 336, 63), (0, 1, 0))),
        (((74, 116, 57, 9), (1, 1)),),
    )),
    # Order 4, degree 8 in r.  The lead is (r+3)(r+4)^3 times
    # (64r^4+480r^3+1313r^2+1545r+659)(P^2+Q^2)
    # + (272r^4+2040r^3+5599r^2+6645r+2882)PQ, which is positive at r >= 0.
    4: ((((126528, 433712, 628812, 504929, 246254, 74872, 13889, 1440, 64), (1, 0, 1)),
         ((553344, 1875296, 2699256, 2157682, 1049417, 318566, 59047, 6120, 272),
          (0, 1, 0))),
        ((((-8122, -40161, -83892, -96539, -66909, -28624, -7393, -1056, -64),
           (1, 0, 0, 0, 0, 0, 1)),
          ((-2388, -11524, -23433, -26206, -17656, -7366, -1867, -264, -16),
           (0, 1, 0, 0, 0, 1, 0)),
          ((82650, 407545, 848760, 973675, 672805, 287080, 74005, 10560, 640),
           (0, 0, 1, 0, 1, 0, 0)),
          ((-144280, -711720, -1482870, -1701860, -1176480, -502180, -129490, -18480,
            -1120),
           (0, 0, 0, 1, 0, 0, 0))),
         (((97530, 398541, 697576, 683406, 410055, 154368, 35620, 4608, 256),
           (1, 0, 0, 0, 0, 1)),
          ((3715050, 14855519, 25547409, 24683694, 14657120, 5477632, 1258240, 162432,
            9024),
           (0, 1, 0, 0, 1, 0)),
          ((17657820, 70139260, 119990115, 115467600, 68359825, 25494080, 5848540, 754560,
            41920),
           (0, 0, 1, 1, 0, 0))),
         (((-294050, -1102551, -1764932, -1578760, -864893, -297672, -62950, -7488, -384),
           (1, 0, 0, 0, 1)),
          ((5232320, 19262286, 30321697, 26729820, 14467663, 4933372, 1036730, 122928,
            6304),
           (0, 1, 0, 1, 0)),
          ((27933060, 101826010, 159367410, 140046540, 75685660, 25793720, 5420040, 642720,
            32960),
           (0, 0, 1, 0, 0))),
         (((331170, 1177883, 1780060, 1496822, 768001, 246800, 48612, 5376, 256),
           (1, 0, 0, 1)),
          ((1782030, 6277327, 9427835, 7896618, 4041874, 1297040, 255288, 28224, 1344),
           (0, 1, 1, 0))))),
    # Order 5, degree 16 in r.  The lead is (r+4)^2 (r+5)^4 g(r, P, Q) with a
    # form g of degree 4 that has negative coefficients: at every r checked,
    # g(r, x, 1) has two positive roots x, near 0.09 and near 11.4.  A zero
    # at some P = p^5, Q = q^5 is not excluded, so ``scaled_row_sums`` takes
    # a D_r whose lead vanishes from the direct sum.
    5: ((((498429680000, 3054735284000, 8605844870200, 14806578630110, 17428572138743,
           14894319187144, 9566795540634, 4714551114613, 1802691624964, 536936809689,
           124237202793, 22108055885, 2967618400, 290620875, 19590625, 812500, 15625),
          (1, 0, 0, 0, 1)),
         ((35592320000, 316305616000, 1008798224800, 1751115849640, 1936581534682,
           1475654123111, 808919557921, 326591742562, 98102141386, 21900050576, 3586695272,
           418813750, 33019500, 1575625, 34375),
          (0, 1, 0, 1, 0)),
         ((-68332892640000, -410518926632000, -1137089202319600, -1928598189702780,
           -2243015224521414, -1897759213553122, -1208895063209017, -591718094543874,
           -225014593493302, -66728613861822, -15387121132089, -2731056544430,
           -365904856325, -35787127000, -2410506250, -99937500, -1921875),
          (0, 0, 1, 0, 0))),
        ((((9390009728, 76446862656, 285092910608, 646537818220, 998255688164,
            1113224358183, 928059624999, 590399057610, 289865836618, 110280286406,
            32428509843, 7298126160, 1233184525, 151345875, 12731250, 656250, 15625),
           (1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
          ((47910987072, 389825648224, 1452653752272, 3291165203500, 5075603837736,
            5652344777257, 4704759427931, 2987795518855, 1464176412767, 555979487879,
            163176328612, 36656527175, 6183821500, 757892500, 63690625, 3281250, 78125),
           (0, 1, 0, 0, 0, 0, 0, 0, 1, 0)),
          ((-1110701679264, -9005959201688, -33445384049004, -75524615414690,
            -116111848809127, -128939580746654, -107056043397187, -67843566662315,
            -33190486860904, -12586923838633, -3690849065199, -828660550405, -139752340700,
            -17126715125, -1439318750, -74156250, -1765625),
           (0, 0, 1, 0, 0, 0, 0, 1, 0, 0)),
          ((-5942561923488, -48193949203896, -179011285458588, -404303255375850,
            -621670027129019, -690433999869378, -573305060226999, -363334998847245,
            -177754928984718, -67409923431291, -19765858631273, -4437550347675,
            -748339668750, -91703694375, -7706325000, -397031250, -9453125),
           (0, 0, 0, 1, 0, 0, 1, 0, 0, 0)),
          ((-12023310552192, -97511293829584, -362204196060312, -818067372993580,
            -1257905911670746, -1397056701657712, -1160054184324536, -735186186116665,
            -359671910289827, -136395817263209, -39992952856127, -8978435736215,
            -1514069212975, -185534372875, -15591128125, -803250000, -19125000),
           (0, 0, 0, 0, 1, 1, 0, 0, 0, 0))),
         (((-194943383520, -1372972405456, -4466789517824, -8913505727684, -12214676796698,
            -12191915852848, -9171511358309, -5305607885868, -2385928013095, -837070260543,
            -228408745865, -47976309650, -7606421500, -880191875, -70125000, -3437500,
            -78125),
           (1, 0, 0, 0, 0, 0, 0, 0, 1)),
          ((26981475175680, 186080742495552, 594150256154528, 1166115221734768,
            1574870985238916, 1552126373621536, 1154922572932383, 661928568927181,
            295357207946515, 102958211936071, 27948680969930, 5846740762775, 924156249000,
            106712035625, 8490421875, 415937500, 9453125),
           (0, 1, 0, 0, 0, 0, 0, 1, 0)),
          ((-62500776600480, -420234847297384, -1314498993459156, -2538589080119166,
            -3386840891587437, -3308856094207402, -2447898399191951, -1398353671697377,
            -623139421812755, -217267198542672, -59055489017610, -12378450252575,
            -1960959982000, -226917385000, -18085515625, -886875000, -20156250),
           (0, 0, 1, 0, 0, 0, 1, 0, 0)),
          ((-3494202819991680, -23927055282487040, -75894061638874760, -148039085202652980,
            -198788097008733850, -194877871092303775, -144296256236239205,
            -82329926744519280, -36586460494826850, -12707159488035390, -3438431607768650,
            -717349976920300, -113135189569250, -13041513586875, -1036438015625,
            -50744375000, -1153281250),
           (0, 0, 0, 1, 0, 1, 0, 0, 0)),
          ((11222279441149440, 76649144775154224, 242608602794635816, 472414374004945116,
            633475878550075722, 620325615212477842, 458919395604165341, 261670030287226242,
            116227221901337780, 40354336330106542, 10917098458013885, 2277312038653150,
            359139166557125, 41398625645000, 3290064531250, 161084687500, 3661015625),
           (0, 0, 0, 0, 1, 0, 0, 0, 0))),
         (((951493558000, 6306079459408, 19292578058984, 36192179534856, 46629250917829,
            43777038780120, 30997927048646, 16895758178544, 7167720603946, 2375624465607,
            613333816955, 122097447250, 18378972625, 2022886875, 153578125, 7187500,
            156250),
           (1, 0, 0, 0, 0, 0, 0, 1)),
          ((204148517690320, 1332617605364816, 4019352045693048, 7441154523927912,
            9471108876112483, 8793714746660060, 6164721873931922, 3330312156715458,
            1401791559650967, 461464700251399, 118459937364585, 23471517038750,
            3520066270375, 386383754375, 29282171875, 1369218750, 29765625),
           (0, 1, 0, 0, 0, 0, 1, 0)),
          ((58167210862320, 458590396090256, 1539900778792528, 3026814480742112,
            3967899868757953, 3717573455364615, 2593091624687542, 1380519851122048,
            569108978494992, 182842499741344, 45750134273435, 8842036550250, 1296612642500,
            139714153125, 10448609375, 485156250, 10546875),
           (0, 0, 1, 0, 0, 1, 0, 0)),
          ((-27596335190588080, -177181851942639696, -526922633107684768,
            -963889125889885872, -1214434068516958333, -1117926795575519165,
            -778058285905549542, -417786010153796683, -174972803664982637,
            -57363691212371339, -14676718275790810, -2900453775440375, -434128616381625,
            -47585706495000, -3603082562500, -168406718750, -3661015625),
           (0, 0, 0, 1, 1, 0, 0, 0))),
         (((-1852390798480, -11844923110976, -34911034607832, -63009797954888,
            -78012308718617, -70310830931476, -47753822448818, -24948744740347,
            -10139329554618, -3218018219398, -795384271605, -151565988575, -21839021625,
            -2301202500, -167296875, -7500000, -156250),
           (1, 0, 0, 0, 0, 0, 1)),
          ((121592019331200, 770209705249104, 2249954469679088, 4026959080437032,
            4946680541128228, 4425701047135989, 2985463607836402, 1550030245925138,
            626387851418652, 197802399254722, 48675156089445, 9240804809850, 1327459284875,
            139552223125, 10129515625, 453750000, 9453125),
           (0, 1, 0, 0, 0, 1, 0)),
          ((265843364630160, 1685515459637424, 4903401989100488, 8712515261744792,
            10606828054676303, 9398782429650334, 6279882170353637, 3231338043146713,
            1295338713916072, 406207790744917, 99384269034620, 18781669755275,
            2688798410125, 281997070625, 20439609375, 915000000, 19062500),
           (0, 0, 1, 0, 1, 0, 0)),
          ((-16736575256779520, -103983918327703552, -298719776737091184,
            -527010172236329496, -639461885358788084, -566171450321663932,
            -378579710639249791, -195118278175860844, -78374119036006696,
            -24627849713949406, -6036756990223485, -1142592623998800, -163766711652125,
            -17189374741250, -1246493312500, -55811250000, -1162734375),
           (0, 0, 0, 1, 0, 0, 0))),
         (((1584880294272, 9890104478368, 28405998026264, 49891164959606, 60028051048065,
            52506802833165, 34566142674116, 17482746504674, 6870362752113, 2106120537617,
            502267893465, 92254780700, 12800904375, 1297782500, 90703125, 3906250, 78125),
           (1, 0, 0, 0, 0, 1)),
          ((1819111359360, 11513428174880, 33083886619640, 57621835857950, 68376165070145,
            58809508775495, 38021964350320, 18887711816395, 7297487147910, 2203012756630,
            518447143950, 94186509575, 12957018750, 1305435625, 90875000, 3906250, 78125),
           (0, 1, 0, 0, 1, 0)),
          ((-218752458371328, -1336186406455232, -3768830612614096, -6519165025326084,
            -7744145262125650, -6702251055271800, -4373709329985704, -2196339131567991,
            -858143534391327, -261859985925928, -62225487149835, -11398448518225,
            -1578492248750, -159816203750, -11160609375, -480468750, -9609375),
           (0, 0, 1, 1, 0, 0))))),
}

# Smallest r_max whose row ``scaled_row_sums`` steps by its recurrence.  Below
# it the row is summed term by term, which is faster there than preparing the
# recurrence's coefficients for the weight (about 0.07 ms at l = 4 and
# 0.15 ms at l = 5).  Time of the recurrence over the direct route, best of
# 5 x 200 calls at each of a = 2/3, 3/2, 3/5, 4/7, 7/4, 1 and 10**6/7
# (2-core x86-64, Python 3.11.7): at l = 4, 1.04-1.22 at r_max = 22,
# 0.65-1.12 at 24, 0.70-0.89 at 28 and 0.07-0.13 at 120; at l = 5,
# 0.66-1.35 at 34, 0.58-1.11 at 40, 0.47-0.95 at 44 and 0.07-0.27 at 120.
# a = 1 is the last weight to gain.
_ROW_RECURRENCE_MIN_R = {4: 28, 5: 44}


def _difference_forms(terms: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[list[int]]:
    """Forward differences at r = 0 of the coefficient sum u(r) * f(P, Q) over the terms.

    Row i lists the coefficients of the form that is the i-th difference, so
    at a weight the coefficient's values at r = 0, 1, 2, ... are repeated
    prefix sums of the rows' values (see ``_column_values``).
    """
    width = len(terms[0][1])
    values = []
    for r in range(max(len(u) for u, _ in terms)):
        row = [0] * width
        for u, form in terms:
            at = sum(c * r**i for i, c in enumerate(u))
            for t, f in enumerate(form):
                row[t] += at * f
        values.append(row)
    diffs = []
    while values:
        diffs.append(values[0])
        values = [[b - a for a, b in zip(x, y)] for x, y in zip(values, values[1:])]
    return diffs


@cache
def _prepared(entry: tuple) -> tuple[list[list[int]], list[list[list[int]]]]:
    """The entry's lead and shifts as ``_difference_forms``, worked out once per entry."""
    lead, shifts = entry
    return _difference_forms(lead), [_difference_forms(terms) for terms in shifts]


def _column_values(diffs: list[list[int]], monomials: list[list[int]]) -> Iterator[int] | None:
    """A coefficient's values at r = 0, 1, 2, ... at one weight, or None where it is 0.

    ``monomials[d]`` lists P**i * Q**(d-i); each row of ``diffs`` is a form
    of one degree, evaluated by one dot product.  The values are repeated
    prefix sums of these differences, one C-level ``accumulate`` per degree
    in r instead of a Horner loop per r.
    """
    firsts = [sum(map(mul, row, monomials[len(row) - 1])) for row in diffs]
    if not any(firsts):
        return None
    column = repeat(0)
    for diff in reversed(firsts):
        column = accumulate(column, initial=diff)
    return column


def _direct_row_sum(l: int, a: Fraction, r: int) -> int:
    """D_r as the r + 1 terms of ``binomial_power_sums``; the caller checks l and a."""
    return deque(_binomial_power_sums(r, l, a, r), maxlen=1).pop()


def _inexact_step(l: int, a: Fraction, r: int) -> ArithmeticError:
    return ArithmeticError(f"row-sum recurrence for l={l}, a={a} is not exact at r={r}")


def scaled_row_sums(l: int, a: Fraction, r_max: int) -> list[int]:
    """Denominators D_r = P(r, r) * a.denominator**(r*l) for r = 0..r_max.

    Independent of m, so sweeps compute this list once per (l, a).  For
    l <= 5 the row comes from the certified recurrence of order J in
    ``_ROW_RECURRENCES`` (see the module docstring): D_0..D_{J-1} are summed
    directly, and every later D_r is the exact quotient of an integer
    right-hand side by the leading coefficient, a form in P, Q at this
    weight, for a few big-integer operations per index.  A step whose
    leading coefficient is 0, which l = 5 does not exclude, takes that D_r
    from the direct sum.  The coefficients are prepared once per table
    entry as forward differences in r of forms in P, Q, so a call evaluates
    them at this weight with one dot product per difference.  When every
    shift but the last vanishes for this a, as for l = 1, and for the
    (Q - P)**2 term of l = 2 at a = 1, each step only scales the last row.
    Two guards against a wrong table
    raise ``ArithmeticError`` naming l, a and the index r: a nonzero
    remainder, and a first stepped value D_J that differs from its direct
    sum of J + 1 terms.  The second catches wrong entries that keep every
    quotient integral, which the small leading coefficients of l = 1 and
    l = 2 allow.  For l >= 6, and for l = 4, 5 below the r_max of
    ``_ROW_RECURRENCE_MIN_R``, every D_r is summed directly, r + 1 terms
    each, so the row costs Theta(r_max**2) big-integer terms.  r_max, l and
    a are checked first, as ``SeqParams`` checks m, l and a.
    """
    a = SeqParams(r_max, l, a).a
    entry = _ROW_RECURRENCES.get(l)
    if entry is None or r_max < _ROW_RECURRENCE_MIN_R.get(l, 0):
        return [_direct_row_sum(l, a, r) for r in range(r_max + 1)]
    lead_diffs, shift_diffs = _prepared(entry)
    order = len(shift_diffs)
    n = max(r_max + 1 - order, 0)  # steps; the recurrence gives D_{r+J} at step r
    big_p, big_q = a.numerator**l, a.denominator**l
    top = len(shift_diffs[0][0]) - 1  # the degree of the forms at shift 0
    p_pows = list(accumulate(repeat(big_p, top), mul, initial=1))
    q_pows = list(accumulate(repeat(big_q, top), mul, initial=1))
    monomials = [[p_pows[i] * q_pows[d - i] for i in range(d + 1)] for d in range(top + 1)]
    # The coefficient of D_{r+j} at steps r = 0, 1, ..., None where it is 0.
    columns = [_column_values(diffs, monomials) for diffs in shift_diffs]
    out = [_direct_row_sum(l, a, r) for r in range(min(order, r_max + 1))]
    leads = islice(_column_values(lead_diffs, monomials) or repeat(0), n)
    if [j for j, values in enumerate(columns) if values is not None] == [order - 1]:
        # Only D_{r+J-1} has a nonzero coefficient (l = 1, and l = 2 at
        # a = 1), so each step scales the last row.  On these rows the
        # general loop below is about 1.3x slower than this one, which
        # stays within about 15 % of the closed forms (p + q)**r and
        # C(2r, r) it replaces.
        # Their leads are positive, so no step needs the zero-lead guard.
        for den, c in zip(leads, columns[-1]):
            row, remainder = divmod(c * out[-1], den)
            if remainder:
                raise _inexact_step(l, a, len(out))
            out.append(row)
    else:
        for r, (den, *coeffs) in enumerate(zip(leads, *(c or repeat(0) for c in columns))):
            if not den:
                out.append(_direct_row_sum(l, a, len(out)))
                continue
            row, remainder = divmod(sum(map(mul, coeffs, out[r:])), den)
            if remainder:
                raise _inexact_step(l, a, len(out))
            out.append(row)
    if n and out[order] != _direct_row_sum(l, a, order):
        raise ArithmeticError(
            f"row-sum recurrence for l={l}, a={a} disagrees with the direct sum at r={order}"
        )
    return out


@dataclass(frozen=True)
class ExactSequence:
    """One fully materialised sequence: scaled integer pairs plus params.

    ``numerators[r] / denominators[r]`` is the exact entry s(r); both carry
    the same power of a's denominator, so the pairs can be compared across r
    by integer cross-multiplication without any reduction.
    """

    params: SeqParams
    numerators: tuple[int, ...]
    denominators: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.params.m + 1
        if len(self.numerators) != n or len(self.denominators) != n:
            raise ValueError(
                f"expected {n} numerators and denominators for m={self.params.m}, "
                f"got {len(self.numerators)} and {len(self.denominators)}"
            )

    def __len__(self) -> int:
        return len(self.numerators)

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """All entries as reduced Fractions (computed once, then cached)."""
        return tuple(
            Fraction(n, d) for n, d in zip(self.numerators, self.denominators)
        )

    def entry(self, r: int) -> Fraction:
        if r < 0 or r >= len(self.numerators):
            raise ValueError(f"r must satisfy 0 <= r <= {len(self.numerators) - 1}")
        return Fraction(self.numerators[r], self.denominators[r])


def sequence_entry(params: SeqParams, r: int) -> Fraction:
    """The single entry s(r) = P(m, r) / P(r, r) for the given parameters."""
    if r < 0 or r > params.m:
        raise ValueError(f"r must satisfy 0 <= r <= m={params.m}, got {r}")
    num = weighted_power_sum(params.m, params.l, params.a, r)
    den = weighted_power_sum(r, params.l, params.a, r)
    return num / den


def full_sequence(params: SeqParams) -> ExactSequence:
    """All entries s(0..m) as an ExactSequence.

    Numerators are built with one new term per index; denominators come
    from ``scaled_row_sums``, by recurrence for l <= 5.
    """
    nums = scaled_prefix_sums(params.m, params.l, params.a)
    dens = scaled_row_sums(params.l, params.a, params.m)
    return ExactSequence(params, tuple(nums), tuple(dens))


def central_binomial_sequence(m: int) -> ExactSequence:
    """The (l=2, a=1) sequence: prefix sums of C(m, i)^2 over C(2r, r)."""
    return full_sequence(SeqParams(m, 2, Fraction(1)))
