#!/usr/bin/env python3
"""Guess and certify a row-sum recurrence of ``exact_core._ROW_RECURRENCES``.

    python scripts/row_recurrence.py L

The row sums S_n(x) = sum_k C(n, k)**l x**k satisfy a linear recurrence

    sum_{j=0}^{J} c_j(r, x) S_{r+j}(x) = 0,

with c_j polynomial in r and x.  This tool finds the one of order J = l and
least degree in r, and its creative-telescoping certificate
R(r, k, x) = M(r, k, x) / d(r) (the form and the proof are in the
``exact_core`` module docstring).  Standard library only; every step works
modulo primes just below 2**61 and lifts at the end:

1. Guess.  At each sample x the coefficient polynomials c_j(r) span the
   one-dimensional nullspace of a matrix of values r**i S_{r+j}(x).  Scaled
   so that one coefficient is 1, each coefficient is a rational function
   of x; rational reconstruction in x (extended Euclid on the interpolant)
   gives their common denominator and hence the c_j as polynomials in x.
2. Lift.  Chinese remaindering over more primes, and rational
   reconstruction of each coefficient, until one more prime changes
   nothing; denominators are then cleared to a primitive integer vector.
3. Certify.  At each sample (r, x) the telescoping identity is a linear
   system for the polynomial R(r, ., x) in k, of degree l (J - 1).  Its
   solutions are interpolated in x and reconstructed as rational functions
   of r with one common denominator d(r), then lifted as in step 2.

Both results are checked exactly before they are printed: the recurrence
on integer row sums at several weights, the certificate as the identity at
random rational points.  The output is the table entry, in the format of
``_ROW_RECURRENCES`` (forms in P = p**l, Q = q**l), and the certificate
``(d, rows)`` in the format of ``tests/test_row_recurrences.py``.  Orders
and degrees are found, not given.  On a 2-core x86-64 host with Python
3.11, l = 1..3 take under a second, l = 4 about 3 s and l = 5 about 30 s.
"""

from __future__ import annotations

import argparse
import math
import random
from fractions import Fraction
from functools import reduce

# ---------------------------------------------------------------- primes


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        y = pow(b, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def primes():
    """Primes just below 2**61, largest first."""
    n = 2**61 - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


# ---------------------------------------------------------- linear algebra


def _rref(rows, ncols, p):
    """Reduced row echelon form mod p: (nonzero rows, pivot columns)."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        at = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        prow = rows[rank] = [v * inv % p for v in rows[rank]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != rank:
                rows[i] = [(v - f * w) % p for v, w in zip(row, prow)]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def nullspace(rows, ncols, p):
    """A basis of {v : rows . v = 0} mod p."""
    reduced, pivots = _rref(rows, ncols, p)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[free] = 1
        for row, c in zip(reduced, pivots):
            v[c] = -row[free] % p
        basis.append(v)
    return basis


def solve(columns, rhs, p):
    """The unique v with sum_i v_i columns[i] = rhs mod p, or None."""
    rows = [list(entries) + [-b % p] for *entries, b in zip(*columns, rhs)]
    basis = nullspace(rows, len(columns) + 1, p)
    if len(basis) != 1 or not basis[0][-1]:
        return None
    inv = pow(basis[0][-1], -1, p)
    return [v * inv % p for v in basis[0][:-1]]


# ----------------------------------------------- polynomials mod p (low first)


def trim(a):
    while a and not a[-1]:
        a = a[:-1]
    return a


def padd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    return trim([(x + (b[i] if i < len(b) else 0)) % p for i, x in enumerate(a)])


def pscale(a, c, p):
    return trim([x * c % p for x in a])


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [v % p for v in out]


def pdivmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        q[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return trim(q), trim(a[: len(b) - 1])


def peval(a, x, p):
    value = 0
    for c in reversed(a):
        value = (value * x + c) % p
    return value


def interpolate(xs, ys, p):
    """The polynomial of degree < len(xs) through the points, mod p."""
    out, basis = [], [1]  # Newton form: basis = prod (x - xs[i]) so far
    for x, y in zip(xs, ys):
        c = (y - peval(out, x, p)) * pow(peval(basis, x, p), -1, p) % p
        out = padd(out, pscale(basis, c, p), p)
        basis = pmul(basis, [-x % p, 1], p)
    return out


def _rational_function(xs, ys, check, p):
    """n / d through the points (xs, ys) and the held-out points ``check``,
    with d monic and deg n + deg d < len(xs), or None."""
    modulus = reduce(lambda acc, x: pmul(acc, [-x % p, 1], p), xs, [1])
    r0, r1 = modulus, interpolate(xs, ys, p)
    t0, t1 = [], [1]
    while r1:
        if len(r1) + len(t1) - 2 < len(xs):
            inv = pow(t1[-1], -1, p)
            num, den = pscale(r1, inv, p), pscale(t1, inv, p)
            if all(
                peval(den, x, p) and peval(num, x, p) == y * peval(den, x, p) % p
                for x, y in check
            ):
                return num, den
        q, rem = pdivmod(r0, r1, p)
        r0, r1 = r1, rem
        t0, t1 = t1, padd(t0, pscale(pmul(q, t1, p), p - 1, p), p)
    return None


HELD_OUT = 4


def rational_vector(xs, vectors, p, rng, polynomial=False):
    """Common monic denominator d and numerators n_c (polynomials mod p) with
    vectors[i][c] = n_c(xs[i]) / d(xs[i]); None if the points do not suffice.

    The denominator is that of a random combination of the components, which
    is their least common denominator unless the combination is unlucky.
    With ``polynomial`` the denominator must be 1."""
    fit, held = xs[:-HELD_OUT], xs[-HELD_OUT:]
    width = len(vectors[0])
    if polynomial:
        den = [1]
    else:
        lam = [rng.randrange(p) for _ in range(width)]
        combo = [sum(a * v for a, v in zip(lam, vec)) % p for vec in vectors]
        found = _rational_function(
            fit, combo[: len(fit)], list(zip(held, combo[len(fit) :])), p
        )
        if found is None:
            return None
        den = found[1]
    scale = [peval(den, x, p) for x in xs]
    nums = []
    for c in range(width):
        ys = [s * vec[c] % p for s, vec in zip(scale, vectors)]
        num = interpolate(fit, ys[: len(fit)], p)
        if any(peval(num, x, p) != y for x, y in zip(held, ys[len(fit) :])):
            return None
        nums.append(num)
    return den, nums


# ------------------------------------------------------------------ lifting


def _rational(value, modulus):
    """n / d = value mod modulus with |n|, d below sqrt(modulus / 2), or None."""
    bound = math.isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, value % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def lift(solve_mod):
    """The rational vector whose residues ``solve_mod(p)`` returns, one prime
    after another until an added prime changes nothing."""
    residues, modulus, last = None, 1, None
    for p in primes():
        vec = solve_mod(p)
        if residues is None:
            residues = vec
        else:
            if len(vec) != len(residues):
                raise ArithmeticError("the shape of the solution depends on the prime")
            # Chinese remaindering, one coefficient at a time.
            inv = pow(modulus, -1, p)
            residues = [
                r + modulus * ((v - r) * inv % p) for r, v in zip(residues, vec)
            ]
        modulus *= p
        values = [_rational(r, modulus) for r in residues]
        if None not in values and values == last:
            return values
        last = values if None not in values else None


def integer_vector(values):
    """The primitive integer vector on the line of a rational vector."""
    scale = math.lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = math.gcd(*ints)
    return [v // g for v in ints]


# -------------------------------------------------------------------- guess


def _row_sums(l, x, n_max, p):
    """S_n(x) mod p for n = 0..n_max."""
    out, row = [], [1]
    for n in range(n_max + 1):
        out.append(sum(pow(c, l, p) * pow(x, k, p) for k, c in enumerate(row)) % p)
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return out


def _recurrence_at(l, degree, x, p):
    """Nullspace of the recurrences of order l and this degree in r at x, mod p."""
    unknowns = (l + 1) * (degree + 1)
    rows_needed = unknowns + 8
    sums = _row_sums(l, x, rows_needed + l, p)
    rows = [
        [pow(r, i, p) * sums[r + j] % p for j in range(l + 1) for i in range(degree + 1)]
        for r in range(rows_needed)
    ]
    return nullspace(rows, unknowns, p)


def least_degree(l):
    """The least degree in r of a recurrence of order l."""
    p = next(primes())
    x = random.Random(l).randrange(2, p)
    for degree in range(64):
        basis = _recurrence_at(l, degree, x, p)
        assert len(basis) <= 1, f"order {l} is not the least order for l={l}"
        if basis:
            return degree
    raise ArithmeticError(f"no recurrence of order {l} and degree < 64 for l={l}")


def guess(l):
    """(degree, c) with c[j][i] the polynomial in x (integer coefficients,
    constant term first) multiplying r**i S_{r+j}; the order is l."""
    order = l
    degree = least_degree(l)
    width = (order + 1) * (degree + 1)

    def solve_mod(p):
        rng = random.Random(p)
        xs, vectors = [], []
        for count in range(16, 200, 8):
            while len(xs) < count:
                xs.append(rng.randrange(2, p))
                (v,) = _recurrence_at(l, degree, xs[-1], p)
                vectors.append(v)
            # Scale by one coefficient that is not identically zero.
            anchor = next(c for c in range(width) if vectors[0][c])
            scaled = [[w * pow(v[anchor], -1, p) % p for w in v] for v in vectors]
            found = rational_vector(xs, scaled, p, rng)
            if found is not None:
                _, nums = found
                return _flatten(nums)
        raise ArithmeticError(f"no reconstruction in x for l={l}")

    shaped = _integer_polys(lift(solve_mod), width)
    c = [[trim(shaped[j * (degree + 1) + i]) for i in range(degree + 1)] for j in range(order + 1)]
    # Sign: the top coefficient in r of the leading coefficient has a
    # positive top coefficient in x.
    if next(u for u in reversed(c[order]) if u)[-1] < 0:
        c = [[[-v for v in u] for u in col] for col in c]
    _check_recurrence(l, c)
    return degree, c


def _flatten(polys):
    """Polynomials of varying length as one vector, each prefixed by its length."""
    out = []
    for poly in polys:
        out.append(len(poly))
        out.extend(poly)
    return out


def _integer_polys(vector, count):
    """Undo ``_flatten`` on a lifted vector and scale all its polynomials by one
    factor to a primitive integer vector."""
    polys, at = [], 0
    for _ in range(count):
        n = int(vector[at])
        polys.append(vector[at + 1 : at + 1 + n])
        at += 1 + n
    ints = iter(integer_vector([v for poly in polys for v in poly]))
    return [[next(ints) for _ in poly] for poly in polys]


def poly_value(coeffs, r):
    value = 0
    for c in reversed(coeffs):
        value = value * r + c
    return value


def coefficient(col, r, x):
    """c_j(r, x) for one column [poly in x per power of r]."""
    return sum(poly_value(u, x) * r**i for i, u in enumerate(col))


def _check_recurrence(l, c):
    order = len(c) - 1
    for x in (Fraction(2), Fraction(1, 17), Fraction(13, 5)):
        sums = [sum(math.comb(n, k) ** l * x**k for k in range(n + 1)) for n in range(order + 24)]
        for r in range(24):
            if sum(coefficient(col, r, x) * sums[r + j] for j, col in enumerate(c)):
                raise ArithmeticError(f"guessed recurrence fails at l={l}, x={x}, r={r}")


# ----------------------------------------------------------------- certify


def _ff_poly_in_k(top, count, p):
    """ff(top - k, count) = prod_{i<count} (top - i - k), as a polynomial in k."""
    return reduce(lambda acc, i: pmul(acc, [(top - i) % p, p - 1], p), range(count), [1])


def _ppow(a, n, p):
    return reduce(lambda acc, _: pmul(acc, a, p), range(n), [1])


def _certificate_at(l, c, r, xs, p):
    """R(r, k, x) mod p at one r, as rows[i] = values over xs of the k**i coefficient."""
    order = len(c) - 1
    k_degree = l * (order - 1)
    width = k_degree + l + 1
    # L[R](k) = x (r+J-k)**l R(k+1) - k**l R(k); the columns are the images
    # of k**i, split as x * shifted[i] - plain[i].
    lin = _ppow([(r + order) % p, p - 1], l, p)
    shifted, plain = [], []
    for i in range(k_degree + 1):
        binom = [math.comb(i, s) % p for s in range(i + 1)]  # (k + 1)**i
        shifted.append(pmul(lin, binom, p))
        plain.append([0] * (i + l) + [1])
    def pad(a):
        return a + [0] * (width - len(a))

    shifted, plain = [pad(a) for a in shifted], [pad(a) for a in plain]
    # RHS = (r+J)**l / ff(r+J, J)**l * sum_j c_j ff(r+J-k, J-j)**l ff(r+j, j)**l.
    scale = pow(r + order, l, p) * pow(pow(math.perm(r + order, order), l, p), -1, p) % p
    parts = [
        pscale(
            _ppow(_ff_poly_in_k(r + order, order - j, p), l, p),
            scale * pow(math.perm(r + j, j), l, p) % p,
            p,
        )
        for j in range(order + 1)
    ]
    out = []
    for x in xs:
        cols = [[(x * a - b) % p for a, b in zip(s, t)] for s, t in zip(shifted, plain)]
        rhs = []
        for j, col in enumerate(c):
            cj = sum(peval(u, x, p) * pow(r, i, p) for i, u in enumerate(col)) % p
            rhs = padd(rhs, pscale(parts[j], cj, p), p)
        sol = solve(cols, pad(rhs), p)
        if sol is None:
            raise ArithmeticError(f"no certificate of degree {k_degree} in k at l={l}")
        out.append(sol)
    return [[sol[i] for sol in out] for i in range(k_degree + 1)]


def certify(l, c):
    """(d, rows) with R(r, k, x) = sum_{i, e} rows[i][e](r) k**i x**e / d(r)."""
    order = len(c) - 1
    k_degree = l * (order - 1)
    # Powers of x tried; R has degree 0, 1, 2, 5 and 8 in x at l = 1..5, and a
    # higher degree fails the held-out check below.
    x_width = 2 * (order + 2)

    def solve_mod(p):
        rng = random.Random(p + 1)
        xs = [rng.randrange(2, p) for _ in range(x_width + HELD_OUT)]
        samples = []  # (r, flattened coefficients of R(r, ., .) in k and x)
        for count in range(24, 400, 16):
            while len(samples) < count:
                r = rng.randrange(p)
                values = _certificate_at(l, c, r, xs, p)
                row = []
                for per_x in values:
                    found = rational_vector(xs, [[v] for v in per_x], p, rng, polynomial=True)
                    if found is None:
                        raise ArithmeticError(f"certificate not polynomial in x at l={l}")
                    poly = found[1][0]
                    row.extend(poly + [0] * (x_width - len(poly)))
                samples.append((r, row))
            found = rational_vector([r for r, _ in samples], [v for _, v in samples], p, rng)
            if found is not None:
                den, nums = found
                return _flatten([den] + nums)
        raise ArithmeticError(f"no reconstruction in r for l={l}")

    d, *nums = _integer_polys(lift(solve_mod), 1 + (k_degree + 1) * x_width)
    if d[-1] < 0:
        d, nums = [-v for v in d], [[-v for v in u] for u in nums]
    rows = [nums[i * x_width : (i + 1) * x_width] for i in range(k_degree + 1)]
    x_degree = max((e for row in rows for e, u in enumerate(row) if any(u)), default=0)
    rows = [[tuple(trim(u) or [0]) for u in row[: x_degree + 1]] for row in rows]
    _check_certificate(l, c, d, rows)
    return tuple(d), tuple(tuple(row) for row in rows)


def _check_certificate(l, c, d, rows):
    """The telescoping identity at random rational points, exactly."""
    order = len(c) - 1
    rng = random.Random(0)

    def R(r, k, x):
        return Fraction(
            sum(poly_value(u, r) * k**i * x**e for i, row in enumerate(rows) for e, u in enumerate(row)),
            poly_value(d, r),
        )

    for _ in range(6):
        r, k, x = (Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**3)) for _ in range(3))
        # Both sides divided by C(r+J, k)**l x**k, as in the module docstring.
        lhs = x * R(r, k + 1, x) * ((r + order - k) / (r + order)) ** l - R(r, k, x) * (
            k / (r + order)
        ) ** l
        rhs = sum(
            coefficient(col, r, x)
            * math.prod((r + order - k - i) / (r + order - i) for i in range(order - j)) ** l
            for j, col in enumerate(c)
        )
        if lhs != rhs:
            raise ArithmeticError(f"certificate fails at l={l}, (r, k, x) = {(r, k, x)}")


# ------------------------------------------------------------------- output


def table_entry(c):
    """(lead, shifts) in the format of ``_ROW_RECURRENCES``: each coefficient as
    (polynomial in r, form in P, Q) terms, a monomial and its mirror image in
    one term when their polynomials agree up to sign."""
    order = len(c) - 1
    extra = max(len(u) - 1 - (order - j) for j, col in enumerate(c) for u in col if u)

    def terms(col, degree, sign):
        by_power = [trim([sign * (u[t] if t < len(u) else 0) for u in col]) for t in range(degree + 1)]
        out = []
        for t in range(degree // 2 + 1):
            mirror = degree - t
            u, v = by_power[t], by_power[mirror]
            if t != mirror and u and v in (u, [-w for w in u]):
                form = [0] * (degree + 1)
                form[t], form[mirror] = 1, 1 if v == u else -1
                out.append((tuple(u), tuple(form)))
                continue
            for power in sorted({t, mirror}):
                poly = by_power[power]
                if poly:
                    form = [0] * (degree + 1)
                    form[power] = 1
                    out.append((tuple(poly), tuple(form)))
        return tuple(out)

    lead = terms(c[order], extra, 1)
    shifts = tuple(terms(c[j], order - j + extra, -1) for j in range(order))
    return lead, shifts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("l", type=int)
    args = parser.parse_args(argv)
    degree, c = guess(args.l)
    print(f"# l = {args.l}: order {args.l}, degree {degree} in r")
    print("entry =", table_entry(c))
    print("certificate =", certify(args.l, c))


if __name__ == "__main__":
    main()
