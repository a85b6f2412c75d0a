"""Term-map kernel.

A polynomial is represented by its term map: dict mapping exponent tuples
to nonzero rational coefficients, each an int when it is integral and a
Fraction with denominator > 1 otherwise.  Every function here returns a
term map that keeps this invariant, so on integral input the loops run in
ints.  These functions are the hot inner loops of Groebner reduction and
of the coefficient arithmetic of Clifford products.
"""

from fractions import Fraction
from operator import add


def _normalized(terms):
    # a sum or product of Fractions can be integral: store it as an int
    if Fraction in map(type, terms.values()):
        for m, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[m] = c.numerator
    return terms


def add_terms(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return _normalized(out)


def sub_terms(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = -c
        else:
            s = s - c
            if s:
                out[m] = s
            else:
                del out[m]
    return _normalized(out)


def neg_terms(a):
    return {m: -c for m, c in a.items()}


def scale_terms(a, k):
    if not k:
        return {}
    return _normalized({m: c * k for m, c in a.items()})


def shift_terms(a, mono, k):
    # a * (k * x^mono); exponent vectors share one arity
    if not k:
        return {}
    return _normalized({tuple(map(add, m, mono)): c * k for m, c in a.items()})


def mul_terms(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            p = c1 * c2
            s = out.get(m)
            if s is None:
                out[m] = p
            else:
                s = s + p
                if s:
                    out[m] = s
                else:
                    del out[m]
    return _normalized(out)


def _grevlex_gt(m1, m2):
    d1 = sum(m1)
    d2 = sum(m2)
    if d1 != d2:
        return d1 > d2
    # graded reverse lex: last nonzero entry of m1-m2 is negative
    for x, y in zip(reversed(m1), reversed(m2)):
        if x != y:
            return x < y
    return False


def leading_monomial(terms):
    """Largest monomial of a nonzero term map in grevlex, the one monomial
    order of quadrikit (`polyalg._grevlex_key` sorts by the same order)."""
    best = None
    for m in terms:
        if best is None or _grevlex_gt(m, best):
            best = m
    return best
