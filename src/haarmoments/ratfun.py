"""Exact arithmetic for the symbolic results: integer polynomials in the
matrix dimension and reduced ratios of them.

Every symbolic value in this package is a ratio of two integer-coefficient
polynomials in a single symbol ``n`` (the matrix dimension), held in a unique
reduced form: the polynomial gcd is cancelled, the numerator and denominator
share no integer content, and the denominator's leading coefficient is
positive.  A ratio also carries ``validity_min_n``, the smallest integer n at
which the expression is asserted to equal the quantity it stands for —
denominators arising from group sums vanish at small n, so evaluation below
the floor is refused rather than silently wrong.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class Poly:
    """Dense integer-coefficient polynomial; ``coeffs[k]`` multiplies n**k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls((c,))

    @classmethod
    def n_plus(cls, k: int) -> "Poly":
        """The monic linear factor n + k."""
        return cls((k, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "Poly":
        g = self.content()
        if g in (0, 1):
            return self
        return Poly(c // g for c in self.coeffs)

    @staticmethod
    def _as_poly(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly((other,))
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = Poly._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other) -> "Poly":
        other = Poly._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = Poly._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = Poly._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, k: int) -> "Poly":
        return Poly(k * c for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, n: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact polynomial division; raises if ``other`` does not divide."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.lead
        ddeg = other.degree
        out = [0] * max(len(rem) - ddeg, 0)
        for k in range(len(rem) - 1, ddeg - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q, r = divmod(c, dlead)
            if r:
                raise ValueError("inexact polynomial division")
            out[k - ddeg] = q
            for j, b in enumerate(other.coeffs):
                rem[k - ddeg + j] -= q * b
        if any(rem[:ddeg]):
            raise ValueError("inexact polynomial division")
        return Poly(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "n" if mag == 1 else f"{mag}n"
            else:
                term = f"n^{k}" if mag == 1 else f"{mag}n^{k}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append((" - " if c < 0 else " + ") + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """Remainder of a by b after scaling a to keep coefficients integral."""
    r = a
    while not r.is_zero() and r.degree >= b.degree:
        shift = r.degree - b.degree
        lead_r, lead_b = r.lead, b.lead
        g = gcd(lead_r, lead_b)
        r = r.scale(lead_b // g) - (b * Poly([0] * shift + [lead_r // g]))
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero():
        a, b = b, _pseudo_rem(a, b).primitive()
    if a.is_zero():
        return Poly((1,))
    return a if a.lead > 0 else -a


class RationalFunction:
    """Reduced ratio of integer polynomials in the matrix dimension."""

    __slots__ = ("num", "den", "validity_min_n")

    def __init__(self, num: Poly, den: Poly, validity_min_n: int = 0):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Poly(()), Poly((1,))
        else:
            g = poly_gcd(num, den)
            if g.degree > 0 or g.lead != 1:
                num = num.exact_div(g)
                den = den.exact_div(g)
            k = gcd(num.content(), den.content())
            if k > 1:
                num = Poly(c // k for c in num.coeffs)
                den = Poly(c // k for c in den.coeffs)
            if den.lead < 0:
                num, den = -num, -den
        self.num = num
        self.den = den
        self.validity_min_n = validity_min_n

    @classmethod
    def from_fraction(cls, q: Scalar, validity_min_n: int = 0) -> "RationalFunction":
        q = Fraction(q)
        return cls(Poly.const(q.numerator), Poly.const(q.denominator), validity_min_n)

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Poly(()), Poly((1,)))

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(Poly((1,)), Poly((1,)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def with_validity(self, v: int) -> "RationalFunction":
        return RationalFunction(self.num, self.den, v)

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_fraction(other)
        if isinstance(other, Poly):
            return RationalFunction(other, Poly((1,)))
        return NotImplemented

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = max(self.validity_min_n, o.validity_min_n)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den, v)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, self.validity_min_n)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = max(self.validity_min_n, o.validity_min_n)
        return RationalFunction(self.num * o.num, self.den * o.den, v)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        v = max(self.validity_min_n, o.validity_min_n)
        return RationalFunction(self.num * o.den, self.den * o.num, v)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            raise ValueError("negative powers not supported")
        out = RationalFunction.one()
        for _ in range(k):
            out = out * self
        return out.with_validity(self.validity_min_n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_fraction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def eval_at(self, n: int) -> Fraction:
        """Exact value at integer n; refused below the validity floor."""
        if n < self.validity_min_n:
            raise ValueError(
                f"outside validity domain: n={n} < validity_min_n="
                f"{self.validity_min_n}"
            )
        dv = self.den(n)
        if dv == 0:
            raise ZeroDivisionError(f"denominator vanishes at n={n}")
        return Fraction(self.num(n), dv)

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self}, validity_min_n={self.validity_min_n})"
