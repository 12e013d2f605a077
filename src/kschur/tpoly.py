"""Exact integer Laurent polynomials in a single variable t.

Coefficient arithmetic for the graded bases: everything downstream
(Kostka-Foulkes polynomials, weak Kostka-Foulkes polynomials, basis
changes) lives over ZZ[t, t^-1].  Negative exponents are
needed because the deformation of Macdonald's P-function divides by a
power of t; `coeff_list` serves the plain polynomials, and the CLI
prints the genuinely Laurent ones with their valuation.

Unitriangular matrices over this ring have unit diagonal (+-t^k), so
they invert exactly with no fractions, one sparse column at a time
(`symfun._inverse_column`).  A constant equals, and hashes as, its int.
"""

from __future__ import annotations


class TPoly:
    """An integer Laurent polynomial in t, stored as {exponent: coeff}."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.c = {e: v for e, v in coeffs.items() if v != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "TPoly":
        return TPoly()

    @staticmethod
    def one() -> "TPoly":
        return TPoly({0: 1})

    @staticmethod
    def t(exp: int = 1, coeff: int = 1) -> "TPoly":
        """The monomial coeff * t^exp."""
        return TPoly({exp: coeff})

    @staticmethod
    def const(v: int) -> "TPoly":
        return TPoly({0: v})

    # -- structure ----------------------------------------------------

    def is_polynomial(self) -> bool:
        return all(e >= 0 for e in self.c)

    def is_unit(self) -> bool:
        """True for +-t^k, the units of ZZ[t, t^-1]."""
        return len(self.c) == 1 and abs(next(iter(self.c.values()))) == 1

    def valuation(self) -> int:
        if not self.c:
            return 0
        return min(self.c)

    def degree(self) -> int:
        if not self.c:
            return 0
        return max(self.c)

    def coeff(self, exp: int) -> int:
        return self.c.get(exp, 0)

    def coeff_list(self):
        """Ascending coefficients from t^0; raises if not a polynomial."""
        if not self.c:
            return []
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial in t: {self}")
        d = self.degree()
        return [self.c.get(e, 0) for e in range(d + 1)]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "TPoly") -> "TPoly":
        c = dict(self.c)
        for e, v in other.c.items():
            c[e] = c.get(e, 0) + v
        return TPoly(c)

    def __sub__(self, other: "TPoly") -> "TPoly":
        c = dict(self.c)
        for e, v in other.c.items():
            c[e] = c.get(e, 0) - v
        return TPoly(c)

    def __neg__(self) -> "TPoly":
        return TPoly({e: -v for e, v in self.c.items()})

    def __mul__(self, other) -> "TPoly":
        if isinstance(other, int):
            return TPoly({e: v * other for e, v in self.c.items()})
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return TPoly(c)

    __rmul__ = __mul__

    def divide_unit(self, unit: "TPoly") -> "TPoly":
        """Exact division by +-t^k."""
        if not unit.is_unit():
            raise ValueError(f"{unit} is not a unit of ZZ[t, t^-1]")
        (e, v), = unit.c.items()
        return TPoly({e1 - e: v1 * v for e1, v1 in self.c.items()})

    def __call__(self, value: int) -> int:
        """Evaluate at an integer; negative exponents need value = +-1."""
        total = 0
        for e, v in self.c.items():
            if e < 0 and abs(value) != 1:
                raise ValueError("negative t-exponent at non-unit value")
            total += v * value**e if e >= 0 else v * value**(-e)
        return total

    # -- comparisons / display ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        return isinstance(other, TPoly) and self.c == other.c

    def __hash__(self):
        if self.c.keys() <= {0}:
            return hash(self.c.get(0, 0))
        return hash(frozenset(self.c.items()))

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                parts.append(f"{v}")
            else:
                head = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                parts.append(f"{head}t^{e}" if e != 1 else f"{head}t")
        return " + ".join(parts).replace("+ -", "- ")

