"""Exact multivariate polynomials with complex coefficients.

Monomials are keyed by exponent tuples, one slot per variable, so sums,
products, derivatives and linear substitutions happen term by term with
no truncation.  The only rounding is ordinary floating arithmetic on the
coefficients, which keeps operator-identity residuals near 1e-15 and
makes a 1e-12 pass threshold meaningful.

Particle coordinates use three consecutive variables per particle:
variable 3(k-1) + a is coordinate a (0=x, 1=y, 2=z) of particle k.

A polynomial over 2m variables also stands for a normal-ordered
differential operator, an element of the Weyl algebra: the exponents
(alpha, beta) of the first m and the last m variables denote
x^alpha d^beta, every coordinate to the left of every derivative.
``weyl_product`` multiplies two such operators.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import product
from operator import add

import numpy as np

from .linalg import worse

class Polynomial:
    """Immutable-by-convention sparse polynomial over ``nvars`` variables."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = int(nvars)
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        data: dict[tuple[int, ...], complex] = {}
        if coeffs:
            for exps, value in coeffs.items():
                value = complex(value)
                if value == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {self.nvars} variables")
                data[exps] = data.get(exps, 0.0j) + value
        self.coeffs = {k: v for k, v in data.items() if v != 0}

    @classmethod
    def constant(cls, nvars: int, value: complex) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index must be in 0..{nvars - 1}, got {index}")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1.0})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.coeffs), default=-1)

    def max_abs(self) -> float:
        return reduce(worse, (abs(c) for c in self.coeffs.values()), 0.0)

    def max_coeff_diff(self, other: "Polynomial") -> float:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live over different variable counts")
        keys = self.coeffs.keys() | other.coeffs.keys()
        return reduce(
            worse, (abs(self.coeffs.get(k, 0.0j) - other.coeffs.get(k, 0.0j)) for k in keys), 0.0
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("polynomials live over different variable counts")
        data = dict(self.coeffs)
        for exps, value in other.coeffs.items():
            data[exps] = data.get(exps, 0.0j) + value
        out = Polynomial(self.nvars)
        out.coeffs = {k: v for k, v in data.items() if v != 0}
        return out

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        out = Polynomial(self.nvars)
        out.coeffs = {k: -v for k, v in self.coeffs.items()}
        return out

    def __sub__(self, other) -> "Polynomial":
        return self + (-other if isinstance(other, Polynomial) else -complex(other))

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        out = Polynomial(self.nvars)
        if isinstance(other, Polynomial):
            if self.nvars != other.nvars:
                raise ValueError("polynomials live over different variable counts")
            data: dict[tuple[int, ...], complex] = {}
            for ea, ca in self.coeffs.items():
                for eb, cb in other.coeffs.items():
                    key = tuple(x + y for x, y in zip(ea, eb))
                    data[key] = data.get(key, 0.0j) + ca * cb
            out.coeffs = {k: v for k, v in data.items() if v != 0}
            return out
        value = complex(other)
        if value == 0:
            return out
        out.coeffs = {k: v * value for k, v in self.coeffs.items()}
        return out

    __rmul__ = __mul__

    def diff(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to one variable."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index must be in 0..{self.nvars - 1}, got {index}")
        data = {}
        for exps, value in self.coeffs.items():
            e = exps[index]
            if e == 0:
                continue
            new = list(exps)
            new[index] = e - 1
            data[tuple(new)] = value * e
        out = Polynomial(self.nvars)
        out.coeffs = data
        return out

    def evaluate(self, point) -> complex:
        point = np.asarray(point, dtype=complex)
        if point.shape != (self.nvars,):
            raise ValueError(f"expected {self.nvars} coordinates, got shape {point.shape}")
        total = 0.0j
        for exps, value in self.coeffs.items():
            term = value
            for x, e in zip(point, exps):
                if e:
                    term *= x**e
            total += term
        return total

    def substitute_linear(self, forms) -> "Polynomial":
        """Compose with a linear change of variables.

        ``forms`` has shape (nvars, new_nvars): old variable j becomes the
        linear combination sum_i forms[j, i] * w_i of the new variables.
        """
        forms = np.asarray(forms, dtype=complex)
        if forms.ndim != 2 or forms.shape[0] != self.nvars:
            raise ValueError(
                f"substitution matrix must have shape ({self.nvars}, new_nvars), got {forms.shape}"
            )
        new_nvars = forms.shape[1]
        linear = []
        for j in range(self.nvars):
            row = {
                tuple(1 if i == t else 0 for t in range(new_nvars)): forms[j, i]
                for i in range(new_nvars)
                if forms[j, i] != 0
            }
            linear.append(Polynomial(new_nvars, row))
        powers: list[list[Polynomial]] = [[Polynomial.constant(new_nvars, 1.0)] for _ in linear]
        result = Polynomial(new_nvars)
        for exps, value in self.coeffs.items():
            term = Polynomial.constant(new_nvars, value)
            for j, e in enumerate(exps):
                while len(powers[j]) <= e:
                    powers[j].append(powers[j][-1] * linear[j])
                term = term * powers[j][e]
            result = result + term
        return result

    def __repr__(self):
        return f"Polynomial(nvars={self.nvars}, terms={len(self.coeffs)}, degree={self.degree()})"


def weyl_product(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product a b of two normal-ordered operators over 2m variables.

    Variables 0..m-1 are the coordinates x_i and m..2m-1 their
    derivatives d_i.  Each derivative power of ``a`` is moved right past
    the coordinate power of ``b`` on the same variable by the Leibniz rule
    d^s x^t = sum_k C(s, k) t!/(t - k)! x^(t - k) d^(s - k); different
    variables commute.  Coefficients are exact integer multiples of the
    products of the operands' coefficients.
    """
    if a.nvars != b.nvars or a.nvars % 2:
        raise ValueError(f"operators need one even variable count, got {a.nvars} and {b.nvars}")
    m = a.nvars // 2
    data: dict[tuple[int, ...], complex] = {}
    for ea, ca in a.coeffs.items():
        derivatives = [i for i in range(m) if ea[m + i]]
        for eb, cb in b.coeffs.items():
            base = tuple(map(add, ea, eb))
            crossing = [i for i in derivatives if eb[i]]
            if not crossing:  # nothing to move past: the plain product term
                data[base] = data.get(base, 0.0j) + ca * cb
                continue
            for ks in product(*(range(min(ea[m + i], eb[i]) + 1) for i in crossing)):
                exps, value = list(base), ca * cb
                for i, k in zip(crossing, ks):
                    exps[i] -= k
                    exps[m + i] -= k
                    value *= math.comb(ea[m + i], k) * math.perm(eb[i], k)
                key = tuple(exps)
                data[key] = data.get(key, 0.0j) + value
    out = Polynomial(a.nvars)
    out.coeffs = {k: v for k, v in data.items() if v != 0}
    return out
