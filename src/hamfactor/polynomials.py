"""Exact multivariate polynomials with complex coefficients.

Monomials are keyed by exponent tuples, one slot per variable, so sums,
products, derivatives and linear substitutions happen term by term with
no truncation.  The only rounding is ordinary floating arithmetic on the
coefficients, which keeps operator-identity residuals near 1e-15 and
makes a 1e-12 pass threshold meaningful.

Particle coordinates use three consecutive variables per particle:
variable 3(k-1) + a is coordinate a (0=x, 1=y, 2=z) of particle k.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .linalg import worse

DEFAULT_MAX_DEGREE = 6


class DegreeOverflowError(ValueError):
    """Polynomial degree grew past the configured cap."""


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
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

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


class PolySpinor:
    """Spinor with 2^N polynomial components over the 3N coordinates."""

    __slots__ = ("nparticles", "components", "max_degree")

    def __init__(self, nparticles: int, components, max_degree: int = DEFAULT_MAX_DEGREE):
        self.nparticles = int(nparticles)
        if self.nparticles < 1:
            raise ValueError("need at least one particle")
        components = tuple(components)
        if len(components) != 2**self.nparticles:
            raise ValueError(
                f"expected {2**self.nparticles} components, got {len(components)}"
            )
        nvars = 3 * self.nparticles
        for c in components:
            if not isinstance(c, Polynomial) or c.nvars != nvars:
                raise ValueError(f"components must be polynomials over {nvars} variables")
        self.max_degree = int(max_degree)
        worst = max(c.degree() for c in components)
        if worst > self.max_degree:
            raise DegreeOverflowError(
                f"component degree {worst} exceeds the configured cap {self.max_degree}"
            )
        self.components = components

    @classmethod
    def constant(cls, nparticles: int, values, max_degree: int = DEFAULT_MAX_DEGREE) -> "PolySpinor":
        nvars = 3 * nparticles
        comps = [Polynomial.constant(nvars, v) for v in values]
        return cls(nparticles, comps, max_degree)

    def map(self, fn) -> "PolySpinor":
        """Apply ``fn`` to every component, revalidating the degree cap."""
        return PolySpinor(self.nparticles, [fn(c) for c in self.components], self.max_degree)

    def __add__(self, other: "PolySpinor") -> "PolySpinor":
        self._check_compatible(other)
        comps = [a + b for a, b in zip(self.components, other.components)]
        return PolySpinor(self.nparticles, comps, self.max_degree)

    def __sub__(self, other: "PolySpinor") -> "PolySpinor":
        self._check_compatible(other)
        comps = [a - b for a, b in zip(self.components, other.components)]
        return PolySpinor(self.nparticles, comps, self.max_degree)

    def __mul__(self, scalar) -> "PolySpinor":
        scalar = complex(scalar)
        return self.map(lambda c: c * scalar)

    __rmul__ = __mul__

    def _check_compatible(self, other: "PolySpinor"):
        if not isinstance(other, PolySpinor) or other.nparticles != self.nparticles:
            raise ValueError("spinors must share the particle count")

    def max_coeff_diff(self, other: "PolySpinor") -> float:
        self._check_compatible(other)
        return reduce(
            worse, (a.max_coeff_diff(b) for a, b in zip(self.components, other.components)), 0.0
        )

    def max_abs(self) -> float:
        return max(c.max_abs() for c in self.components)

    def __repr__(self):
        return f"PolySpinor(nparticles={self.nparticles}, max_degree={self.max_degree})"


def random_polynomial(
    rng: np.random.Generator,
    nvars: int,
    max_degree: int,
    max_terms: int = 12,
) -> Polynomial:
    """Sparse random polynomial: up to ``max_terms`` monomials of total degree <= ``max_degree``."""
    data: dict[tuple[int, ...], complex] = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        degree = int(rng.integers(0, max_degree + 1))
        exps = [0] * nvars
        for _ in range(degree):
            exps[int(rng.integers(0, nvars))] += 1
        key = tuple(exps)
        data[key] = data.get(key, 0.0j) + complex(rng.normal(), rng.normal())
    return Polynomial(nvars, data)
