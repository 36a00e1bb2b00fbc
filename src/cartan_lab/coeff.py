"""Exact coefficient rings: Q, prime fields F_p, and Z/mZ.

Values are canonical: reduced Fraction for Q, residues in [0, m) otherwise.
Structural equality equals mathematical equality, so values can be hashed and
used in span computations directly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from cartan_lab.errors import InputError

RATIONALS = "rationals"
PRIME_FIELD = "prime_field"
INT_MOD_M = "int_mod_m"

# Only the convolutions (with exactlin.matmul_mod_p) and the batched
# elimination still hold F_p residues in numpy int64; the scalar elimination
# kernel works on Python ints.  The batched elimination's widest intermediate
# is x - c*y with x, c, y in [0, p), at most (p-1)^2 + (p-1) in magnitude;
# the convolutions reduce mod p after every product, so a per-arrow sum adds
# at most dim residues, which stays below 2^63 for any dim that fits in
# memory.  This is the largest p with (p-1)^2 + (p-1) <= 2^63 - 1.
MAX_PRIME_MODULUS = (1 + math.isqrt(4 * (2**63 - 1) + 1)) // 2


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class Ring:
    """A commutative coefficient ring with exact arithmetic."""

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.modulus is not None:
                raise InputError("rationals take no modulus")
        elif self.kind == PRIME_FIELD:
            if self.modulus is not None and self.modulus > MAX_PRIME_MODULUS:
                raise InputError(f"prime field modulus {self.modulus} exceeds "
                                 f"{MAX_PRIME_MODULUS}, the int64 backend's bound")
            if self.modulus is None or not _is_prime(self.modulus):
                raise InputError(f"prime field needs a prime modulus, got {self.modulus}")
        elif self.kind == INT_MOD_M:
            if self.modulus is None or self.modulus < 2:
                raise InputError(f"Z/m needs modulus >= 2, got {self.modulus}")
        else:
            raise InputError(f"unknown ring kind {self.kind!r}")

    # -- structure queries ---------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind != RATIONALS

    @property
    def is_field(self) -> bool:
        return self.kind in (RATIONALS, PRIME_FIELD)

    # -- canonical values ----------------------------------------------------

    def normalize(self, v):
        if self.kind == RATIONALS:
            return v if type(v) is Fraction else Fraction(v)
        return int(v) % self.modulus

    @property
    def zero(self):
        return self.normalize(0)

    @property
    def one(self):
        return self.normalize(1)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def neg(self, a):
        return self.normalize(-a)

    def try_inv(self, a):
        """Inverse of a, or None when a is not a unit."""
        a = self.normalize(a)
        if self.kind == RATIONALS:
            return None if a == 0 else 1 / a
        if self.kind == PRIME_FIELD:
            return None if a == 0 else pow(a, self.modulus - 2, self.modulus)
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            return None

    # -- finite enumerations -------------------------------------------------

    def elements(self):
        if not self.is_finite:
            raise InputError("cannot enumerate an infinite ring")
        return list(range(self.modulus))

    def units(self):
        if not self.is_finite:
            raise InputError("units() needs a finite ring")
        return [a for a in self.elements() if self.try_inv(a) is not None]

    def idempotents(self):
        if not self.is_finite:
            raise InputError("idempotents() needs a finite ring")
        return [a for a in self.elements() if self.mul(a, a) == a]

    def wt_check(self):
        """Does lambda * e = 0 force lambda = 0 for every idempotent e != 0?

        Returns (True, None) or (False, (lam, e)) with the first witness found
        scanning lam ascending, then idempotents ascending.  A field has no
        zero divisors, so it passes without a scan.
        """
        if self.is_field:
            return True, None
        idems = [e for e in self.idempotents() if e != 0]
        for lam in range(1, self.modulus):
            for e in idems:
                if self.mul(lam, e) == 0:
                    return False, (lam, e)
        return True, None

    # -- formatting ----------------------------------------------------------

    def coeff_str(self, v) -> str:
        return str(self.normalize(v))

    def coeff_from_str(self, s: str):
        s = s.strip()
        if self.kind == RATIONALS:
            try:
                return Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad rational {s!r}") from exc
        try:
            return self.normalize(int(s))
        except ValueError as exc:
            raise InputError(f"bad residue {s!r}") from exc

    def __str__(self) -> str:
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME_FIELD:
            return f"F{self.modulus}"
        return f"Z{self.modulus}"


def parse_ring(s: str) -> Ring:
    """Parse "Q", "F5", "Z6" style descriptors."""
    if not isinstance(s, str):
        raise InputError(f"a ring descriptor is a string, not {s!r}")
    s = s.strip()
    if s == "Q":
        return Ring(RATIONALS)
    if len(s) >= 2 and s[0] in ("F", "Z") and s[1:].isdigit():
        m = int(s[1:])
        return Ring(PRIME_FIELD if s[0] == "F" else INT_MOD_M, m)
    raise InputError(f"cannot parse ring descriptor {s!r}")
