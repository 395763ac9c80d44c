"""Fibonacci numbers, exact and modular.

Conventions: u_0 = 0, u_1 = 1, u_n = u_{n-1} + u_{n-2}, and u_{-1} = 1 so
that the n = 0 matrix case is well defined.  The 2x2 step matrix

    P = | 0 1 |        P^n = | u_{n-1}  u_n     |
        | 1 1 |              | u_n      u_{n+1} |

drives both modular evaluation routes: genuine symmetric matrix powering
(matrix_pow_mod) and the leaner fast-doubling recursion (fib_pair_mod).
The *_rhs helpers evaluate classical identity right-hand sides so callers
can cross-check them against direct evaluation of the left-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

# Exact values are capped to bound memory/time; u_n has about 0.209*n digits.
FIB_EXACT_CAP = 1_000_000


def fib_exact(n: int, cap: int = FIB_EXACT_CAP) -> int:
    """The exact n-th Fibonacci number, by the defining recurrence."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n > cap:
        raise ValueError(f"index {n} exceeds exact-evaluation cap {cap}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _pair_mod(n: int, m: int) -> tuple[int, int]:
    """(u_n, u_{n+1}) mod m by iterative fast doubling over the bits of n."""
    if m == 1:
        return 0, 0
    a, b = 0, 1  # (u_0, u_1)
    for bit in bin(n)[2:]:
        # (u_k, u_{k+1}) -> (u_2k, u_2k+1),
        # u_2k = u_k*(2*u_{k+1} - u_k), u_2k+1 = u_k^2 + u_{k+1}^2
        c = a * (2 * b - a) % m
        d = (a * a + b * b) % m
        if bit == "1":
            a, b = d, (c + d) % m
        else:
            a, b = c, d
    return a, b


def fib_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(u_n mod m, u_{n+1} mod m) in O(log n) multiplications."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return _pair_mod(n, m)


@dataclass(frozen=True)
class FibMatrix:
    """P^n over Z/m, stored as its three distinct entries.

    Entries satisfy u_prev + u_cur = u_next and the Cassini determinant
    u_prev*u_next - u_cur^2 = (-1)^n, both mod m.
    """

    modulus: int
    index: int
    u_prev: int
    u_cur: int
    u_next: int

    @property
    def is_identity(self) -> bool:
        m = self.modulus
        return (self.u_prev, self.u_cur, self.u_next) == (1 % m, 0, 1 % m)

    @property
    def is_negative_identity(self) -> bool:
        m = self.modulus
        minus_one = (m - 1) % m
        return (self.u_prev, self.u_cur, self.u_next) == (minus_one, 0, minus_one)

    def recurrence_ok(self) -> bool:
        return (self.u_prev + self.u_cur - self.u_next) % self.modulus == 0

    def determinant_ok(self) -> bool:
        det = (self.u_prev * self.u_next - self.u_cur * self.u_cur) % self.modulus
        sign = 1 if self.index % 2 == 0 else -1
        return det == sign % self.modulus


def matrix_pow_mod(n: int, m: int) -> FibMatrix:
    """P^n mod m by binary powering of symmetric 2x2 matrices.

    Intentionally a separate route from fib_pair_mod: the two are
    cross-checked in the test suites.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    a, b, c = 1 % m, 0, 1 % m  # identity
    pa, pb, pc = 0, 1 % m, 1 % m  # P
    e = n
    while e:
        if e & 1:
            # powers of P commute, so the product stays symmetric
            a, b, c = (
                (a * pa + b * pb) % m,
                (a * pb + b * pc) % m,
                (b * pb + c * pc) % m,
            )
        pa, pb, pc = (
            (pa * pa + pb * pb) % m,
            pb * (pa + pc) % m,
            (pb * pb + pc * pc) % m,
        )
        e >>= 1
    return FibMatrix(modulus=m, index=n, u_prev=a, u_cur=b, u_next=c)


def doubling_rhs(n: int, m: int) -> int:
    """u_n * (u_{n-1} + u_{n+1}) mod m, the doubling identity for u_2n."""
    if n < 1:
        raise ValueError(f"doubling identity needs n >= 1, got {n}")
    a, b = fib_pair_mod(n, m)
    return a * ((b - a) + b) % m


def subtraction_rhs(m_idx: int, n_idx: int, mod: int) -> int:
    """(-1)^n * (u_m * u_{n+1} - u_{m+1} * u_n) mod mod, equal to u_{m-n}.

    The sign is applied as modular negation; no signed residues leak out.
    """
    if n_idx < 0 or m_idx < n_idx:
        raise ValueError(f"need m_idx >= n_idx >= 0, got ({m_idx}, {n_idx})")
    um, um1 = fib_pair_mod(m_idx, mod)
    un, un1 = fib_pair_mod(n_idx, mod)
    value = (um * un1 - um1 * un) % mod
    if n_idx % 2 == 1:
        value = -value % mod
    return value


def binomial_expansion_rhs(k: int, n: int, mod: int) -> int:
    """sum_{i=1}^{n} C(n,i) * u_i * u_k^i * u_{k-1}^{n-i} mod mod.

    Equals u_{k*n} mod mod.  Binomial coefficients are computed exactly and
    then reduced, so the modulus does not need to be prime.
    """
    if k < 1 or n < 1:
        raise ValueError(f"binomial expansion needs k, n >= 1, got ({k}, {n})")
    if mod < 1:
        raise ValueError(f"modulus must be >= 1, got {mod}")
    return _binomial_sum(k, n, mod, shift=0)


def _binomial_sum(k: int, n: int, mod: int, shift: int) -> int:
    """sum_{i=1}^{n} C(n,i) * u_i * u_k^(i-shift) * u_{k-1}^(n-i) mod mod.

    shift 0 gives u_{k*n}; shift 1, for u_k == 0 mod the base of mod, gives
    the quotient u_{k*n} / u_k.  Arguments are checked by the public callers.
    """
    u_km1, u_k = fib_pair_mod(k - 1, mod)
    # u_1 .. u_n mod mod
    small = [0] * (n + 1)
    a, b = 0, 1 % mod
    for i in range(1, n + 1):
        a, b = b, (a + b) % mod
        small[i] = a
    pow_k = [1 % mod]
    pow_km1 = [1 % mod]
    for _ in range(n):
        pow_k.append(pow_k[-1] * u_k % mod)
        pow_km1.append(pow_km1[-1] * u_km1 % mod)
    total = 0
    for i in range(1, n + 1):
        term = comb(n, i) % mod
        term = term * small[i] % mod
        term = term * pow_k[i - shift] % mod
        term = term * pow_km1[n - i] % mod
        total = (total + term) % mod
    return total
