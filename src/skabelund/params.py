"""Parameters of the Skabelund curve, and the orders of the witness blocks.

The curve is the cyclic degree-(q - 2q0 + 1) cover of the Suzuki curve,
with q0 = 2^s and q = 2*q0^2, of genus q*(q - 1)^2/2.  Every command reads
:func:`make_params`; :func:`pole_order_table` gives the vanishing and pole
orders of the building-block functions of the generic gap witnesses
(:mod:`skabelund.witness`).  The closed forms of the two special point
classes are in :mod:`skabelund.curve`, the generic gap families in
:mod:`skabelund.families`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import UnsupportedS

S_MAX = 6  # keeps every derived quantity (~q^3) far inside 64 bits


class CurveParams(NamedTuple):
    """The parameter triple (s, q0, q) with derived genus."""

    s: int
    q0: int
    q: int
    genus: int
    two_g_minus_2: int


class PoleOrderTable(NamedTuple):
    """(vanishing order at the point, pole order at infinity) for each
    building-block function of the gap-witness monomials.

    ``h[n-1]`` holds the entry for h_n (n = 1..2q0-2) and ``g[n]`` the
    entry for g_n (n = 0..q0-2).  The f1/f2/h/g pole orders are the
    stated multiples of q^2 + 1; for f1, f2 and g these are upper bounds
    on the actual pole order, which is all the witness bound needs.
    """

    x: tuple[int, int]
    y: tuple[int, int]
    z: tuple[int, int]
    w: tuple[int, int]
    pi: tuple[int, int]
    h: tuple[tuple[int, int], ...]
    f1: tuple[int, int]
    f2: tuple[int, int]
    g: tuple[tuple[int, int], ...]


def make_params(s: int) -> CurveParams:
    """Build CurveParams for exponent s; genus is q*(q-1)^2/2."""
    if not isinstance(s, int) or isinstance(s, bool) or not 1 <= s <= S_MAX:
        raise UnsupportedS(f"s must be an integer in 1..{S_MAX}, got {s!r}")
    q0 = 2**s
    q = 2 * q0 * q0
    genus = q * (q - 1) ** 2 // 2
    return CurveParams(s, q0, q, genus, 2 * genus - 2)


@lru_cache(maxsize=None)
def pole_order_table(p: CurveParams) -> PoleOrderTable:
    """Valuation/pole data for the witness building blocks."""
    q0, q = p.q0, p.q
    big = q * q + 1
    return PoleOrderTable(
        x=(1, q * q - 2 * q0 * q + q),
        y=(q0, q * q - q0 * q + q0),
        z=(2 * q0, q * q - q + 2 * q0),
        w=(q, big),
        pi=(q * q, big),
        h=tuple(((n + 1) * q0 * q, ((n + 1) * q0 - n) * big) for n in range(1, 2 * q0 - 1)),
        f1=(q0 * q + q0, q0 * big),
        f2=(2 * q0 * q + 2 * q0 + 1, 2 * q0 * big),
        g=tuple(((2 * n + 1) * q0 * q + n + 1, ((2 * n + 1) * q0 - n) * big) for n in range(q0 - 1)),
    )
