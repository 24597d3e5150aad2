"""Exact comparisons against sqrt(n)-scaled thresholds.

Every bound in this library has the shape ``sqrt(n)^k * a >= b`` with k in
{0, 1, 2} and nonnegative rationals ``a``, ``b`` (welfare >= OPT/(16*sqrt(n))
is k = 1, a = 16 * welfare, b = OPT). Squaring keeps the decision in
integer/rational arithmetic: for a, b >= 0,

    sqrt(n)^k * a >= b   iff   n^k * a^2 >= b^2.

No floating point is involved anywhere.
"""


def sqrt_ge(a, b, n: int, k: int = 1) -> bool:
    """True iff sqrt(n)^k * a >= b, for nonnegative rationals a, b."""
    if a < 0 or b < 0:
        raise ValueError("sqrt comparisons require nonnegative operands")
    return n ** k * a * a >= b * b
