"""Exact comparisons against sqrt(n)-scaled thresholds.

Every irrational bound in this library has the shape ``sqrt(n) * a >= b``
with nonnegative rational ``a`` and ``b`` (e.g. welfare >= OPT/(16*sqrt(n))
rearranges to sqrt(n) * 16 * welfare >= OPT). Squaring both sides keeps the
decision in integer/rational arithmetic: for a, b >= 0,

    sqrt(n) * a >= b   iff   n * a^2 >= b^2.

No floating point is involved anywhere.
"""


def sqrt_ge(a, b, n: int) -> bool:
    """True iff sqrt(n) * a >= b, for nonnegative rationals a, b."""
    if a < 0 or b < 0:
        raise ValueError("sqrt comparisons require nonnegative operands")
    return n * a * a >= b * b
