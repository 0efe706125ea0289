"""Jensen-Shannon distance oracle in 50-digit decimal arithmetic."""

from __future__ import annotations

from decimal import Decimal, localcontext

from panelrank import IFN

# absolute bound on every distance the package computes against js_oracle:
# a few ulp of the largest distance, sqrt(ln 2)
ORACLE_TOL = 1e-15


def js_oracle(a: IFN, b: IFN) -> float:
    """Distance between the (mu, nu, xi) mass triples, natural-log form.

    The square root of half the sum of the terms x ln(2x / (x + y)) over both
    orders of each component pair, a term taken as 0 when x <= 0 or
    x + y <= 0. Each float converts to Decimal exactly and the sum is taken
    at 50 significant digits, so the only rounding that reaches the result
    is the final conversion to float: an independent route that shares
    neither the package's float formula nor libm's log. scipy's
    jensenshannon is no oracle here: it rounds the mixture before the log,
    which for triples one rounding step apart gives ~1e-8 of noise, or nan,
    where the distance is below 1e-8.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        total = Decimal(0)
        for x, y in ((a.mu, b.mu), (a.nu, b.nu), (a.hesitancy, b.hesitancy)):
            x, y = Decimal(x), Decimal(y)
            for p, q in ((x, y), (y, x)):
                if p > 0 and p + q > 0:
                    total += p * (2 * p / (p + q)).ln()
        return float(max(total / 2, Decimal(0)).sqrt())
