"""Jensen-Shannon distance oracles: 50-digit decimal, and the whole-stack kernel."""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np

from panelrank.core import _LOG1P_BELOW
from oracles.chain import IFN

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


def js_distances_whole(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The array kernel as one expression over the whole [6, ...] term stack.

    The package's kernel computes the same terms in fixed-size passes; this
    form takes every pair at once, with np.where for the log1p argument, and
    is the reference it must equal bit for bit.
    """
    x = np.concatenate((a, b))  # x[c] pairs with y[c]: terms t(a, b), then t(b, a)
    y = np.concatenate((b, a))
    s = x + y
    defined = (x > 0.0) & (s > 0.0)
    s = np.where(defined, s, 1.0)
    q = (x - y) / s
    near = defined & (np.abs(q) < _LOG1P_BELOW)
    ratio = np.where(near | ~defined, 1.0, 2.0 * x / s)
    terms = x * (np.log1p(np.where(near, q, 0.0)) + np.log(ratio))
    total = (terms[0] + terms[3]) + (terms[1] + terms[4]) + (terms[2] + terms[5])
    return np.sqrt(np.maximum(0.5 * total, 0.0))
