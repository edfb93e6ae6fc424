"""The numpy trajectory that ``integrate.Trajectory`` replaced, kept as a test reference.

``NumpyTrajectory`` stores rows in 2-D arrays and evaluates cubic Hermite
dense output vectorized over its argument.  Its constructor, ``domain`` and
``__call__`` are verbatim copies; the differential tests require the scalar
dense output of ``Trajectory`` to return the same floats bit for bit.
"""

import numpy as np

from interlace.errors import DomainError


class NumpyTrajectory:
    """Dense solution on a strictly decreasing grid.

    Stores values and derivatives at the accepted steps; evaluation between
    knots is cubic Hermite, which reproduces the knot values and derivatives
    exactly.
    """

    def __init__(self, xs, ys, dys, meta=None):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.dys = np.asarray(dys, dtype=float)
        if self.xs.ndim != 1 or len(self.xs) < 2:
            raise ValueError("trajectory needs at least two grid points")
        if not np.all(np.diff(self.xs) < 0):
            raise ValueError("trajectory grid must be strictly decreasing")
        self.meta = dict(meta or {})

    @property
    def dimension(self):
        return self.ys.shape[1]

    def domain(self):
        return float(self.xs[-1]), float(self.xs[0])

    def __call__(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.domain()
        if np.any(x_arr < lo - 1e-15 * abs(lo)) or np.any(x_arr > hi + 1e-15 * hi):
            raise DomainError(f"evaluation outside trajectory domain [{lo}, {hi}]")
        asc = self.xs[::-1]
        idx = np.searchsorted(asc, x_arr, side="left")
        idx = np.clip(idx, 1, len(asc) - 1)
        i1 = len(self.xs) - 1 - idx  # left knot (larger x) in descending storage
        i0 = i1 + 1  # right knot (smaller x)
        x0, x1 = self.xs[i0], self.xs[i1]
        h = x1 - x0
        u = (x_arr - x0) / h
        u2, u3 = u * u, u * u * u
        h00 = 2 * u3 - 3 * u2 + 1
        h10 = u3 - 2 * u2 + u
        h01 = -2 * u3 + 3 * u2
        h11 = u3 - u2
        vals = (
            h00[:, None] * self.ys[i0]
            + h10[:, None] * h[:, None] * self.dys[i0]
            + h01[:, None] * self.ys[i1]
            + h11[:, None] * h[:, None] * self.dys[i1]
        )
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return vals[0]
        return vals
