"""The tanh-sinh rule on (0, 1) shared by the regression and reconstruction integrals.

Takahasi & Mori (1974): x = 1 / (1 + exp(-pi sinh t)) at t = k/32, |t| <= 4.5,
289 nodes reaching 5e-62 from each end.  The complements C = 1 - X are
tabulated from the same exponential, so kernels in (1 - z) keep full relative
accuracy near z = 1, and the map z / (1 - z) onto (0, inf) is X / C.  The
integral of f over (0, 1) is ``np.dot(W, f(X))``.
"""

import numpy as np

T = np.arange(-144, 145) / 32.0
X = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(T)))
C = 1.0 / (1.0 + np.exp(np.pi * np.sinh(T)))
W = np.pi / 32.0 * np.cosh(T) * X * C
