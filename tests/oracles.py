"""Reference implementations that tests compare production code against.

_jacobian and _newton are the start-by-start damped Newton iteration the
batched kernel in cayleygibbs.solver replaced, kept verbatim: the kernel
must give, for every start, the same root bit for bit or the same None.
"""

import numpy as np


def _jacobian(F, u: np.ndarray, step: float = 1e-6) -> np.ndarray:
    dim = len(u)
    J = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = step
        J[:, j] = (F(u + e) - F(u - e)) / (2 * step)
    return J


def _newton(F, u0: np.ndarray, tol: float, max_iter: int) -> np.ndarray | None:
    u = u0.astype(float)
    for _ in range(max_iter):
        r = F(u)
        norm = np.max(np.abs(r))
        if not np.isfinite(norm):
            return None
        if norm <= tol:
            return u
        try:
            step = np.linalg.solve(_jacobian(F, u), -r)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(30):
            trial = u + lam * step
            if np.max(np.abs(F(trial))) < norm:
                u = trial
                break
            lam *= 0.5
        else:
            return None
    r = F(u)
    return u if np.max(np.abs(r)) <= tol else None
