"""Reference implementations that tests compare production code against.

_jacobian and _newton are the start-by-start damped Newton iteration the
batched kernel in cayleygibbs.solver replaced, kept verbatim: the kernel
must give, for every start, the same root bit for bit or the same None.

_volume_distribution is the spin-matrix construction the prefix-doubling
one in cayleygibbs.solver replaced, kept verbatim: both must return the
same vertices and the same probabilities bit for bit.  It holds a
2^bits x bits int64 array, so keep it to small balls.
"""

from collections.abc import Mapping

import numpy as np

from cayleygibbs.solver import MAX_CONFIG_BITS, Theta
from cayleygibbs.words import Word, enumerate_ball, parent


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


def _volume_distribution(
    k: int, n: int, theta: Theta, boundary: Mapping[Word, float]
) -> tuple[list[Word], np.ndarray]:
    """Probabilities of all spin configurations on the radius-n ball.

    Vertices are in ball enumeration order with the root as the most
    significant bit of the configuration index.  The boundary mapping must
    provide a field for every vertex of the outer sphere; fields elsewhere
    are zero.
    """
    ball = enumerate_ball(k, n)
    verts = list(ball.vertices())
    bits = len(verts)
    if bits > MAX_CONFIG_BITS:
        raise ValueError(f"{bits} spins exceed the {MAX_CONFIG_BITS}-bit config cap")
    outer = ball.spheres[-1]
    missing = [w for w in outer if w not in boundary]
    if missing:
        raise ValueError(f"boundary field missing for {len(missing)} outer vertices")
    index = {w: i for i, w in enumerate(verts)}
    codes = np.arange(1 << bits, dtype=np.int64)
    shifts = (bits - 1 - np.arange(bits)).astype(np.int64)
    spins = (((codes[:, None] >> shifts[None, :]) & 1) * 2 - 1).astype(np.int8)
    log_weight = np.zeros(len(codes))
    beta = theta.beta
    for w in verts[1:]:
        log_weight += beta * (spins[:, index[parent(w)]] * spins[:, index[w]])
    for w in outer:
        log_weight += boundary[w] * spins[:, index[w]]
    log_weight -= log_weight.max()
    weight = np.exp(log_weight)
    return verts, weight / weight.sum()
