"""Reference implementations that the fast paths are tested against."""

import numpy as np

from fuchsian.circle import TOL, TWO_PI, angdiff, moebius_angles
from fuchsian.errors import BijectivityError, OutsideDomainError


def inverse_search(solved, domain, u, w, tol=TOL):
    """The scalar N-candidate search: the unique preimage (u', w', branch).

    Raises BijectivityError for no preimage, or for preimages of distinct
    branches that are not within tol of each other (rounding on a shared
    edge).
    """
    if not domain.contains(u, w):
        raise OutsideDomainError("inverse requested for a point outside the domain")
    s = solved.surface
    hits = []
    for i in range(1, s.n + 1):
        t_inv = s.t(s.sigma(i))
        u2 = t_inv.apply(u)
        w2 = t_inv.apply(w)
        if solved.params.partition.index(w2.angle) == i and domain.contains(u2, w2):
            hits.append((u2, w2, i))
    if not hits:
        raise BijectivityError("no preimage found inside the domain")
    base = hits[0]
    for other in hits[1:]:
        if angdiff(base[0].angle, other[0].angle) > tol or angdiff(base[1].angle, other[1].angle) > tol:
            raise BijectivityError(f"multiple preimages found: branches {[h[2] for h in hits]}")
    return base


def inverse_search_many(solved, domain, u_thetas, w_thetas):
    """The N-candidate inverse search; returns (u', w', branch, hit_count).

    Candidate i is (T_sigma(i) u, T_sigma(i) w); it is a preimage when it
    lands in the domain with its w-coordinate in [A_i, A_{i+1}).  Each row
    keeps its first hit in branch order and counts them all.
    """
    s = solved.surface
    params = solved.params
    m = len(u_thetas)
    zu = np.exp(1j * np.asarray(u_thetas, dtype=float))
    zw = np.exp(1j * np.asarray(w_thetas, dtype=float))
    best_u = np.zeros(m)
    best_w = np.zeros(m)
    best_i = np.zeros(m, dtype=np.int64)
    count = np.zeros(m, dtype=np.int64)
    for i in range(1, s.n + 1):
        t_inv = s.t(s.sigma(i))
        u2 = moebius_angles(t_inv.a, t_inv.c, zu)
        w2 = moebius_angles(t_inv.a, t_inv.c, zw)
        ok = (params.partition.index_many(w2) == i) & domain.contains_many(u2, w2)
        newhit = ok & (count == 0)
        best_u = np.where(newhit, u2, best_u)
        best_w = np.where(newhit, w2, best_w)
        best_i = np.where(newhit, i, best_i)
        count += ok.astype(np.int64)
    return best_u, best_w, best_i, count


def dense_distance_many(partition, thetas):
    """Distance to the nearest breakpoint of a CirclePartition, through the
    full m x n matrix of differences: min(min d, 2*pi - max d)."""
    rel = np.remainder(np.asarray(thetas, dtype=float) - partition.base, TWO_PI)
    d = np.abs(rel[:, None] - partition.breaks[None, :])
    return np.minimum(d.min(axis=1), TWO_PI - d.max(axis=1))
