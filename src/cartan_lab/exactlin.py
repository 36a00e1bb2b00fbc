"""Exact linear algebra over prime fields (numpy, residues) and over Q (Fraction).

Matrices over F_p are numpy int64 arrays with entries in [0, p).  Matrices over
Q are lists of lists (or 2-d object arrays) of Fraction.  The program reaches
the solves and nullspaces through steinberg.Context, which picks the backend
for its ring; the batched test serves the F_p normalizer prefilter.

Everything here is plain Gaussian elimination; the only twist is the batched
variant, which eliminates thousands of small systems in lockstep along a
leading batch axis.
"""

from fractions import Fraction

import numpy as np


def rref_mod_p(mat: np.ndarray, p: int):
    """Reduced row echelon form mod p.  Returns (rref, pivot_columns)."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # any nonzero pivot row will do: the reduced echelon form is unique
        pr = r + int(m[r:, c].argmax())
        if not m[pr, c]:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        # rows r and below are zero left of c, so only columns c: change; one
        # broadcast update clears column c, rows that are zero there subtract 0
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        factors = m[:, c].copy()
        factors[r] = 0
        m[:, c:] = (m[:, c:] - factors[:, None] * m[r, c:]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a b mod p for residue matrices, each product reduced before the sum,
    since int64 holds (p-1)^2 but not a sum of several."""
    return (a[:, :, None] * b[None, :, :] % p).sum(axis=1) % p


def solve_mod_p(a: np.ndarray, b: np.ndarray, p: int):
    """One solution of a x = b mod p (free variables set to 0), or None."""
    a = np.array(a, dtype=np.int64) % p
    b = np.array(b, dtype=np.int64) % p
    rows, cols = a.shape
    aug = np.concatenate([a, b.reshape(rows, 1)], axis=1)
    red, pivots = rref_mod_p(aug, p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = red[i, cols]
    return x


def nullspace_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace mod p, one vector per row."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    red, pivots = rref_mod_p(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-red[i, fc]) % p
    return basis


def _batch_eliminate_mod_p(m: np.ndarray, p: int, ncols: int) -> np.ndarray:
    """Forward elimination in place over the first ncols columns of each matrix
    in the batch (B, R, C).  Partial pivoting per batch member.  Rows at index
    rank[b] and beyond end up zero in those columns; returns rank."""
    nb, rows, _ = m.shape
    rank = np.zeros(nb, dtype=np.int64)
    rowidx = np.arange(rows)
    maxrank = min(rows, ncols)
    for c in range(ncols):
        live = (m[:, :, c] != 0) & (rowidx[None, :] >= rank[:, None])
        has = live.any(axis=1)
        bidx = np.nonzero(has)[0]
        if bidx.size == 0:
            continue
        piv = live[bidx].argmax(axis=1)
        r0 = rank[bidx]
        # affected rows are zero left of c, so only columns c: need touching
        tmp = m[bidx, r0, c:].copy()
        m[bidx, r0, c:] = m[bidx, piv, c:]
        m[bidx, piv, c:] = tmp
        # invert each distinct pivot value once
        vals, at = np.unique(m[bidx, r0, c], return_inverse=True)
        invs = np.array([pow(int(v), -1, p) for v in vals], dtype=np.int64)
        pivrow = (m[bidx, r0, c:] * invs[at][:, None]) % p
        m[bidx, r0, c:] = pivrow
        below = rowidx[None, :] > r0[:, None]
        factors = np.where(below, m[bidx, :, c], 0)
        upd = factors[:, :, None] * pivrow[:, None, :]
        if bidx.size == nb:
            m[:, :, c:] = (m[:, :, c:] - upd) % p
        else:
            m[bidx, :, c:] = (m[bidx, :, c:] - upd) % p
        rank[bidx] = r0 + 1
        if (rank == maxrank).all():
            break
    return rank


def batch_solvable_mod_p(mats: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask: does mats[i] x = rhs[i] have a solution mod p.  One
    elimination of the augmented matrix; a system is inconsistent exactly when
    some fully reduced row is zero on coefficients but not on the tail."""
    aug = np.concatenate([mats, rhs[:, :, None]], axis=2) % p
    nb, rows, _ = aug.shape
    rank = _batch_eliminate_mod_p(aug, p, aug.shape[2] - 1)
    rowidx = np.arange(rows)
    bad = (aug[:, :, -1] != 0) & (rowidx[None, :] >= rank[:, None])
    return ~bad.any(axis=1)


def rref_frac(mat):
    """RREF over Q.  mat is a list of lists of Fraction; returns (rref, pivots)."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def solve_frac(a, b):
    """One solution of a x = b over Q, or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref_frac(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = red[i][cols]
    return x


def nullspace_frac(a):
    """Basis of the right nullspace over Q, one vector per entry."""
    cols = len(a[0]) if len(a) else 0
    red, pivots = rref_frac(a)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis
