"""Exact linear algebra over prime fields and over Q.

One scalar kernel serves both fields: the reduced echelon step on sparse
coefficient dicts {column: value} in canonical values, a residue in [0, p)
or a Fraction (p None).  steinberg.Basis keeps its spans in that form;
rref_mod_p and rref_frac push a dense matrix through it row by row and return
an int64 ndarray or lists of Fraction, off which the solves and nullspaces
read their answers.  steinberg.Context picks the backend for its ring.  The
one other kernel is the batched F_p test behind the normalizer prefilter,
which eliminates thousands of small systems in lockstep along a batch axis.
"""

import bisect
from fractions import Fraction

import numpy as np


def _subtract_multiple(cur: dict, c, row: dict, p) -> None:
    """cur -= c * row in place.  Canonical values are zero exactly when falsy,
    and a sum can only vanish at a column cur already holds, so zeros are
    purged as they appear."""
    for a, v in row.items():
        x = cur.get(a, 0) - c * v
        if p:
            x %= p
        if x:
            cur[a] = x
        else:
            del cur[a]


def residue(rows: list, pivots: list, vec: dict, p) -> dict:
    """vec minus its component in the span of the reduced echelon rows, as a
    new dict.  The rows vanish at each other's pivots, so one subtraction per
    pivot clears it, in any order."""
    cur = dict(vec)
    for piv, row in zip(pivots, rows):
        c = cur.get(piv)
        if c:
            _subtract_multiple(cur, c, row, p)
    return cur


def insert_residue(rows: list, pivots: list, res: dict, p) -> None:
    """Add the nonzero residue res to the reduced echelon rows: its lead
    scaled to 1, its pivot cleared from the earlier rows (a later row leads
    right of it, so is zero there), filed in pivot order.  A changed row is
    replaced by a new dict, never edited, so callers may share rows."""
    piv = min(res)
    inv = pow(res[piv], -1, p) if p else 1 / res[piv]
    new = {a: v * inv % p for a, v in res.items()} if p else {a: v * inv for a, v in res.items()}
    idx = bisect.bisect(pivots, piv)
    for i in range(idx):
        c = rows[i].get(piv)
        if c:
            cur = dict(rows[i])
            _subtract_multiple(cur, c, new, p)
            rows[i] = cur
    pivots.insert(idx, piv)
    rows.insert(idx, new)


def _rref(vecs, red, p):
    """Reduce the matrix whose rows are the coefficient dicts vecs into red,
    a zero matrix of its shape, and return the pivots.  Once the rows span
    every column, every later vector reduces to 0, so the loop stops there."""
    rows, pivots = [], []
    cols = len(red[0]) if len(red) else 0
    for vec in vecs:
        if len(pivots) == cols:
            break
        res = residue(rows, pivots, vec, p)
        if res:
            insert_residue(rows, pivots, res, p)
    for out, row in zip(red, rows):
        for c, v in row.items():
            out[c] = v
    return pivots


def _solution(red, pivots, cols: int, p):
    """One solution (free variables 0) of the system whose augmented matrix
    has reduced form red, as a list, or None when it is inconsistent."""
    if cols in pivots:
        return None
    x = [0 if p else Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = red[i][cols]
    return x


def _null_vectors(red, pivots, cols: int, p) -> list:
    """A nullspace basis read off the reduced form red, one list per free
    column."""
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [0 if p else Fraction(0)] * cols
        v[fc] = 1 if p else Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc] % p if p else -red[i][fc]
        basis.append(v)
    return basis


def rref_mod_p(mat: np.ndarray, p: int):
    """Reduced row echelon form mod p, zero rows last.  Returns (rref,
    pivot_columns)."""
    m = np.array(mat, dtype=np.int64) % p
    red = np.zeros_like(m)
    pivots = _rref(({c: v for c, v in enumerate(row) if v} for row in m.tolist()), red, p)
    return red, pivots


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a b mod p for residue matrices, each product reduced before the sum,
    since int64 holds (p-1)^2 but not a sum of several."""
    return (a[:, :, None] * b[None, :, :] % p).sum(axis=1) % p


def solve_mod_p(a: np.ndarray, b: np.ndarray, p: int):
    """One solution of a x = b mod p (free variables set to 0), or None."""
    red, pivots = rref_mod_p(np.column_stack([a, b]), p)
    x = _solution(red, pivots, np.shape(a)[1], p)
    return None if x is None else np.array(x, dtype=np.int64)


def nullspace_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace mod p, one vector per row."""
    cols = np.shape(a)[1]
    red, pivots = rref_mod_p(a, p)
    return np.array(_null_vectors(red, pivots, cols, p),
                    dtype=np.int64).reshape(cols - len(pivots), cols)


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
    """RREF over Q, zero rows last.  mat is a list of lists (or a 2-d object
    array) of rationals; returns (rref as lists of Fraction, pivots)."""
    cols = len(mat[0]) if len(mat) else 0
    red = [[Fraction(0)] * cols for _ in range(len(mat))]
    pivots = _rref(({c: x if type(x) is Fraction else Fraction(x)
                     for c, x in enumerate(row) if x} for row in mat), red, None)
    return red, pivots


def solve_frac(a, b):
    """One solution of a x = b over Q, or None."""
    red, pivots = rref_frac([list(row) + [bi] for row, bi in zip(a, b)])
    return _solution(red, pivots, len(a[0]) if len(a) else 0, None)


def nullspace_frac(a):
    """Basis of the right nullspace over Q, one vector per entry."""
    red, pivots = rref_frac(a)
    return _null_vectors(red, pivots, len(a[0]) if len(a) else 0, None)
