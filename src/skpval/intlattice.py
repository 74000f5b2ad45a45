"""Exact integer-lattice linear algebra.

Row-style echelon reduction over the integers with a unimodular transform,
which the group arithmetic reads its basis, index and relations from.
Matrices are lists of lists of Python ints.  The reduction is plain
Euclidean, with no control of coefficient growth, so the transform's
entries grow with the number of rows: for the doubling chain
gamma_{k+1} = 2 gamma_k + 2^-k they reach 1056 digits at 60 generators
(ROADMAP item 12), 19 once ``ordgroup.analyze_chain`` folds them.
"""


def _swap(mat, i, j):
    mat[i], mat[j] = mat[j], mat[i]


def row_echelon(rows):
    """Integer row echelon form with transform.

    Returns (H, U) where U is unimodular, U @ rows == H, and H is in
    echelon form: pivots strictly move right, pivot entries positive,
    zero rows at the bottom.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        # clear column c below row r down to a single nonzero entry
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(H[i][c]))
            i0, i1 = nz[0], nz[1]
            q = H[i1][c] // H[i0][c]
            H[i1] = [a - q * b for a, b in zip(H[i1], H[i0])]
            U[i1] = [a - q * b for a, b in zip(U[i1], U[i0])]
        nz = [i for i in range(r, m) if H[i][c] != 0]
        if not nz:
            continue
        i0 = nz[0]
        _swap(H, r, i0)
        _swap(U, r, i0)
        if H[r][c] < 0:
            H[r] = [-a for a in H[r]]
            U[r] = [-a for a in U[r]]
        r += 1
    return H, U
