"""Small exact linear algebra over Z used by the lattice machinery.

Everything is dense and tiny (rank 4, occasionally a few more rows), so the
implementations favour clarity and exactness over asymptotics.  Matrices
are lists of integer row lists.
"""

from __future__ import annotations


def hnf_rows(rows):
    """Canonical row Hermite normal form of the lattice spanned by `rows`.

    Returns the nonzero rows of the unique echelon basis with positive
    pivots and entries above each pivot reduced into [0, pivot).
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    top = 0
    for col in range(ncols):
        pivot = None
        for r in range(top, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[top], mat[pivot] = mat[pivot], mat[top]
        # clear below by gcd steps
        for r in range(top + 1, len(mat)):
            while mat[r][col] != 0:
                q = mat[top][col] // mat[r][col]
                mat[top] = [a - q * b for a, b in zip(mat[top], mat[r])]
                mat[top], mat[r] = mat[r], mat[top]
        if mat[top][col] < 0:
            mat[top] = [-a for a in mat[top]]
        for r in range(top):
            q = mat[r][col] // mat[top][col]
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[top])]
        top += 1
    return [r for r in mat[:top]]


def hnf_with_transform(rows):
    """Return (H, U) with U unimodular, U*A = H-padded (H includes zero rows)."""
    mat = [list(r) for r in rows]
    n = len(mat)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if not mat:
        return [], u
    ncols = len(mat[0])
    top = 0
    for col in range(ncols):
        pivot = None
        for r in range(top, n):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[top], mat[pivot] = mat[pivot], mat[top]
        u[top], u[pivot] = u[pivot], u[top]
        for r in range(top + 1, n):
            while mat[r][col] != 0:
                q = mat[top][col] // mat[r][col]
                mat[top] = [a - q * b for a, b in zip(mat[top], mat[r])]
                u[top] = [a - q * b for a, b in zip(u[top], u[r])]
                mat[top], mat[r] = mat[r], mat[top]
                u[top], u[r] = u[r], u[top]
        if mat[top][col] < 0:
            mat[top] = [-a for a in mat[top]]
            u[top] = [-a for a in u[top]]
        for r in range(top):
            q = mat[r][col] // mat[top][col]
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[top])]
                u[r] = [a - q * b for a, b in zip(u[r], u[top])]
        top += 1
    return mat, u


def integer_kernel(rows):
    """Basis (as rows) of {z in Z^n : z * A = 0} for A given by `rows`."""
    mat, u = hnf_with_transform(rows)
    kernel = []
    for i, row in enumerate(mat):
        if all(a == 0 for a in row):
            kernel.append(u[i])
    return hnf_rows(kernel)


def congruence_kernel(vectors, modulus):
    """Basis of {c in Z^4 : sum_i c_i * v[i] == 0 (mod modulus) for each v}.

    `vectors` is a list of length-4 integer vectors (the linear conditions).
    """
    r = len(vectors)
    if r == 0:
        return [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    # rows z = (c, t) with c*V^T - t*modulus = 0
    a = [[vectors[j][i] for j in range(r)] for i in range(4)]
    for j in range(r):
        a.append([modulus if jj == j else 0 for jj in range(r)])
    kern = integer_kernel(a)
    proj = [row[:4] for row in kern]
    basis = hnf_rows(proj)
    if len(basis) != 4:
        raise ArithmeticError("congruence kernel is not full rank")
    return basis

