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


def hnf2(a, b, c, d):
    """`hnf_rows` of the rows (a, b), (c, d) of nonzero determinant, as the
    pivots and the entry above the second: (g, x, h) for the form
    (g, x; 0, h), with g = gcd(a, c), h = |ad - bc| / g and x in [0, h).

    Euclid's loop on the first column swaps the rows and subtracts a
    multiple of one from the other, so the rows keep spanning the lattice
    and |det| is kept; it ends with (+-g, y), (0, +-h).
    """
    while c:
        q = a // c
        a, b, c, d = c, d, a - q * c, b - q * d
    if a < 0:
        a, b = -a, -b
    h = abs(d)
    return a, b % h, h


def congruence_kernel(vectors, modulus):
    """Basis of {c in Z^4 : sum_i c_i * v[i] == 0 (mod modulus) for each v}.

    `vectors` is a list of length-4 integer vectors (the linear conditions).
    The rows [v_1[i] .. v_r[i] | e_i] and [modulus * e_j | 0] span
    {(c V + modulus t, c)}; in its HNF the rows whose first r entries are 0
    span the part with c V == 0 (mod modulus), and they are in HNF themselves.
    """
    r = len(vectors)
    rows = [[v[i] for v in vectors] + [int(i == s) for s in range(4)]
            for i in range(4)]
    rows += [[modulus * int(j == s) for s in range(r)] + [0] * 4
             for j in range(r)]
    basis = [row[r:] for row in hnf_rows(rows) if not any(row[:r])]
    if len(basis) != 4:
        raise ArithmeticError("congruence kernel is not full rank")
    return basis
