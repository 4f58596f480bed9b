"""Dense matrix and vector arithmetic on nested tuples of exact scalars,
for the tests and their dense reference implementations.  The package
itself stores every structure sparse and computes no dense matrices."""

from relpoisson.linalg import ONE, ZERO, Matrix, Vector


def vec_add(u: Vector, v: Vector) -> Vector:
    # zero operands dominate in practice; skip the arithmetic for them
    return tuple((a + b if b else a) if a else b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(
        (a - b if b else a) if a else (-b if b else a) for a, b in zip(u, v)
    )


def zero_matrix(rows: int, cols: int) -> Matrix:
    return ((ZERO,) * cols,) * rows


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    """The square matrix diag(a, b) of two square blocks."""
    pad_a, pad_b = (ZERO,) * len(b), (ZERO,) * len(a)
    return tuple(tuple(r) + pad_a for r in a) + tuple(pad_b + tuple(r) for r in b)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(ra, rb) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in r) for r in a)


def mat_transpose(a: Matrix) -> Matrix:
    if not a:
        return ()
    return tuple(zip(*a))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a (r x m) times b (m x c), skipping zero entries of a."""
    if a and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * cols
        for k, x in enumerate(row):
            if not x:
                continue
            brow = b[k]
            for j, y in enumerate(brow):
                if y:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_apply(a: Matrix, v: Vector) -> Vector:
    """Matrix times coordinate vector, skipping zero coordinates."""
    rows = len(a)
    acc = [ZERO] * rows
    for j, c in enumerate(v):
        if not c:
            continue
        for i in range(rows):
            x = a[i][j]
            if x:
                acc[i] += c * x
    return tuple(acc)


def mat_is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def mat_combination(coeffs: Vector, mats) -> Matrix:
    """sum_k coeffs[k] * mats[k]; mats nonempty and square of equal shape."""
    rows = len(mats[0])
    cols = len(mats[0][0]) if rows else 0
    acc = [[ZERO] * cols for _ in range(rows)]
    for c, m in zip(coeffs, mats):
        if not c:
            continue
        for i in range(rows):
            mrow = m[i]
            arow = acc[i]
            for j in range(cols):
                x = mrow[j]
                if x:
                    arow[j] += c * x
    return tuple(tuple(r) for r in acc)
