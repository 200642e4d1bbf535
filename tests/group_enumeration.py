"""Whole-group enumeration of SL2(Z/NZ), the per-element reference of the kernel and group-order tests."""

from affinesl2.modgroup import ResidueMatrix, complete_row, unimodular_rows


def enumerate_group(N, bound=100):
    """Yield all of SL2(Z/NZ) as ResidueMatrix values, deterministically ordered.

    Raises ValueError, not AssertionError, for N above bound, so the check
    holds under python -O.
    """
    if N > bound:
        raise ValueError(f"enumeration bound exceeded: N = {N} > {bound}")
    for c, d in unimodular_rows(N).tolist():
        a0, b0 = complete_row(N, c, d)
        for t in range(N):
            yield ResidueMatrix(N, a0 + t * c, b0 + t * d, c, d)
