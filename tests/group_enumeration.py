"""Per-element references of the kernel and group-order tests: whole-group enumeration of SL2(Z/NZ) and the coordinate kernel mask."""

from affinesl2.modgroup import ResidueMatrix, complete_row, unimodular_rows
from affinesl2.wzwrep import _unit_shift, rho_theorem1


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


def coordinate_kernel_mask(rs, n):
    """One bool per r in rs: rho_theorem1(W) == rho_theorem1(T^k S), compared in coordinates.

    k and W = r T^k S come from _unit_shift, as in galois_kernel._kernel_mask,
    so the two differ only in how they compare the two sides: here as two
    table gathers, coordinate by coordinate, with no exponent rule.
    """
    out = []
    for r in rs:
        k, w = _unit_shift(r, n)
        out.append(rho_theorem1(w, n) == rho_theorem1(ResidueMatrix(r.N, k, -1, 1, 0), n))
    return out
