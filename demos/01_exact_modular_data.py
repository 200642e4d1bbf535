"""Walk through the exact S and T matrices and closed-form evaluation."""

from affinesl2.modgroup import ResidueMatrix, decompose, lift, random_matrix
from affinesl2.wzwrep import (
    RepMatrix,
    conductor,
    dispatch_path,
    evaluate_word,
    rho_S,
    rho_T,
    rho_closed,
    rho_float,
)
from affinesl2.identities import rho_upper_triangular
import random

# level k = 2, so n = k + 2 = 4 and the representation acts on n - 1 = 3 primaries
n = 4
N = conductor(n)
print(f"level {n - 2}: n = {n}, dimension {n - 1}, conductor N = {N}")

S = rho_S(n)
T = rho_T(n)
print("\nS matrix, exact cyclotomic entries:")
for i in range(n - 1):
    print("  " + "  ".join(str(S.entry(i, j)) for j in range(n - 1)))
print("\nT matrix diagonal:")
print("  " + "  ".join(str(T.entry(j, j)) for j in range(n - 1)))

# the defining relations hold exactly, not to machine precision
print("\nS^2 = Id:", (S * S).is_identity())
print("(ST)^3 = S^2:", (S * T) * (S * T) * (S * T) == S * S)
TN = RepMatrix.identity(n)
for _ in range(N):
    TN = TN * T
print(f"T^{N} = Id:", TN.is_identity())

# evaluate rho on an arbitrary residue matrix two ways: the closed form, and
# the oracle that lifts to SL(2,Z), decomposes into an S,T word, and multiplies
rng = random.Random(7)
r = random_matrix(N, rng)
print(f"\nrandom matrix mod {N}: {r}")
print("stratum:", dispatch_path(r, n))
closed = rho_closed(r, n)
word = decompose(lift(r))
print("word for one lift:", word)
oracle = evaluate_word(word, n)
print("closed form == word oracle:", closed == oracle)

# the float path mirrors the exact one
approx = rho_float(r, n)
exact = closed.to_floats()
dev = max(
    abs(exact[i][j] - approx[i][j]) for i in range(n - 1) for j in range(n - 1)
)
print(f"max |exact - float| = {dev:.2e}")

# upper triangular matrices also have a closed form of the paper's own
u = ResidueMatrix(N, 1, 1, 0, 1)
print(f"\n{u} lies in stratum:", dispatch_path(u, n))
print("its closed form matches the oracle:", rho_upper_triangular(u, n) == evaluate_word(decompose(lift(u)), n))
