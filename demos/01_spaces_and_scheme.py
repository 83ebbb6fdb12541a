"""Build a rank-3 polar space and watch its line scheme come out exact.

The hyperbolic quadric in dimension 6 over GF(2) is the smallest of the six
families: 35 points, 105 lines, 30 planes.  Its line pairs split into five
relations, and that partition is a 5-class association scheme whose exact
eigenvalue tables we can write down and then check exactly against the
enumerated geometry.
"""

from polarlines import build_space, tables_for_space, verify_scheme
from polarlines.schemetables import empirical_valencies

space = build_space("O6plus", 2)
print(f"built {space.family}/q={space.q}:")
print(f"  {len(space.points)} points, {space.n_lines} lines, {len(space.plane_basis)} planes")
print(f"  fingerprint {space.fingerprint}")

tables = tables_for_space(space)
print("\neigenvalue matrix P (rows = eigenspaces, columns = relations):")
for tag, row in zip(("00", "10", "11", "20", "21"), tables.P):
    print(f"  V{tag}: {row}")
print(f"multiplicities: {tables.multiplicities} (sum = {sum(tables.multiplicities)} = n)")

print("\ndual eigenvalue matrix Q (exact rationals):")
for tag, row in zip(("00", "10", "11", "20", "21"), tables.Q):
    print(f"  R{tag}: ({', '.join(str(x) for x in row)})")

census = empirical_valencies(space)
print(f"\nevery line sees the same relation census: {census}")
print(f"matches the first row of P: {census == tables.valencies}")

report = verify_scheme(space, tables, k=5)
print(f"\nrandomized-exact projector check on 5 integer vectors: ok = {report['ok']}")
print("  (A_i E_j x = P[j][i] E_j x for all 25 pairs, and the E_j x sum back to x)")

pair = (0, 17)
print(f"\nrelation of lines {pair}: {space.classify_pair(*pair)}")
print(f"recomputed by two ranks of the bases and the form: {space.classify_pair_geometric(*pair)}")
