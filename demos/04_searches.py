"""Exhaustive searches: rediscovery, nonexistence, packings, two-weight sets.

The regular-set search propagates exact per-vertex degree targets, so most
impossible cases die within a few hundred nodes, and a completed run is a
computer-checked nonexistence proof.  Budgets make the honest distinction:
"none, exhaustive" versus "unknown, budget hit".
"""

from polarlines import (
    build_space,
    disjoint_section_packing,
    enumerate_regular_sets,
    feasibility_probe,
    line_spread_search,
    quadric_section,
    regular_set_check,
    srg_parameters,
    tables_for_space,
    two_weight_profile,
)

o6 = build_space("O6plus", 2)
t6 = tables_for_space(o6)

res = enumerate_regular_sets(o6, t6, "11", 15)
print(f"V11 sets of size 15 in O+(6,2): found {len(res.sets)} (complete={res.complete})")
print("  these are exactly the 28 quadrangle sections, rediscovered by search")

res = enumerate_regular_sets(o6, t6, "20", 35, budget=10**9)
print(f"V20 sets of size 35: {len(res.sets)} found, exhaustive={res.complete} ({res.nodes} nodes)")

probe = feasibility_probe(o6, t6, {"10"}, 21, prefilter=False)
print(f"sets with support {{10}} of size 21: {probe.status} after {probe.nodes} nodes")

probe = feasibility_probe(o6, t6, {"10", "20"}, 35)
print(f"support within {{10,20}}, size 35: {probe.status} ({probe.note})")

packing = disjoint_section_packing(o6)
print(f"\nlargest family of line-disjoint O(5,2) sections: g(2) = {packing.count}, "
      f"complete={packing.complete}")
print(f"  7 x 15 = {packing.count * 15} lines: a partition of all {o6.n_lines}")

print("\nSp(6,2): a 1-system from a line spread of the elliptic quadric section")
sp = build_space("Sp6", 2)
ts = tables_for_space(sp)
section = quadric_section(sp, "minus")
section_lines = sp.lines_inside(section.point_indices)
spread = line_spread_search(sp, section.point_indices, section_lines)
one_system = spread.lines
print(f"  spread of 9 lines: {one_system}")
rep = regular_set_check(sp, ts, one_system)
print(f"  as a line set of Sp(6,2): support {sorted(rep.support)}")

tw = two_weight_profile(sp, one_system)
print(f"  covered points meet every hyperplane in one of two sizes: "
      f"{ {str(k): v for k, v in sorted(tw.values.items())} }")
print(f"  resulting strongly regular graph parameters: {srg_parameters(1, 2, 2)}")

print("\nO(7,3): a hemisystem of the elliptic section, found by search")
from polarlines import find_section, hyperplane_section_lines, m_ovoid_lift
from polarlines.constructions import section_point_indices, validate_m_ovoid
from polarlines.search import m_ovoid_search

o73 = build_space("O7", 3)
t73 = tables_for_space(o73)
sec = find_section(o73, "gq")
pts = section_point_indices(o73, sec)
lines = list(hyperplane_section_lines(o73, sec).indices)
hemi = m_ovoid_search(o73, pts, lines, 2).points
print(f"  {len(hemi)} of the section's {len(pts)} points, every section line meets exactly "
      f"{validate_m_ovoid(o73, sec, hemi)}")
lift = m_ovoid_lift(o73, sec, hemi)
rep = regular_set_check(o73, t73, lift)
print(f"  lifting through it: {len(lift)} lines of O(7,3), regular in V{rep.eigenspace}")
