# Voronoi cells with strict-interior semantics.
#
# Each robot's cell is the open set of points strictly nearer to it than to
# any other occupied position. Boundary points belong to no cell, which is
# exactly what makes in-cell movement collision-free.

import numpy as np

from scattersim import Point, compute_voronoi, distance, sample_in_cell

sites = [Point(0, 0), Point(4, 0), Point(0, 4), Point(3, 3)]
diagram = compute_voronoi(sites)

print("sites:", sites)
for i, cell in enumerate(diagram.cells):
    print(
        f"cell {i}: {cell.normals.shape[0]} bisector half-planes, "
        f"{'bounded' if cell.bounded else 'unbounded'}"
    )

# Membership is strict: the midpoint of two sites is in no cell.
mid = Point(2.0, 0.0)
print(f"\nlocate({mid}) ->", diagram.locate(mid), "(bisector point, belongs nowhere)")
q = Point(1.0, 1.0)
print(f"locate({q}) ->", diagram.locate(q), "(nearest site is", sites[diagram.locate(q)], ")")

# Sampling draws fresh in-cell targets: never the current point, never
# outside, never farther than the travel bound.
rng = np.random.default_rng(42)
cell = diagram.cells[0]
print("\nfive sampled targets inside cell 0 (sigma = 1):")
for _ in range(5):
    p = sample_in_cell(cell, cell.site, 1.0, rng)
    print(f"  {p}  dist={distance(cell.site, p):.4f}  inside={cell.contains(p)}")
