# Voronoi cells with strict-interior semantics.
#
# Each robot's cell is the open set of points strictly nearer to it than to
# any other occupied position. Boundary points belong to no cell, which is
# exactly what makes in-cell movement collision-free. A robot computes only
# its own cell from what it sees; no whole diagram is ever built.

import numpy as np

from scattersim import Point, distance, own_cell, sample_in_cell

sites = [Point(0, 0), Point(4, 0), Point(0, 4), Point(3, 3)]
cells = [own_cell(s, sites) for s in sites]


def locate(q):
    """Index of the site whose open cell holds q, or None on a bisector."""
    return next((i for i, cell in enumerate(cells) if cell.contains(q)), None)


print("sites:", sites)
for i, cell in enumerate(cells):
    print(f"cell {i}: {cell.normals.shape[0]} bisector half-planes")

# Membership is strict: the midpoint of two sites is in no cell.
mid = Point(2.0, 0.0)
print(f"\nlocate({mid}) ->", locate(mid), "(bisector point, belongs nowhere)")
q = Point(1.0, 1.0)
print(f"locate({q}) ->", locate(q), "(nearest site is", sites[locate(q)], ")")

# Sampling draws fresh in-cell targets: never the current point, never
# outside, never farther than the travel bound.
rng = np.random.default_rng(42)
cell = cells[0]
print("\nfive sampled targets inside cell 0 (sigma = 1):")
for _ in range(5):
    p = sample_in_cell(cell, cell.site, 1.0, rng)
    print(f"  {p}  dist={distance(cell.site, p):.4f}  inside={cell.contains(p)}")
