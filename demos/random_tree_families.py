"""A tour of the random tree families and their samplers.

Every sampler is a pure function of (master seed, trial index): rerunning
this script reproduces the output bit for bit.
"""

from collections import Counter

from treedim import (
    OffspringPmf,
    PAParams,
    RngSpec,
    sample_conditioned_gw,
    sample_pa_tree,
    sample_uniform_tree,
    simulate_cmj,
)

spec = RngSpec(99)


def degrees(tree):
    """Unrooted degree of each vertex: its children, plus its parent."""
    return (tree.outdeg + (tree.parents >= 0)).tolist()


def children(tree):
    """Children of each vertex in ascending order, read off the parent array."""
    parents = tree.parents.tolist()
    return [tuple(c for c, p in enumerate(parents) if p == v) for v in range(tree.n)]


print("Conditioned critical branching tree (Poisson offspring, n = 12):")
pmf = OffspringPmf.poisson(1.0)
tree = sample_conditioned_gw(pmf, 12, spec.stream(0))
print("  children lists:", children(tree))

print("\nUniform labeled tree: 11 balls in 12 boxes as outdegrees, uniform labels (n = 12):")
tree = sample_uniform_tree(12, spec.stream(1))
print("  degrees:", degrees(tree))

print("\nGrowth trees: attachment weight rho + chi * children(v)")
for rho, chi, name in ((2.0, -1, "binary search tree"),
                       (1.0, 0, "random recursive tree"),
                       (1.0, 1, "rich-get-richer tree")):
    tree = sample_pa_tree(PAParams(rho, chi), 2000, spec.stream(int(10 + rho * 2 + chi)))
    deg = degrees(tree)
    print(f"  {name:22} max degree {max(deg):4d}  leaves {sum(d == 1 for d in deg):4d}")

print("\nThe same growth rule in continuous time (births at exponential gaps):")
cmj = simulate_cmj(PAParams(1.0, 1), 8, spec.stream(20))
for v in range(cmj.tree.n):
    parent = int(cmj.tree.parents[v])
    print(f"  vertex {v} born {cmj.birth_times[v]:.3f}"
          + ("" if parent < 0 else f" to parent {parent}"))

print("\nStopped at an independent exponential time instead, the tree size is")
print("heavy tailed; singletons appear with probability (rho+chi)/(2rho+chi):")
rng = spec.stream(21)
sizes = Counter()
for _ in range(2000):
    t = simulate_cmj(PAParams(1.0, 1), 500, rng, horizon=rng.exponential(0.5)).tree
    sizes[min(t.n, 6)] += 1
for size in sorted(sizes):
    label = f"{size}" if size < 6 else ">=6"
    print(f"  size {label:>3}: {sizes[size] / 2000:.3f}")
print("  expected singleton fraction:", 2 / 3)
