"""Sweeping the construction checks, and proving they can fail.

Every structural claim about the gadgets is an executable check that sweeps
instances and reports pass/fail/skip with a concrete counterexample on
failure.  The corruption helpers break gadgets in targeted ways, which is
how the checks themselves are kept honest.
"""

from collections import Counter

from rvckit import (
    build_gadget,
    check_lift_validity,
    check_nonpair_distances,
    check_pair_distances,
    corrupt_base_cut,
    corrupt_shortcut,
    corrupt_unhook,
    decide_subset_rvc,
    pair_set,
    path_graph,
    run_suite,
)

# The core suite: distances, confinement, lift validity, level-2
# equivalence, and pendant equivalence, over small instances.
reports = run_suite("core")
tally = Counter(r.status for r in reports)
print("core suite:", dict(tally))
for r in reports[:3]:
    print(" ", r.status.upper(), r.check, r.instance)

# Now break things on purpose.  Each corruption targets one claim.
g = path_graph(3)
p = pair_set([(0, 1)])
gg = build_gadget(g, p, 2)
witness = decide_subset_rvc(g, p, 2).witness  # a source coloring to lift

shortcut = corrupt_shortcut(gg)  # an edge that undercuts a requested detour
print("\nshortcut corruption:", check_pair_distances(shortcut).detail)

unhooked = corrupt_unhook(gg)  # detaches a non-requested pair's shortcut
print("unhook corruption:", check_nonpair_distances(unhooked).detail)

cut = corrupt_base_cut(gg)  # removes a requested base edge
print("base-cut corruption:", check_lift_validity(cut, witness).detail)

# The healthy gadget passes all three, of course.
print(
    "\nhealthy gadget:",
    check_pair_distances(gg).status,
    check_nonpair_distances(gg).status,
    check_lift_validity(gg, witness).status,
)
