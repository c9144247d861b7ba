"""Developer tooling that keeps the simulation stack honest.

The tool is ``csaw-analyze`` (:mod:`repro.devtools.analyze`): one AST
pass over the tree that turns the repo's determinism and purity
conventions — named RNG streams, no wall-clock in simulated time,
ordered iteration wherever order can escape into reports, no shared
state reaching process-pool workers — into machine-checked invariants.
Per-file rules live in :mod:`.rules`, whole-program rules in
:mod:`.analyze.rules`, and both register in :mod:`.framework`.  See
DESIGN.md §7 for the rule catalogue and the paper invariant each rule
protects.
"""
