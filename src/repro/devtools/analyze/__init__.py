"""csaw-analyze: the determinism analyzer for the C-Saw stack.

One pass builds a project index (:mod:`.index`) that both rule
families read: the per-file CSL rules (:mod:`repro.devtools.rules`) run
on each indexed module, and the whole-program CSA rules (:mod:`.rules`)
run on the index and a conservative call graph with a
worker-reachability closure (:mod:`.callgraph`).  Entry points: the
``csaw-analyze`` console script and ``python -m repro.devtools.analyze``
(:mod:`.main`).
"""
