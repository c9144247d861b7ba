"""Analysis helpers: percentiles, summaries, seed claims, table rendering."""

from .planes import (
    plane_convergence_curves,
    plane_mix_rows,
    render_plane_mix,
    voting_robustness,
)
from .plt_decomposition import decompose, render_plt_decomposition
from .robustness import claim_holds
from .stats import Summary, mean, median, percentile, summarize
from .tables import format_seconds, render_table

__all__ = [
    "claim_holds",
    "Summary",
    "mean",
    "median",
    "percentile",
    "summarize",
    "format_seconds",
    "render_table",
    "decompose",
    "render_plt_decomposition",
    "plane_convergence_curves",
    "plane_mix_rows",
    "render_plane_mix",
    "voting_robustness",
]
