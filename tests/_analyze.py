"""In-memory entry points to ``csaw-analyze`` for the analyzer tests.

The CLI analyzes files on disk (``build_project`` + ``analyze_project``);
the tests also feed it source strings, under a path that drives the
rules' scope and allow matching.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.devtools.analyze.index import ProjectIndex
from repro.devtools.analyze.main import _project, analyze_project, build_project
from repro.devtools.config import ToolConfig
from repro.devtools.framework import Violation


def analyze_paths(
    paths: Sequence[str], config: Optional[ToolConfig] = None
) -> List[Violation]:
    return analyze_project(build_project(paths, config))


def analyze_source(
    source: str, path: str, config: Optional[ToolConfig] = None
) -> List[Violation]:
    """Analyze one in-memory module; ``path`` drives scope/allow matching."""
    config = config or ToolConfig()
    index = ProjectIndex(root=os.path.abspath(config.root))
    index.add_source(source, path)
    index.finalize()
    return analyze_project(_project(index, config))
