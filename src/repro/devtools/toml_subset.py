"""The TOML subset this package reads where :mod:`tomllib` is missing.

Python 3.11 ships :mod:`tomllib`; the 3.9 CI leg has no TOML parser and
the package takes no third-party dependency, so the scenario packs
(:func:`repro.scenarios.spec.load_toml_file`) and the analyzer's
``[tool.csawanalyze]`` tables (:mod:`repro.devtools.config`) fall back to
this one.  The subset covers ``[table]``, ``[[array-of-tables]]``, nested
dotted headers, bare keys, ``"..."`` strings (escapes are not decoded),
ints, floats, booleans, homogeneous arrays and ``#`` comments outside
strings.  Inline tables, dotted or literal-quoted keys, ``'...'``
strings and other values it cannot read raise :class:`ValueError`.

A leaf module: it and its package import only the standard library, so
the analyzer can use it without importing the simulator.
"""

import re
from typing import Any, Dict, List

__all__ = ["parse"]


_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def parse(text: str, path: str = "<toml>") -> Dict[str, Any]:
    """Parse ``text`` (read from ``path``, which errors name).

    Raises :class:`ValueError` naming the path and, for a bad value, the
    line.
    """
    root: Dict[str, Any] = {}
    current = root
    lines = text.split("\n")
    index = 0
    while index < len(lines):
        line = _strip_comment(lines[index]).strip()
        index += 1
        if not line:
            continue
        if line.startswith("[[") and line.endswith("]]"):
            parts = _header_parts(line[2:-2], path)
            parent = _navigate(root, parts[:-1], path)
            items = parent.setdefault(parts[-1], [])
            if not isinstance(items, list):
                raise ValueError(f"{path}: {line!r} conflicts with earlier value")
            current = {}
            items.append(current)
        elif line.startswith("[") and line.endswith("]"):
            parts = _header_parts(line[1:-1], path)
            current = _navigate(root, parts, path)
        else:
            line_no = index  # 1-based: index was already advanced
            if "=" not in line:
                raise ValueError(
                    f"{path}: cannot parse line {line_no}: {line!r}"
                )
            key, _, raw = line.partition("=")
            key = key.strip().strip('"')
            if not _BARE_KEY.match(key):
                raise ValueError(f"{path}: unsupported key {key!r}")
            raw = raw.strip()
            # Multiline arrays: keep appending lines until brackets balance.
            while raw.count("[") > raw.count("]"):
                if index >= len(lines):
                    raise ValueError(f"{path}: unterminated array for {key!r}")
                raw += " " + _strip_comment(lines[index]).strip()
                index += 1
            try:
                current[key] = _parse_value(raw.strip(), path)
            except ValueError as err:
                raise ValueError(f"{err} (line {line_no})") from None
    return root


def _strip_comment(line: str) -> str:
    in_string = False
    for pos, char in enumerate(line):
        if char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            return line[:pos]
    return line


def _header_parts(header: str, path: str) -> List[str]:
    parts = [part.strip().strip('"') for part in header.strip().split(".")]
    if not all(_BARE_KEY.match(part) for part in parts):
        raise ValueError(f"{path}: unsupported table header {header!r}")
    return parts


def _navigate(root: Dict[str, Any], parts: List[str], path: str) -> Dict[str, Any]:
    node: Any = root
    for part in parts:
        if isinstance(node, list):
            node = node[-1]
        nxt = node.get(part)
        if nxt is None:
            nxt = node.setdefault(part, {})
        node = nxt
    if isinstance(node, list):
        node = node[-1]
    if not isinstance(node, dict):
        raise ValueError(f"{path}: table path {'.'.join(parts)!r} is not a table")
    return node


_FLOAT = re.compile(r"^[+-]?(\d[\d_]*\.[\d_]*([eE][+-]?\d+)?|\d[\d_]*[eE][+-]?\d+)$")
_INT = re.compile(r"^[+-]?\d[\d_]*$")


def _parse_value(raw: str, path: str) -> Any:
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw == "true":
        return True
    if raw == "false":
        return False
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [
            _parse_value(part.strip(), path)
            for part in _split_array(inner, path)
        ]
    if _INT.match(raw):
        return int(raw.replace("_", ""))
    if _FLOAT.match(raw):
        return float(raw.replace("_", ""))
    raise ValueError(f"{path}: cannot parse value {raw!r}")


def _split_array(inner: str, path: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    in_string = False
    start = 0
    for pos, char in enumerate(inner):
        if char == '"':
            in_string = not in_string
        elif in_string:
            continue
        elif char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(inner[start:pos])
            start = pos + 1
    tail = inner[start:].strip()
    if tail:
        parts.append(inner[start:])
    return parts
