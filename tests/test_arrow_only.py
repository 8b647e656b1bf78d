"""The engine has one batch format: no module under ``uci_searchengine_ray/``
imports pandas, asks Ray Data for ``batch_format="pandas"`` or calls
``.to_pandas()``.  Parsed with ``ast``, so docstrings and comments may still
name pandas; no Ray session is needed."""

from __future__ import annotations

import ast
import os

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "uci_searchengine_ray")


def _pandas_uses(tree: ast.AST) -> list:
    """(line, what) for each pandas import, pandas batch format and
    ``.to_pandas()`` call in one parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        found += [(node.lineno, f"import {n}") for n in names
                  if n.split(".")[0] == "pandas"]
        if (isinstance(node, ast.keyword) and node.arg == "batch_format"
                and getattr(node.value, "value", None) == "pandas"):
            found.append((node.value.lineno, 'batch_format="pandas"'))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "to_pandas"):
            found.append((node.lineno, ".to_pandas()"))
    return found


def test_the_check_finds_each_pandas_use():
    src = (
        "import pandas as pd\n"
        "from pandas.api import types\n"
        "ds.map_batches(f, batch_format='pandas')\n"
        "df = ds.to_pandas()\n"
        '"""pandas in a docstring"""\n'
        "ds.map_batches(f, batch_format='pyarrow')\n"
    )
    assert [w for _, w in sorted(_pandas_uses(ast.parse(src)))] == [
        "import pandas", "import pandas.api", 'batch_format="pandas"',
        ".to_pandas()",
    ]


def test_engine_uses_no_pandas():
    found = []
    for d, _, files in os.walk(PKG):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
                rel = os.path.relpath(path, PKG)
                found += [f"{rel}:{ln}: {w}" for ln, w in _pandas_uses(tree)]
    assert found == []
