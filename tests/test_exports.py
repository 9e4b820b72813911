"""The package's export list against what its ``__init__`` imports."""

import ast
import inspect

import sparseact


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(inspect.getsource(sparseact))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    public = sorted(name for name in imported if not name.startswith("_"))
    assert len(set(sparseact.__all__)) == len(sparseact.__all__)
    assert sorted(sparseact.__all__) == public
    assert all(hasattr(sparseact, name) for name in sparseact.__all__)
