import ast
from pathlib import Path

import proxgn


def test_all_is_exactly_what_the_package_imports():
    tree = ast.parse(Path(proxgn.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(proxgn.__all__) == sorted(imported)
    for name in proxgn.__all__:
        assert getattr(proxgn, name) is not None
