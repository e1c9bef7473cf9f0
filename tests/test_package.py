import ast
from pathlib import Path

import stdnet


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(Path(stdnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("stdnet"):
                continue
            offenders += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert offenders == []
