import ast
import os
import subprocess
import sys
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


def test_no_module_uses_a_private_attribute_defined_elsewhere():
    # e.g. a loss recording through ``tape._record`` instead of ``Tape.record``
    offenders = []
    for path in sorted(Path(stdnet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = set()  # names this module defines, assigns as attributes or lists in __slots__
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                own.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                own.add(node.value)
        offenders += [f"{path.name}: .{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                      and not node.attr.endswith("__") and node.attr not in own]
    assert offenders == []


def test_import_does_not_load_scipy_spatial():
    # scipy.spatial costs ~0.2 s of CPU to import; only the nearest-neighbour
    # search (chamfer and F1) needs it.
    code = "import sys, stdnet; print('scipy.spatial' in sys.modules)"
    src = str(Path(stdnet.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
