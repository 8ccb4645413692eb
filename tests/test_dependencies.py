"""qrec has no dependencies: every module imports only the standard library
and qrec itself."""
import ast
import sys
from pathlib import Path

import qrec

MODULES = sorted(Path(qrec.__file__).parent.glob("*.py"))


def test_every_import_is_the_standard_library_or_qrec():
    assert MODULES
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "qrec", (path.name, name)
