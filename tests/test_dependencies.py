"""qrec has no dependencies: every module imports only the standard library
and qrec itself.  It also carries no unreached code: every top-level
definition is named elsewhere in qrec or exported, every parameter and every
imported name is read, and its CLI imports no module that no job runs, since
every invocation pays its import."""
import ast
import subprocess
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


def test_every_top_level_definition_is_named_in_qrec_or_exported():
    """A function or class that no other statement of qrec names, and that
    qrec does not export, is code no subcommand reaches.  A name counts when
    it is read, or read as an attribute of a qrec module (`linrec.numerator`);
    an assigned name or an attribute of anything else (a namedtuple field of
    the same name) does not."""
    modules = {path.stem for path in MODULES}
    statements = [stmt for path in MODULES
                  for stmt in ast.parse(path.read_text(), str(path)).body]
    named = [{node.id if isinstance(node, ast.Name) else node.attr
              for node in ast.walk(stmt)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules}
             for stmt in statements]
    unreached = [stmt.name for stmt, own in zip(statements, named)
                 if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and stmt.name not in qrec.__all__
                 and not any(stmt.name in other for other in named if other is not own)]
    assert not unreached


def test_every_parameter_is_read():
    """A parameter that its function's body never reads (nested functions
    included) is an input that changes nothing; self and cls are exempt."""
    unread = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            read = {name.id for stmt in node.body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unread += [f"{path.stem}.{node.name}({arg.arg})" for arg in params
                       if arg.arg not in ("self", "cls") and arg.arg not in read]
    assert not unread


def test_every_imported_name_is_read():
    """An imported name that its module never reads, as a name or as the
    base of an attribute, is a leftover of deleted code.  __future__
    imports, and the names __init__ lists in __all__, are exempt."""
    unread = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        bound = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.stem == "__init__":
            read |= set(qrec.__all__)
        unread += [f"{path.stem}.{name}" for name in bound if name not in read]
    assert not unread


def test_the_cli_imports_no_module_that_no_job_runs():
    """dataclasses, typing and inspect (which dataclasses pulls in) cost
    about half of a fresh import of qrec.cli, and no job uses them."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qrec.cli; "
            "print(' '.join(sorted(sys.modules)))")
    src = str(Path(qrec.__file__).parent.parent)
    loaded = subprocess.run([sys.executable, "-I", "-S", "-c", code, src], check=True,
                            capture_output=True, text=True).stdout.split()
    assert "qrec.cli" in loaded
    assert not {"dataclasses", "typing", "inspect"} & set(loaded)
