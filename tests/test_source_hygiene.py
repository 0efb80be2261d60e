"""Source hygiene of the package, checked with the standard library's ``ast``.

Deletions tend to leave an import, a private helper or a module constant
behind; three checks find them without a linter.  A fourth lists the public
functions and classes that only unit tests reach, and a fifth that the
benchmark's tracer wraps each of them.  A sixth keeps the
brute-force oracle independent of the code it checks, and a seventh
keeps the positivity floor in one module.  Three more keep the
error contract: the package raises only its own error types, and only the
CLI prints and touches files.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "iqcontrol"
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree):
    """Module-level names bound by import statements (not __future__)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def read_names(tree):
    """Every name read as a variable (Load context) or as an attribute."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def referenced_names(tree):
    """Every name read, and every __all__ entry."""
    refs = read_names(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            refs.update(ast.literal_eval(node.value))
    return refs


def module_constants(tree):
    """UPPERCASE names bound by module-level assignments."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return {t.id for t in targets
            if isinstance(t, ast.Name) and t.id.isupper()}


def package_imports(tree):
    """The package's modules that a module imports, relative or absolute."""
    paths = []  # dotted names as lists, relative imports made absolute
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths += [a.name.split(".") for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (["iqcontrol"] if node.level else []) + [
                part for part in (node.module or "").split(".") if part]
            paths += [base + [a.name] for a in node.names]
    return {p[1] if len(p) > 1 else p[0]
            for p in paths if p[0] == "iqcontrol"}


def raised_names(tree):
    """Class names of the raise statements, None for a bare re-raise."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(None if exc is None else
                         getattr(exc, "id", None) or getattr(exc, "attr", None))
    return names


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "nlevel.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    assert sorted(imported_names(tree) - referenced_names(tree)) == []


def test_every_private_definition_is_referenced():
    trees = {p.name: parse(p) for p in MODULES}
    refs = set().union(*map(referenced_names, trees.values()))
    unused = [f"{name}:{node.name}" for name, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in refs]
    assert unused == []


def test_every_constant_is_read():
    # the assignment itself is a store, so it does not count as a read
    trees = {p.name: parse(p) for p in MODULES}
    reads = set().union(*map(read_names, trees.values()))
    unread = [f"{name}:{const}" for name, tree in trees.items()
              for const in sorted(module_constants(tree)) if const not in reads]
    assert unread == []


# Public names that no mode, other module or acceptance criterion reads;
# the list may only shrink.  Each stays only while the benchmark's tracer
# wraps it.
UNREACHED_PUBLIC = {
    "qubit.conditional_unitaries", "qubit.overlap_angles",
    "qubit.spectral_form",
}


def test_public_definitions_reached_outside_unit_tests():
    # a name counts as read when some other top-level statement of src/,
    # or the acceptance tests, read it; a re-export in __init__ does not
    tops = [(p.stem, node, read_names(node))
            for p in MODULES for node in parse(p).body]
    acceptance = read_names(parse(SRC.parents[1] / "tests"
                                  / "test_acceptance.py"))
    unreached = {f"{mod}.{node.name}" for mod, node, _ in tops
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")
                 and node.name not in acceptance
                 and not any(node.name in reads
                             for _, other, reads in tops if other is not node)}
    assert unreached == UNREACHED_PUBLIC


def test_unreached_public_names_are_traced():
    # iqbench/tracing.py's WRAPPED maps module -> function names; read it
    # as a literal, so the tracer is neither imported nor run
    tree = parse(SRC.parents[1] / "iqbench" / "tracing.py")
    wrapped, = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "WRAPPED"
                        for t in node.targets)]
    traced = {f"{mod}.{name}" for mod, names in wrapped.items()
              for name in names}
    assert sorted(UNREACHED_PUBLIC - traced) == []


def test_oracle_imports_no_decomposition_code():
    # verify is the independent check of the closed forms and solvers: it
    # may use the kernel primitives and the error types, nothing else
    mods = package_imports(parse(SRC / "verify.py"))
    assert mods and mods <= {"opkit", "errors"}


def test_only_opkit_reads_the_psd_floor():
    # every other module asks opkit.require_psd for the verdict
    readers = [p.name for p in MODULES if "PSD_FLOOR" in read_names(parse(p))]
    assert readers == ["opkit.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raises_only_package_errors(path):
    # the CLI turns exactly these into one "error:" line and exit 1
    allowed = {node.name for node in parse(SRC / "errors.py").body
               if isinstance(node, ast.ClassDef)}
    if path.name == "cli.py":
        allowed.add("ConfigError")
    allowed.add(None)
    assert [n for n in raised_names(parse(path)) if n not in allowed] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_prints(path):
    prints = [node.lineno for node in ast.walk(parse(path))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert prints == [] or path.name == "cli.py"


FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_opens_files(path):
    # the CLI turns a failed read or write into one "error:" line
    calls = [node.lineno for node in ast.walk(parse(path))
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "open"
                  or getattr(node.func, "attr", None) in FILE_CALLS)]
    assert calls == [] or path.name == "cli.py"
