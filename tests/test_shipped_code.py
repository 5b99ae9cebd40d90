"""src/chrkit ships only what runs: every definition in it has a caller.

A top-level function or class, or a method of a top-level class, has a
caller when its name is referenced in src/chrkit outside its own
definition and outside `__init__`'s re-exports, or anywhere in bench/,
which also looks names up by string (`span(verify, "project_abstract",
...)`).  Names are matched as names, not resolved, so the check finds only
definitions that nothing in the package or the benchmark names at all.
Dunder methods are called by the language and are not checked.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# definitions that stay without a caller in src/ or bench/, and why
ALLOWED = {
    "terms.eval_ground": "the kernel's evaluation entry point: `holds` "
                         "hides its errors, and tests check them directly",
    "cli._ArgumentParser.error": "argparse calls it on a usage error",
}


def _references(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            yield from ((a.name, node.lineno) for a in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def _definitions(path):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__")
                                 and m.name.endswith("__"))):
                    yield f"{node.name}.{m.name}", m


def test_every_definition_in_src_has_a_caller():
    src = sorted((ROOT / "src" / "chrkit").glob("*.py"))
    refs = {path: list(_references(path))
            for path in src + sorted((ROOT / "bench").glob("*.py"))}
    uncalled = [
        f"{path.stem}.{qualname}"
        for path in src for qualname, node in _definitions(path)
        if not any(name == node.name
                   and not (user == path
                            and node.lineno <= line <= node.end_lineno)
                   for user, names in refs.items() for name, line in names)]
    assert sorted(uncalled) == sorted(ALLOWED)


def test_no_engine_imports_the_verifier():
    """The verifier checks the engines' traces, so nothing it checks may
    lean on it: only the command line and the package's re-exports import
    `verify`, the abstract oracle included."""
    importers = set()
    for path in sorted((ROOT / "src" / "chrkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "verify" for n in names):
                importers.add(path.stem)
    assert importers == {"cli", "__init__"}
