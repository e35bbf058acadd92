"""The runtime is dependency-free Python: every module of the package imports
only the standard library, and itself through relative imports.  Its
behaviour is set by the config file and the command line alone: no module
reads an environment variable.  Its public API is declared once: a module's
``__all__`` names only what the module defines, and the package root imports
only names that a module exports."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "equiflow"


def absolute_imports(path: Path):
    """Top-level names of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules found under {SRC}"
    outside = sorted(
        f"{path.name}: {name}"
        for path in modules
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    )
    assert outside == []


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: Path):
    """Line numbers of every ``os.environ``/``os.getenv`` reference or import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENVIRONMENT_READERS for alias in node.names):
                yield node.lineno


def test_package_reads_no_environment_variables():
    reads = sorted(
        f"{path.name}:{line}" for path in SRC.glob("*.py") for line in environment_reads(path)
    )
    assert reads == []


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(tree: ast.Module) -> list[str] | None:
    """The literal ``__all__`` of a module, or None when it declares none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def defined(tree: ast.Module):
    """Names that a module's own top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def package_exports() -> dict[str, list[str]]:
    trees = {path.stem: parse(path) for path in SRC.glob("*.py")}
    return {name: names for name, tree in trees.items() if (names := exported(tree)) is not None}


def test_every_exported_name_is_defined_in_its_module():
    assert package_exports(), f"no module under {SRC} declares __all__"
    stale = sorted(
        f"{module}.{name}"
        for module, names in package_exports().items()
        for name in set(names) - set(defined(parse(SRC / f"{module}.py")))
    )
    assert stale == []


def test_package_root_imports_only_exported_names():
    exports = package_exports()
    imports = [node for node in parse(SRC / "__init__.py").body if isinstance(node, ast.ImportFrom)]
    assert imports, "the package root imports nothing"
    stale = sorted(
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if node.level == 1 and alias.name not in exports.get(node.module, ())
    )
    assert stale == []
