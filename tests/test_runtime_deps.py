"""The runtime is dependency-free Python: every module of the package imports
only the standard library, and itself through relative imports.  Its
behaviour is set by the config file and the command line alone: no module
reads an environment variable."""
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
