"""The package surface: the names the docs import or cite, the oracle
boundary, unused imports and private names that nothing reads."""

import ast
import importlib
import re
from pathlib import Path

import cifc_udc

PACKAGE = Path(cifc_udc.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path):
    """Every module an ``import`` or ``from ... import`` in ``path`` names,
    relative ones with their leading dots."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            if not node.module:  # from . import oracle
                yield from (base + alias.name for alias in node.names)


def promised_names():
    """Every name that a python code block of the README or a script
    imports ``from cifc_udc``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = re.findall(r"```python\n(.*?)```", readme, re.DOTALL) + [
        path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("scripts/*.py"))
    ]
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "cifc_udc":
                yield from (alias.name for alias in node.names)


def importable(name):
    """Whether ``from cifc_udc import name`` works: ``name`` is an attribute
    of the package or a submodule, which that import loads first."""
    if hasattr(cifc_udc, name):
        return True
    try:
        importlib.import_module(f"cifc_udc.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_exports_resolve_and_only_tests_reach_the_oracles():
    promised = set(promised_names())
    assert "ChannelSpec" in promised
    assert sorted(name for name in promised if not importable(name)) == []

    modules = sorted(PACKAGE.glob("*.py"))
    assert "oracle.py" in {path.name for path in modules}
    reaching = [
        (path.name, name)
        for path in modules
        if path.name != "oracle.py"
        for name in imported_modules(path)
        if name in (".oracle", "cifc_udc.oracle")
    ]
    assert reaching == []


def cited_names():
    """Every backticked dotted name of the README, such as ``pmf.MI_GUARD``
    or ``ChannelSpec.from_outputs(cards, fn)``, whose head is a module of
    the package or an exported name; file names such as ``oracle.py`` are
    not names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[`(]", readme):
        head = name.split(".")[0]
        if not name.endswith(".py") and (
            head in modules or not head.startswith("_") and hasattr(cifc_udc, head)
        ):
            yield name


def resolves(name):
    """Whether a dotted name resolves from a package module or export."""
    head, *rest = name.split(".")
    try:
        obj = importlib.import_module(f"cifc_udc.{head}")
    except ModuleNotFoundError:
        obj = getattr(cifc_udc, head)
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_names_the_readme_cites_resolve():
    cited = set(cited_names())
    assert {"pmf.clip_information", "ChannelSpec.from_outputs"} <= cited
    assert sorted(name for name in cited if not resolves(name)) == []


def unused_imports(path):
    """Names an import in ``path`` binds that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_uses():
    # the imports of __init__.py are the package's exports
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert unused == {}


def module_privates(tree):
    """The ``_name``s a module binds at its top level, dunders apart."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_name_is_read():
    """A module-level ``_name`` that no runtime module reads, as a name or
    as an attribute, has outlived its last caller."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "oracle.py"
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        (name, private)
        for name, tree in trees.items()
        for private in module_privates(tree)
        if private not in read
    ]
    assert unread == []
