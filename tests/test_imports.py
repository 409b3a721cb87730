"""Every name a module of ``src/delayopt`` imports is used in that module,
the package root exports only its version, and the harness and the CLI load
no process-pool module until a run asks for one, and no module outside the
numpy-only runtime.

Two kinds of binding are exempt: a package ``__init__`` imports names to
re-export them, and the benchmark's tracer (``bench/instrument.py``
``TRACE_SITES``) replaces some module bindings by name, so those must exist
even where the module itself does not call them.
"""

import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "delayopt")


def trace_sites() -> set[tuple[str, str]]:
    """(module, binding) pairs the tracer replaces, read without running it."""
    with open(os.path.join(ROOT, "bench", "instrument.py")) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACE_SITES":
            return {(mod, attr) for mod, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/instrument.py defines no TRACE_SITES")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds, with its line; ``__future__`` imports excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def package_modules():
    for folder, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                path = os.path.join(folder, name)
                rel = os.path.relpath(path, os.path.dirname(PACKAGE))
                yield rel[:-3].replace(os.sep, "."), path


def test_no_unused_imports_in_src():
    traced = trace_sites()
    unused = []
    for module, path in package_modules():
        with open(path) as f:
            tree = ast.parse(f.read())
        used = used_names(tree)
        for name, line in imported_names(tree).items():
            if name not in used and (module, name) not in traced:
                unused.append(f"{module}:{line} {name}")
    assert not unused, "unused imports: " + ", ".join(unused)


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Any, Optional\nx: 'Optional[int]' = os.sep\n")
    assert set(imported_names(tree)) - used_names(tree) == {"Any"}


def test_the_package_root_exports_only_its_version():
    # every caller imports a submodule; the root imports none of them
    with open(os.path.join(PACKAGE, "__init__.py")) as f:
        tree = ast.parse(f.read())
    assert not imported_names(tree)
    assigned = [target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets]
    assert assigned == ["__version__"]


def test_importing_the_harness_loads_no_process_pool():
    # only a parallel run needs the pool; its modules take tens of ms to load.
    # numpy is the only runtime dependency: scipy, hypothesis and pytest are
    # for the tests alone
    code = ("import sys, delayopt.harness, delayopt.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'scipy', 'hypothesis', 'pytest')"
            " if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
