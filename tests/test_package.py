"""Package-wide hygiene: bounded caches, no unused imports, no process pool, and the identities import boundary."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import affinesl2

MODULES = [importlib.import_module(f"affinesl2.{m.name}") for m in pkgutil.iter_modules(affinesl2.__path__)]


def test_every_cache_is_a_bounded_lru_cache():
    """Each cached builder has a finite maxsize, and no module keeps a dict as a cache."""
    cached = {}
    for mod in MODULES:
        for name, value in vars(mod).items():
            if hasattr(value, "cache_parameters"):
                cached[f"{mod.__name__}.{name}"] = value.cache_parameters()["maxsize"]
            assert not (isinstance(value, dict) and not name.startswith("__")), f"{mod.__name__}.{name} is a dict"
    assert all(isinstance(size, int) and size > 0 for size in cached.values()), cached
    builders = {
        "affinesl2.cyclotomic": ["cyclotomic_poly", "reduction_rows", "_embed_roots"],
        "affinesl2.wzwrep": [
            "_tables", "rho_S", "_sqrt_table",
            "_prime_tables", "_sqrt_planes", "_theorem1_tables",
        ],
        "affinesl2.identities": ["_gauss_sum", "_sin_value"],
    }
    for mod, names in builders.items():
        for name in names:
            assert f"{mod}.{name}" in cached, f"{mod}.{name} is not cached"


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used | exported]


def test_no_unused_imports():
    """Every name a source module imports is used in it or listed in its __all__."""
    src = Path(affinesl2.__file__).parent
    unused = [entry for path in sorted(src.glob("*.py")) for entry in _unused_imports(path)]
    assert unused == []


def _imports(path, module):
    """True when the source at path imports a module with the name component module, in any import form."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from .identities import x" names the module, "from . import identities" an alias
            names = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(module in name.split(".") for name in names):
            return True
    return False


def test_only_identities_imports_identities():
    """The paper's closed forms stay checked identities: no other source module imports them."""
    src = Path(affinesl2.__file__).parent
    importers = [path.name for path in sorted(src.glob("*.py")) if _imports(path, "identities")]
    assert importers == []


def test_no_module_imports_a_process_pool():
    """The kernel sweep runs in one process: no source module imports concurrent or multiprocessing."""
    src = Path(affinesl2.__file__).parent
    pools = ("concurrent", "multiprocessing")
    importers = [path.name for path in sorted(src.glob("*.py")) if any(_imports(path, pool) for pool in pools)]
    assert importers == []


def test_importing_the_package_loads_no_process_pool():
    """Importing the package loads no concurrent.futures."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(affinesl2.__file__)))
    code = "import sys, affinesl2; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_the_exact_route_builds_no_cyclotomic_reduction_rows():
    """rho_S, rho_T, an off-stratum rho_closed and enumerate_kernel build their tables in int64, not via Cyclotomic."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(affinesl2.__file__)))
    code = """
from affinesl2 import cyclotomic
from affinesl2.galois_kernel import enumerate_kernel
from affinesl2.modgroup import ResidueMatrix
from affinesl2.wzwrep import dispatch_path, rho_closed, rho_S, rho_T
r = ResidueMatrix(104, 1, 0, 2, 1)
assert dispatch_path(r, 13) != "theorem1"
rho_S(13), rho_T(13), rho_closed(r, 13), enumerate_kernel(5)
print(cyclotomic.reduction_rows.cache_info().currsize)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
