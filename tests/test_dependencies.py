"""The declared dependency floor holds: the package calls no numpy
function newer than the `numpy>=` floor in pyproject.toml, loading and
fusion import no numpy submodule they do not need (and no module calls
`np.unique`, which would import one), no module imports a name it never
uses, and no module binds a top-level name twice."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# top-level numpy functions that numpy 2.x added
NUMPY_2_NAMES = frozenset({
    "bitwise_count", "unique_all", "unique_counts", "unique_inverse", "unique_values",
    "vecdot", "matrix_transpose", "permute_dims", "astype", "concat", "isdtype", "pow",
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "bitwise_left_shift",
    "bitwise_right_shift", "bitwise_invert", "cumulative_sum", "cumulative_prod",
    "unstack", "matvec", "vecmat",
})


def numpy_floor():
    spec = re.search(r'"numpy>=([0-9.]+)"', (ROOT / "pyproject.toml").read_text())
    return tuple(int(part) for part in spec.group(1).split("."))


def test_numpy_calls_within_the_declared_floor():
    assert numpy_floor() >= (1, 24)
    newer = NUMPY_2_NAMES if numpy_floor() < (2,) else frozenset()
    used = {(path.name, name)
            for path in sorted((ROOT / "src").rglob("*.py"))
            for name in re.findall(r"\bnp\.(\w+)", path.read_text())}
    assert {(file, name) for file, name in used if name in newer} == set()
    # the scan sees the package's numpy calls
    assert ("exact.py", "bincount") in used


NUMPY_MA_SCRIPT = """
import sys
from pathlib import Path
from multitruth import PriorConfig, iterate
from multitruth.io import load_claims, write_claims_csv
from multitruth.methods import fusion_backend
from multitruth.synth import SynthConfig, generate, truth_count_distribution

narrow = SynthConfig(num_items=20, truth_count_max=2, false_domain_size=4, extra_ratio=0.6,
                     source_accuracy=0.9, source_recall=0.9, rng_seed=1)
for method in ("hybrid", "hybrid-exact", "accu", "precrec", "twostep", "majority"):
    cfg = narrow if method == "hybrid-exact" else SynthConfig(num_items=20, rng_seed=1)
    prior = PriorConfig(n=10, alpha=0.25, truth_count_dist=truth_count_distribution(cfg))
    path = Path(sys.argv[1]) / f"{method}.csv"
    write_claims_csv(generate(cfg)[0], path)
    iterate(load_claims(path)[0], prior, fusion_backend(method))
print("numpy.ma" in sys.modules)
"""


def test_fusion_does_not_import_numpy_ma(tmp_path):
    # `np.unique` imports numpy.ma on its first call, which costs about
    # 1.2 MB of resident memory in a short run; the script loads claims
    # files, groups them and fuses them with every method
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NUMPY_MA_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


def numpy_unique_uses(source: str):
    """Lines of a module that name numpy's `unique` or one of its
    `unique_*` variants, all of which import numpy.ma."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr.startswith("unique")
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                  or isinstance(node, ast.ImportFrom) and node.module == "numpy"
                  and any(a.name.startswith("unique") for a in node.names))


def test_no_module_calls_numpy_unique():
    assert numpy_unique_uses("import numpy as np\nx = np.sort([1])\ny = np.unique(x)\n"
                             "z = numpy.unique_counts(x)\nfrom numpy import unique\n") == [3, 4, 5]
    assert numpy_unique_uses("import numpy as np\nkeys = np.sort(x)\nunique = keys.unique\n") == []
    uses = {path.name: numpy_unique_uses(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src").rglob("*.py"))}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def unused_imports(source: str):
    """Names a module imports at its top level and never reads, nor lists
    in `__all__`; imports marked `# noqa: F401` and `__future__` are
    skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or isinstance(node, ast.ImportFrom) and node.module == "__future__"
                or "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno])):
            continue
        unused += [name for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                   if name not in used]
    return unused


def test_every_module_level_import_is_used():
    assert unused_imports("import os\nfrom typing import Any, List\nx: List = os.sep\n") == ["Any"]
    assert unused_imports("import os.path\nimport re  # noqa: F401\n__all__ = ['os']\n") == []
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted((ROOT / "src" / "multitruth").glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def names_bound_twice(source: str):
    """Names that a module's top-level statements bind more than once, by
    `def`, `class`, assignment or import; `__future__` imports bind none."""
    seen, twice = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if isinstance(node, ast.AnnAssign) and node.value is None:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        twice += [name for name in names if name in seen]
        seen.update(names)
    return twice


def test_no_module_level_name_is_bound_twice():
    assert names_bound_twice(
        "import math\ndef fuse(c):\n    return c\nX = 1\n\ndef fuse(c):\n    return math.e\n"
    ) == ["fuse"]
    assert names_bound_twice(
        "from __future__ import annotations\nimport os.path\nfrom typing import Any\n"
        "A, B = 1, 2\nC: Any = A\nD: int\nclass E:\n    A = 3\ndef f(x):\n    B = x\n") == []
    twice = {path.name: names_bound_twice(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "multitruth").glob("*.py"))}
    assert {name: names for name, names in twice.items() if names} == {}
