"""The declared dependency floor holds: the package calls no numpy
function newer than the `numpy>=` floor in pyproject.toml."""

import re
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
