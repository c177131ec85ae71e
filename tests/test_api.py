"""The package's public names, and the README's Python API block."""

import re
from pathlib import Path

import pytest

import fdhscale as f

README = Path(__file__).resolve().parents[1] / "README.md"

# per-quantity functions replaced by the one entry point per quantity, the
# per-regime score scans replaced by shared reductions per orientation, and
# the error of a global class that every efficient unit has
REMOVED = {
    "errors": ("UnclassifiableError",),
    "efficiency": ("compute_scores", "is_mpss", "_theta", "_phi", "_scores", "_at_mpss"),
    "scale": ("sigma_plus", "sigma_minus", "SigmaResult"),
    "rts": ("right_rts", "left_rts", "grs", "_frontier_pool"),
    "technology": ("is_efficient", "_dominates"),
}


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from fdhscale import *", namespace)
    assert set(f.__all__) <= set(namespace)


def test_all_has_no_duplicates_and_names_real_attributes():
    assert len(f.__all__) == len(set(f.__all__))
    assert [name for name in f.__all__ if not hasattr(f, name)] == []


@pytest.mark.parametrize(
    "module,name", [(mod, name) for mod, names in REMOVED.items() for name in names]
)
def test_removed_names_are_gone(module, name):
    assert name not in f.__all__
    assert not hasattr(f, name)
    assert not hasattr(getattr(f, module), name)


def test_readme_python_api_block_runs(stair_csv):
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert '"units.csv"' in block
    exec(block.replace('"units.csv"', repr(str(stair_csv))), {})
