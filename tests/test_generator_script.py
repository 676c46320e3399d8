"""The committed Daubechies and symlet tables are what the generator script derives."""
import importlib.util
from pathlib import Path

import pytest

from tfsep._filter_tables import SCALING_FILTERS

SCRIPT = Path(__file__).parents[1] / "scripts" / "generate_filter_tables.py"


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("generate_filter_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, family, p", [("haar", "daubechies", 1)]
                         + [(f"db{p}", "daubechies", p) for p in range(1, 21)]
                         + [(f"sym{p}", "symlet", p) for p in range(2, 21)])
def test_table_rebuilds_bit_for_bit(generator, name, family, p):
    # no coiflet here: their high-precision polish does not yet converge reliably
    rebuilt = tuple(float(tap) for tap in getattr(generator, family)(p))
    assert rebuilt == SCALING_FILTERS[name]
