"""The README's code runs as written against the library it documents."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_and_keeps_observed_cells():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    rng = np.random.default_rng(3)
    values = rng.normal(size=(40, 4)) * [1.0, 10.0, 0.1, 3.0] + [0.0, 5.0, -2.0, 1.0]
    holed = np.where(rng.random(values.shape) < 0.2, np.nan, values)
    scope = {"values_with_nan": holed}
    exec(compile(blocks[0], str(README), "exec"), scope)
    filled = scope["filled"]
    observed = ~np.isnan(holed)
    assert filled[observed].tobytes() == holed[observed].tobytes()
    # every row with an observed cell gets all of its missing cells filled
    assert not np.isnan(filled[observed.any(axis=1)]).any()
