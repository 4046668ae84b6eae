"""README's Library tour runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    printed, names = io.StringIO(), {}
    with contextlib.redirect_stdout(printed):
        exec(compile(tour, str(README), "exec"), names)
    mass, rn = map(float, printed.getvalue().split())
    assert mass == pytest.approx(1 / 12, rel=1e-14)
    assert rn == pytest.approx(3.0, rel=1e-14)
    assert names["err"] == pytest.approx(names["dec"].final_residual_l1, abs=1e-12)
