"""Golden snapshot tests: every registered experiment's rows are pinned.

Each experiment's tiny-N output (see ``goldens.GOLDEN_SETTINGS``), and each
variant of ``goldens.GOLDEN_VARIANTS``, is checked in under
``tests/experiments/golden/``; these tests recompute the rows and
demand exact equality.  A failure means a change moved reported numbers —
if that was intended, regenerate with::

    PYTHONPATH=src python tools/regen_golden.py

and review the fixture diff.
"""

from __future__ import annotations

import json

import pytest

from tests.experiments.goldens import compute_rows, fixture_path, golden_ids


@pytest.mark.parametrize("experiment_id", golden_ids())
def test_experiment_rows_match_golden_fixture(experiment_id):
    path = fixture_path(experiment_id)
    assert path.exists(), (
        f"no golden fixture for experiment {experiment_id!r}; generate it with "
        "`PYTHONPATH=src python tools/regen_golden.py` and commit the file"
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    actual = compute_rows(experiment_id)
    assert actual == expected, (
        f"experiment {experiment_id!r} no longer reproduces its golden rows; "
        "if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tools/regen_golden.py` and review the diff"
    )


def test_every_fixture_belongs_to_a_registered_experiment():
    """Stale fixtures (renamed/removed experiments or variants) must not
    linger."""
    from repro.experiments.registry import EXPERIMENTS

    from tests.experiments.goldens import GOLDEN_DIR, GOLDEN_VARIANTS

    fixture_ids = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert fixture_ids == set(golden_ids())
    assert all(experiment in EXPERIMENTS for experiment, _ in GOLDEN_VARIANTS.values())
