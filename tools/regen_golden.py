"""Regenerate or verify the golden fixtures under tests/experiments/golden/.

Usage (from the repository root)::

    PYTHONPATH=src python tools/regen_golden.py            # all experiments
    PYTHONPATH=src python tools/regen_golden.py fig6 fig9  # a subset
    PYTHONPATH=src python tools/regen_golden.py --check    # verify, no writes

The fixtures pin the exact rows every registered experiment reports at the
tiny golden settings (see ``tests/experiments/goldens.GOLDEN_SETTINGS``),
and those of each settings variant in ``goldens.GOLDEN_VARIANTS``
(``latency-hdd`` and so on, named like the fixture files).
Regenerating is the *intentional* way to move those numbers: run this, then
review the JSON diff in version control like any other code change.

The tool fails loudly instead of silently rewriting history:

* ``--check`` recomputes every fixture, writes nothing, prints a diff
  summary per drifted fixture, and exits non-zero on any drift (or any
  missing fixture) — suitable for CI.
* Without ``--check``, any fixture whose bytes *changed* is reported in the
  exit status (1) so a regeneration that moved numbers can never be
  mistaken for a no-op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))


def _render(rows) -> str:
    return json.dumps(rows, indent=1, sort_keys=False) + "\n"


def _diff_summary(old_rows, new_rows) -> list[str]:
    """Human-sized description of what moved between two fixture row lists."""
    lines: list[str] = []
    if len(old_rows) != len(new_rows):
        lines.append(f"  row count: {len(old_rows)} -> {len(new_rows)}")
    for index, (old, new) in enumerate(zip(old_rows, new_rows)):
        if old == new:
            continue
        if isinstance(old, dict) and isinstance(new, dict):
            keys = sorted(
                set(old) | set(new),
                key=lambda key: (key not in old or key not in new, key),
            )
            changed = [
                f"{key}: {old.get(key, '<absent>')!r} -> {new.get(key, '<absent>')!r}"
                for key in keys
                if old.get(key, object()) != new.get(key, object())
            ]
            lines.append(f"  row {index}: " + "; ".join(changed[:4]))
            if len(changed) > 4:
                lines.append(f"    ... and {len(changed) - 4} more fields")
        else:
            lines.append(f"  row {index}: {old!r} -> {new!r}")
        if len(lines) >= 10:
            lines.append("  ... (diff truncated)")
            break
    return lines


def main(argv=None) -> int:
    from tests.experiments.goldens import (
        GOLDEN_DIR,
        compute_rows,
        fixture_path,
        golden_ids,
    )

    args = list(argv if argv is not None else sys.argv[1:])
    check = "--check" in args
    requested = [arg for arg in args if arg != "--check"]
    known = golden_ids()
    unknown = [name for name in requested if name not in known]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {known}")
        return 2
    targets = requested or known

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    drifted: list[str] = []
    for experiment_id in targets:
        rows = compute_rows(experiment_id)
        rendered = _render(rows)
        path = fixture_path(experiment_id)
        relative = path.relative_to(REPO_ROOT)
        existing = path.read_text(encoding="utf-8") if path.exists() else None

        if check:
            if existing == rendered:
                print(f"ok      {relative}")
                continue
            drifted.append(experiment_id)
            if existing is None:
                print(f"MISSING {relative}")
                continue
            print(f"DRIFT   {relative}")
            try:
                old_rows = json.loads(existing)
            except json.JSONDecodeError:
                print("  existing fixture is not valid JSON")
            else:
                for line in _diff_summary(old_rows, rows):
                    print(line)
            continue

        if existing == rendered:
            print(f"unchanged {relative}")
            continue
        path.write_text(rendered, encoding="utf-8")
        drifted.append(experiment_id)
        print(f"wrote   {relative} ({len(rows)} rows)")

    if drifted:
        verb = "drifted" if check else "rewrote"
        print(f"{verb} {len(drifted)}/{len(targets)} fixtures: {' '.join(drifted)}")
        return 1
    print(f"all {len(targets)} fixtures match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
