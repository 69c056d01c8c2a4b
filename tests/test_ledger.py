"""Outputs stay where the ledger (tests/data/outputs.json) has them."""

import json

from ledger import LEDGER, compute

TOLERANCE = 1e-12  # relative, per figure


def movements(want: dict, got: dict) -> dict:
    """{"cell figure name": relative movement} over every figure."""
    out = {}
    for cell, figs in want.items():
        for kind, values in figs.items():
            for name, text in values.items():
                old, new = float.fromhex(text), float.fromhex(got[cell][kind][name])
                out[f"{cell} {kind} {name}"] = abs(new - old) / abs(old) if old else abs(new)
    return out


def test_outputs_match_the_ledger():
    want = json.loads(LEDGER.read_text())
    got = compute()
    assert sorted(got) == sorted(want)
    for cell in want:
        assert {kind: sorted(v) for kind, v in got[cell].items()} == \
            {kind: sorted(v) for kind, v in want[cell].items()}, cell
    moved = movements(want, got)
    worst = max(moved, key=moved.get)
    print(f"largest relative movement {moved[worst]:.3g} at {worst}")
    assert moved[worst] <= TOLERANCE, worst
