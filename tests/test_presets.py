"""Every named preset reproduces its reference CSV byte for byte.

The references under perfbench/reference/ are the benchmark's golden
outputs; this test only reads them.
"""

from pathlib import Path

import pytest

from deadtime_channel import cli
from deadtime_channel.experiments import PRESETS

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

CASES = [
    (command, name)
    for command, table in PRESETS.items()
    for name in table
]


def test_every_preset_has_a_reference():
    assert len(CASES) == 12
    assert sorted(f"{c}_{n}.csv" for c, n in CASES) == sorted(
        p.name for p in REFERENCE.glob("*.csv")
    )


@pytest.mark.parametrize("command,name", CASES, ids=[f"{c} {n}" for c, n in CASES])
def test_preset_matches_reference(tmp_path, command, name):
    out = tmp_path / "out.csv"
    assert cli.main([command, "--preset", name, "--out", str(out)]) == 0
    assert out.read_bytes() == (REFERENCE / f"{command}_{name}.csv").read_bytes()
