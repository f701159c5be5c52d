"""Frozen outputs of the sampled experiment commands and of sampled_chsh.

tests/golden/seed<N>/ holds the .txt transcript and .json record of
`qilab experiment1..5 --seed N` at default shots.  The files carry only
bitstrings and Bloch components rounded to 4 places, so they are
platform-stable; any change to a sampling path must reproduce them byte
for byte.  Regenerate (only after an intended output change) with

    for s in 1 2; do for e in 1 2 3 4 5; do
        qilab experiment$e --seed $s --out tests/golden/seed$s; done; done

tests/golden/seed<N>/sampled_chsh.json (N = 1, 2, 3) holds
sampled_chsh(optimal_settings(pi/4)[0], 5000, N) as
json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2); its
floats come from the shot counts by correctly rounded IEEE operations
alone, so they too are platform-stable.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from qilab import bell, cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", [f"experiment{k}" for k in range(1, 6)])
def test_experiment_matches_golden(tmp_path, capsys, name, seed):
    assert cli.main([name, "--seed", str(seed), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for ext in ("txt", "json"):
        want = (GOLDEN / f"seed{seed}" / f"{name}.{ext}").read_bytes()
        assert (tmp_path / f"{name}.{ext}").read_bytes() == want, f"{name}.{ext}"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_chsh_matches_golden(seed):
    result = bell.sampled_chsh(bell.optimal_settings(math.pi / 4)[0], 5000, seed)
    got = json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2) + "\n"
    assert got == (GOLDEN / f"seed{seed}" / "sampled_chsh.json").read_text()
