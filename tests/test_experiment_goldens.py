"""Golden smoke-scale reports and checkpoints of the shared-helper studies.

The kernel-timing studies (block size, texture, Fig 11) share one
modeled-launch helper and the quality ablations share one replicate-mean
helper.  Each file under ``tests/golden/experiments_smoke/`` is the exact
report text, and each file under its ``checkpoints/`` the exact checkpoint,
that ``run_experiment(name, smoke)`` wrote before the studies moved onto
those helpers.  A changed seed string, modeled timing, replicate mean or
payload dict shows up as a byte difference here, and a byte-identical
checkpoint is one that existing runs can keep resuming from.
"""

from pathlib import Path

import pytest

from repro.experiments.config import get_scale
from repro.experiments.runner import run_experiment
from repro.resilience import ResilientRunner

GOLDEN = Path(__file__).parent / "golden" / "experiments_smoke"

#: Study id -> the checkpoint file its smoke run writes.
STUDIES = {
    "blocksize": "ablation_blocksize_smoke.jsonl",
    "sync": "ablation_syncasync_smoke.jsonl",
    "cooling": "ablation_cooling_smoke.jsonl",
    "texture": "ablation_texture_smoke.jsonl",
    "coupling": "ablation_coupling_smoke.jsonl",
    "refresh": "ablation_refresh_smoke.jsonl",
    "strategy": "ablation_strategy_smoke.jsonl",
    "fig11": "runtime_surface_smoke.jsonl",
}


@pytest.mark.parametrize("name", STUDIES)
def test_smoke_report_matches_golden(name, tmp_path):
    text = run_experiment(
        name, get_scale("smoke"), ResilientRunner(checkpoint_dir=tmp_path)
    )
    assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    checkpoint = STUDIES[name]
    assert (tmp_path / checkpoint).read_bytes() == (
        GOLDEN / "checkpoints" / checkpoint
    ).read_bytes()
