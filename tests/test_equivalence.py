"""The science, pinned: campaign records against committed digests.

Each cell runs one detector-less serial campaign (600 injections, seed 5)
and digests its records the way ``perfbench/workloads.py`` does: blake2b-16
over the :func:`~repro.persist.save_records` JSONL, then the config digest.
The digest must equal the cell's entry in ``tests/reference_digests.json``.

The first three cells differ only in knobs the config digest excludes
(twin batching, translation), so they share one committed value.  A change
that moves any digest changes the science: it must update the reference
file in the same change, in plain view.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.engine import config_digest
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.persist import save_records
from repro.scenarios import load_scenario

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((Path(__file__).parent / "reference_digests.json").read_text())
BASE = CampaignConfig(n_injections=600, seed=5)


def _mixed_ladder() -> CampaignConfig:
    scenario = load_scenario(ROOT / "examples" / "mixed.yaml")
    return scenario.apply(dataclasses.replace(BASE, recover="ladder"))


CELLS = {
    "default": lambda: BASE,
    "no_twin_batch": lambda: dataclasses.replace(BASE, twin_batch=False),
    "no_translate": lambda: dataclasses.replace(BASE, translate=False),
    "mixed_ladder": _mixed_ladder,
    "microreboot": lambda: dataclasses.replace(BASE, recover="microreboot"),
    "ladder_hazard": lambda: dataclasses.replace(
        BASE, recover="ladder", recovery_hazard=0.3
    ),
}


def records_digest(config: CampaignConfig, path: Path) -> str:
    save_records(FaultInjectionCampaign(config).run().records, path)
    h = hashlib.blake2b(path.read_bytes(), digest_size=16)
    h.update(config_digest(config).encode())
    return h.hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_records_match_reference(cell, tmp_path):
    assert records_digest(CELLS[cell](), tmp_path / "records.jsonl") == REFERENCE[cell]
