"""SHA-256 pins on the outputs of the whole pipeline.

Refactors must keep these bytes: the labelled samples build_datasets makes,
the model JSON train_model makes from them, the posterior entries infer
reports, and the verdicts, witnesses and SMT-LIB text of the verifier.
Each digest was recorded once and is compared, never re-recorded.
"""

import hashlib
import json

import pytest

from grit.assets import proposition_assets, smt_pair_assets
from grit.evaluation import generate_synthetic, template_names
from grit.inference import infer
from grit.trajectory import build_datasets, history_for
from grit.training import train_model
from grit.tree import model_to_dict
from grit.verification import export_smtlib, verify

# template -> (samples, model JSON, posterior entries)
PIPELINE_DIGESTS = {
    "t_junction": (
        "8e61fb98d5de92734aac54625a8a40744844fed974605cc3de4e0757e8cd4299",
        "849366cb354b1fe81f5e57a628126ba614772977d7197be6cf3f82765465b122",
        "2bff65227a3482e469098e104f668e2216b18c23968667ff7967f29867154b19",
    ),
    "crossroad": (
        "09f3157c0c8ae0fb1c944870b2788f5b6cbd82e9fb7c91af1a4ce07ca1a9c1aa",
        "e2c242be715b8625d6a9cb1177d6ec5ca162e55a41d5e0b83ab097b4a29cadf5",
        "62ea74098495d4d06991f73735ae789161219baba3f57c12b1088712424c98a4",
    ),
}
# (verify results as JSON, SMT-LIB text)
SMT_PAIR_DIGESTS = (
    "be85165637582725558f57150a1b8b5a5dc3fdc8655c09f97becbf169440d4ff",
    "b9d6da869fb7a7e69bb345110a5151b608c1bdb9a5bd2608507eaecb7aa67a63",
)
SHIPPED_PROPOSITION_DIGESTS = (
    "c3200d7d22313d610c564feb92cbb37675c90b3ad331ff9c7ac581824a0562bb",
    "9cb5a97e8e7c119438d264e953e4465c9c73304b82431a4c0af1ea90bced2037",
)


def _sha(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _pipeline_digests(template):
    scenario, episodes = generate_synthetic(template, 30, seed=11)
    datasets = build_datasets(episodes, scenario)
    samples = _sha(repr(s) for bucket in datasets.values() for s in bucket)
    model = train_model(datasets)
    model_json = _sha([json.dumps(model_to_dict(model), indent=2)])
    entries = _sha(
        repr(infer(history_for(episode, vid, frame), vid, scenario, model).entries)
        for episode in episodes
        for vid in episode.agent_ids()
        for frame in range(0, len(episode.trajectories[vid]), 10)
    )
    return samples, model_json, entries


def _verifier_digests(cases):
    results = _sha(json.dumps(verify(m, p).to_dict()) for m, p in cases)
    texts = _sha(export_smtlib(m, p) for m, p in cases)
    return results, texts


@pytest.mark.parametrize("template", template_names())
def test_pipeline_outputs_are_pinned(template):
    assert _pipeline_digests(template) == PIPELINE_DIGESTS[template]


def test_verifier_outputs_are_pinned(fixture_model):
    assert _verifier_digests(smt_pair_assets()) == SMT_PAIR_DIGESTS
    shipped = [(fixture_model, p) for p in proposition_assets()]
    assert _verifier_digests(shipped) == SHIPPED_PROPOSITION_DIGESTS
