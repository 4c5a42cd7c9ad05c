"""Recorded fixed-seed digests of models and fits must repeat exactly."""

import pytest

from golden_cells import (
    ENGINE_CELLS,
    ENGINE_FILE,
    MODELS_FILE,
    engine_digest,
    load_json,
    model_digests,
    pretrained_fpe,
)


def test_model_digests_match_golden():
    golden = load_json(MODELS_FILE)
    current = model_digests()
    assert sorted(current) == sorted(golden)
    mismatched = [name for name in golden if current[name] != golden[name]]
    assert not mismatched, mismatched


@pytest.fixture(scope="module")
def fpe():
    return pretrained_fpe()


@pytest.mark.parametrize("cell", sorted(ENGINE_CELLS))
def test_engine_digest_matches_golden(cell, fpe):
    golden = load_json(ENGINE_FILE)[cell]
    assert engine_digest(cell, fpe) == golden
