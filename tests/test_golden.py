"""Golden digests: ``evoalg limits`` and ``evoalg build`` reports match the committed manifests byte for byte."""

import json

import pytest

from golden import make_build_manifest, make_limits_manifest

LIMITS = json.loads(make_limits_manifest.MANIFEST.read_text())
BUILD = json.loads(make_build_manifest.MANIFEST.read_text())


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_limits_report_matches_golden_manifest(name, tmp_path):
    entry = LIMITS[name]
    assert {"limits": entry["limits"], **make_limits_manifest.run(entry["limits"], tmp_path)} == entry


@pytest.mark.parametrize("name", sorted(BUILD))
def test_build_exports_match_golden_manifest(name, tmp_path):
    entry = BUILD[name]
    assert {"scenario": entry["scenario"], **make_build_manifest.run(entry["scenario"], tmp_path)} == entry
