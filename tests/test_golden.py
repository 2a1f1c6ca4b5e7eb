"""Golden digests: ``evoalg limits``, ``build``, ``hierarchy``, ``isocheck`` and ``dlr`` reports match the committed manifests byte for byte."""

import json

import pytest

from golden import (
    make_build_manifest,
    make_dlr_manifest,
    make_hierarchy_manifest,
    make_isocheck_manifest,
    make_limits_manifest,
)

LIMITS = json.loads(make_limits_manifest.MANIFEST.read_text())
BUILD = json.loads(make_build_manifest.MANIFEST.read_text())
HIERARCHY = json.loads(make_hierarchy_manifest.MANIFEST.read_text())
ISOCHECK = json.loads(make_isocheck_manifest.MANIFEST.read_text())
DLR = json.loads(make_dlr_manifest.MANIFEST.read_text())


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_limits_report_matches_golden_manifest(name, tmp_path):
    entry = LIMITS[name]
    assert {"limits": entry["limits"], **make_limits_manifest.run(entry["limits"], tmp_path)} == entry


@pytest.mark.parametrize("name", sorted(BUILD))
def test_build_exports_match_golden_manifest(name, tmp_path):
    entry = BUILD[name]
    assert {"scenario": entry["scenario"], **make_build_manifest.run(entry["scenario"], tmp_path)} == entry


@pytest.mark.parametrize("name", sorted(HIERARCHY))
def test_hierarchy_report_matches_golden_manifest(name, tmp_path):
    entry = HIERARCHY[name]
    got = make_hierarchy_manifest.run(entry["scenario"], entry["stdout"], tmp_path)
    assert {"scenario": entry["scenario"], "stdout": entry["stdout"], **got} == entry


@pytest.mark.parametrize("name", sorted(ISOCHECK))
def test_isocheck_report_matches_golden_manifest(name, tmp_path):
    entry = ISOCHECK[name]
    got = make_isocheck_manifest.run(entry["scenarios"], entry["stdout"], tmp_path)
    assert {"scenarios": entry["scenarios"], "stdout": entry["stdout"], **got} == entry


@pytest.mark.parametrize("name", sorted(DLR))
def test_dlr_report_matches_golden_manifest(name, tmp_path):
    entry = DLR[name]
    got = make_dlr_manifest.run(entry["scenario"], entry["domain"], entry["stdout"], tmp_path)
    assert {"scenario": entry["scenario"], "domain": entry["domain"], "stdout": entry["stdout"], **got} == entry
