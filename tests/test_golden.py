"""Golden digests: ``evoalg limits`` reports match the committed manifest byte for byte."""

import json

import pytest

from golden.make_limits_manifest import MANIFEST, run

ENTRIES = json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_limits_report_matches_golden_manifest(name, tmp_path):
    entry = ENTRIES[name]
    assert {"limits": entry["limits"], **run(entry["limits"], tmp_path)} == entry
