"""The JSON schemas in ``docs/`` describe what the program reads and writes:
every shipped config validates against the config schema, and a
``truncbound run`` report against the report schema."""

import json
import pathlib

import jsonschema
import pytest

from truncbound.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def validator(name: str) -> jsonschema.Draft7Validator:
    schema = json.loads((ROOT / "docs" / name).read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_configs_follow_the_config_schema(path):
    validator("config.schema.json").validate(json.loads(path.read_text()))


def test_run_report_follows_the_report_schema(tmp_path):
    cfg = json.loads((ROOT / "configs" / "toggle20.json").read_text())
    cfg["truncation"]["level"] = 60
    path = tmp_path / "toggle20-60.json"
    path.write_text(json.dumps(cfg))
    with pytest.warns(UserWarning, match="exit rate"):    # toggle: rate domination
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / cfg["output"]["report"]).read_text())
    assert set(doc["reports"]) == {"r", "e"}
    validator("report.schema.json").validate(doc)
