"""Command-line interface: workflows, exit codes, golden reports."""

from __future__ import annotations

import dataclasses
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import RecordingGenerator
from dynsurvey import cli
from dynsurvey.cli import main
from dynsurvey.config import make_embedder, make_generator
from dynsurvey.demo import demo_outline, write_demo_workspace
from dynsurvey.document import load_outline, save_outline
from dynsurvey.engine import read_audit_log
from dynsurvey.errors import EXIT_CONFIG, EXIT_PARSE
from dynsurvey.evaluation import StepEvaluation, evaluate_step
from dynsurvey.report import ReportKnobs, write_reports

GOLDEN = Path(__file__).parent / "data" / "golden"
ROOT = Path(__file__).parent.parent


@pytest.fixture
def workspace(tmp_path):
    return write_demo_workspace(tmp_path / "ws")


def _config_dir(workspace) -> Path:
    return workspace["config"].parent


def test_benchmark_matches_golden_reports(workspace):
    assert main(["--config", str(workspace["config"]), "benchmark"]) == 0
    out = _config_dir(workspace) / "out"
    assert (out / "report.csv").read_text() == (GOLDEN / "report.csv").read_text()
    assert (out / "report.txt").read_text() == (GOLDEN / "report.txt").read_text()


def test_mock_benchmark_script_reproduces_golden_reports(tmp_path):
    workdir = tmp_path / "demo"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_mock_benchmark.py"),
         "--workdir", str(workdir)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in ("report.csv", "report.txt"):
        assert (workdir / "out" / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("failing", ["report.csv", "report.txt"])
def test_failed_report_write_keeps_the_old_report(tmp_path, monkeypatch, failing):
    step = StepEvaluation(survey="s", method="framework", paper_id="p", out_of_scope=0,
                          abstained=0, delta_tokens=3, delta_out=0, bleu4=0.5)
    paths = write_reports([step], tmp_path, ReportKnobs())
    before = {path.name: path.read_bytes() for path in paths}
    original = Path.write_text

    def torn_write(self, data, *args, **kwargs):
        if self.name == f".{failing}.tmp":
            original(self, data[:10], *args, **kwargs)
            raise OSError("disk full")
        return original(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError, match="disk full"):
        write_reports([step, dataclasses.replace(step, paper_id="q", bleu4=0.25)], tmp_path,
                      ReportKnobs())
    assert (tmp_path / failing).read_bytes() == before[failing]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.txt"]


def test_benchmark_is_byte_deterministic(workspace, tmp_path):
    assert main(["--config", str(workspace["config"]), "benchmark"]) == 0
    first_csv = (_config_dir(workspace) / "out" / "report.csv").read_bytes()
    other = write_demo_workspace(tmp_path / "ws2")
    assert main(["--config", str(other["config"]), "benchmark"]) == 0
    second_csv = (other["config"].parent / "out" / "report.csv").read_bytes()
    assert first_csv == second_csv


def test_benchmark_methods_flag_restricts_runs(workspace):
    assert main(["--config", str(workspace["config"]),
                 "benchmark", "--methods", "framework"]) == 0
    csv_text = (_config_dir(workspace) / "out" / "report.csv").read_text()
    assert "framework," in csv_text
    assert "one_step," not in csv_text
    assert "oracle," not in csv_text


def test_benchmark_unknown_method_is_config_error(workspace, capsys):
    # An unknown, empty or repeated method list is rejected before any
    # instance is read, so no report is written.
    for methods, message in [
        ("nonsense", "unknown methods ['nonsense']"),
        ("", "no methods given"),
        (",", "no methods given"),
        ("oracle,oracle", "methods ['oracle'] given more than once"),
        ("framework,oracle, framework", "methods ['framework'] given more than once"),
    ]:
        assert main(["--config", str(workspace["config"]),
                     "benchmark", "--methods", methods]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert not (_config_dir(workspace) / "out").exists()


class ZeroOneText:
    """The wrapped embedder, except that one text gets a zero vector."""

    def __init__(self, inner, text):
        self.inner, self.text = inner, text
        self.model_id = inner.model_id

    def embed(self, texts):
        return [[0.0] * len(vector) if text == self.text else vector
                for text, vector in zip(texts, self.inner.embed(texts))]


def test_a_zero_embedding_leaves_only_its_step_unscored(workspace, monkeypatch, caplog):
    def run(embedder_of):
        steps = []

        def scored(result, *args, **kwargs):
            steps.append((result, evaluate_step(result, *args, **kwargs)))
            return steps[-1][1]

        monkeypatch.setattr(cli, "make_embedder", embedder_of)
        monkeypatch.setattr(cli, "evaluate_step", scored)
        assert main(["--config", str(workspace["config"]), "benchmark", "--methods",
                     "framework"]) == 0
        return steps

    plain = run(make_embedder)
    bad = next(result for result, _ in plain if result.inserted and result.paper_repr)
    with caplog.at_level(logging.WARNING, logger="dynsurvey.evaluation"):
        zeroed = run(lambda config: ZeroOneText(make_embedder(config), bad.paper_repr))
    unscored = dict.fromkeys(("bert_sim", "semantic_align", "local_coherence"))
    assert [result.paper_id for result, _ in zeroed] == [result.paper_id for result, _ in plain]
    for (result, want), (_, got) in zip(plain, zeroed):
        if result.paper_id == bad.paper_id:
            assert want.semantic_align is not None
            want = dataclasses.replace(want, **unscored)
        assert got == want
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert bad.paper_id in warnings[0] and "has norm 0.0" in warnings[0]


def test_missing_embedding_endpoint_reports_absent_columns(workspace):
    config = json.loads(workspace["config"].read_text())
    del config["embedding"]
    no_embed = _config_dir(workspace) / "config_noembed.json"
    no_embed.write_text(json.dumps(config))
    assert main(["--config", str(no_embed), "benchmark", "--methods", "framework"]) == 0
    csv_text = (_config_dir(workspace) / "out" / "report.csv").read_text()
    assert "bert_sim,absent" in csv_text
    assert "semantic_align,absent" in csv_text
    assert "# embedding_model=absent" in csv_text
    assert "delta_out,0.000000" in csv_text


def test_update_applies_feed_and_writes_audit(workspace):
    assert main(["--config", str(workspace["config"]), "update"]) == 0
    out = _config_dir(workspace) / "out"
    records = read_audit_log(out / "audit.ndjson")
    assert [r.decision for r in records] == ["updated", "updated"]
    published = json.loads((out / "survey.updated.json").read_text())
    assert {r["key"] for r in published["references"]} >= {"doe2024twostage", "kim2025burst"}


def test_a_reply_with_a_lone_surrogate_fails_only_its_step(workspace):
    scenario = json.loads(workspace["scenario"].read_text(encoding="utf-8"))
    scenario["generation"]["text_synthesis|lateA|0"] = "Lone \ud800 Method [cite]: one claim."
    # ``json.dumps`` escapes the surrogate, so the scenario file is valid UTF-8.
    workspace["scenario"].write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["--config", str(workspace["config"]), "update"]) == 0
    out = _config_dir(workspace) / "out"
    records = read_audit_log(out / "audit.ndjson")
    assert [(r.paper_id, r.decision) for r in records] == [("lateA", "failed"),
                                                           ("lateB", "updated")]
    published = json.loads((out / "survey.updated.json").read_text(encoding="utf-8"))
    assert {r["key"] for r in published["references"]} >= {"kim2025burst"}


def _input_bytes(workspace) -> dict[str, bytes]:
    return {name: workspace[name].read_bytes() for name in ("survey", "outline")}


def test_a_feed_record_with_a_lone_surrogate_is_a_read_error(workspace, capsys):
    before = _input_bytes(workspace)
    lines = workspace["late_feed"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record.update(title="Burst \ud800 title", bib={**record["bib"], "key": "burst2025new"})
    # ``json.dumps`` escapes the surrogate, so the feed file is valid UTF-8.
    workspace["late_feed"].write_text(lines[0] + "\n" + json.dumps(record) + "\n",
                                      encoding="utf-8")
    assert main(["--config", str(workspace["config"]), "update"]) == EXIT_PARSE
    assert "line 2: feed record string" in capsys.readouterr().err
    assert not (_config_dir(workspace) / "out").exists()
    assert _input_bytes(workspace) == before


@pytest.mark.parametrize("command", ["outline", "update"])
def test_a_config_string_with_a_lone_surrogate_is_a_config_error(workspace, capsys, command):
    before = _input_bytes(workspace)
    config = json.loads(workspace["config"].read_text(encoding="utf-8"))
    config["scope"] = {"title": "Lone \ud800 title"}
    workspace["config"].write_text(json.dumps(config), encoding="utf-8")
    args = ["outline", "--force"] if command == "outline" else [command]
    assert main(["--config", str(workspace["config"]), *args]) == EXIT_CONFIG
    assert "config string 'Lone \\ud800 title' holds a lone surrogate" in capsys.readouterr().err
    assert not (_config_dir(workspace) / "out").exists()
    assert _input_bytes(workspace) == before


def test_a_failed_outline_write_keeps_the_old_outline(workspace, monkeypatch):
    before = workspace["outline"].read_bytes()

    def failing_replace(source, target):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_outline(demo_outline(approved=False), workspace["outline"])
    assert workspace["outline"].read_bytes() == before
    assert not any(path.name.endswith(".tmp") for path in workspace["outline"].parent.iterdir())


def test_update_with_empty_feed_changes_nothing(workspace):
    empty = _config_dir(workspace) / "empty.ndjson"
    empty.write_text("")
    config = json.loads(workspace["config"].read_text())
    config["feed"] = "empty.ndjson"
    cfg_path = _config_dir(workspace) / "config_empty.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["--config", str(cfg_path), "update"]) == 0
    published = (_config_dir(workspace) / "out" / "survey.updated.json").read_text()
    assert published == workspace["survey"].read_text()
    assert read_audit_log(_config_dir(workspace) / "out" / "audit.ndjson") == []


def test_three_paper_feed_yields_three_audit_records(workspace):
    late = workspace["late_feed"].read_text().rstrip("\n")
    oos_first = workspace["oos_feed"].read_text().splitlines()[0]
    mixed = _config_dir(workspace) / "mixed.ndjson"
    mixed.write_text(late + "\n" + oos_first + "\n")
    config = json.loads(workspace["config"].read_text())
    config["feed"] = "mixed.ndjson"
    cfg_path = _config_dir(workspace) / "config_mixed.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["--config", str(cfg_path), "update"]) == 0
    records = read_audit_log(_config_dir(workspace) / "out" / "audit.ndjson")
    assert [r.decision for r in records] == ["updated", "updated", "abstained"]


def test_update_refuses_unapproved_outline(workspace):
    outline = json.loads(workspace["outline"].read_text())
    outline["approved"] = False
    workspace["outline"].write_text(json.dumps(outline))
    assert main(["--config", str(workspace["config"]), "update"]) == EXIT_CONFIG


def test_outline_then_review_then_approved(workspace, monkeypatch):
    workspace["outline"].unlink()
    assert main(["--config", str(workspace["config"]), "outline"]) == 0
    drafted = load_outline(workspace["outline"])
    assert not drafted.approved
    assert drafted.section_ids() == ["1", "2", "3"]
    monkeypatch.setattr("builtins.input", lambda prompt="": "y")
    assert main(["--config", str(workspace["config"]), "review"]) == 0
    assert load_outline(workspace["outline"]).approved


def test_review_rejection_leaves_unapproved(workspace, monkeypatch):
    workspace["outline"].unlink()
    assert main(["--config", str(workspace["config"]), "outline"]) == 0
    monkeypatch.setattr("builtins.input", lambda prompt="": "n")
    assert main(["--config", str(workspace["config"]), "review"]) == 0
    assert not load_outline(workspace["outline"]).approved


def test_review_with_stdin_closed_answers_no(workspace, monkeypatch, capsys):
    # ``review < /dev/null``: the prompt reads end of input, its default.
    workspace["outline"].unlink()
    assert main(["--config", str(workspace["config"]), "outline"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["--config", str(workspace["config"]), "review"]) == 0
    assert not load_outline(workspace["outline"]).approved
    assert capsys.readouterr().out.endswith("[y/N] \noutline left unapproved\n")


def test_outline_refuses_to_overwrite_approved_outline(workspace):
    assert main(["--config", str(workspace["config"]), "outline"]) == EXIT_CONFIG
    assert load_outline(workspace["outline"]).approved  # untouched


def test_outline_force_overwrites(workspace):
    assert main(["--config", str(workspace["config"]), "outline", "--force"]) == 0
    assert not load_outline(workspace["outline"]).approved


def test_out_flag_overrides_configured_directory(workspace, tmp_path):
    target = tmp_path / "elsewhere"
    assert main(["--config", str(workspace["config"]), "--out", str(target),
                 "benchmark", "--methods", "framework"]) == 0
    assert (target / "report.csv").exists()
    assert not (_config_dir(workspace) / "out").exists()


# --- bad input fails its own step or stops the run before any call -----------


def _recorded_requests(monkeypatch) -> list:
    """The requests of every generator the command line makes from now on."""
    requests: list = []

    def recording(config):
        generator = RecordingGenerator(make_generator(config))
        generator.requests = requests
        return generator

    monkeypatch.setattr(cli, "make_generator", recording)
    return requests


def _rewrite_json(path: Path, change) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    change(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def test_a_paper_without_full_text_fails_only_its_step(workspace, monkeypatch):
    lines = workspace["late_feed"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["full_text"] = " "
    workspace["late_feed"].write_text(json.dumps(record) + "\n" + lines[1] + "\n",
                                      encoding="utf-8")
    requests = _recorded_requests(monkeypatch)
    assert main(["--config", str(workspace["config"]), "update"]) == 0
    records = read_audit_log(_config_dir(workspace) / "out" / "audit.ndjson")
    assert [(r.paper_id, r.decision) for r in records] == [("lateA", "failed"),
                                                           ("lateB", "updated")]
    assert records[0].error == "paper 'lateA' has empty full_text"
    assert requests and all(not r.key.startswith("lateA") for r in requests)
    assert (_config_dir(workspace) / "out" / "survey.updated.json").exists()


def test_a_scope_without_core_criterion_stops_update_before_any_call(workspace, monkeypatch,
                                                                     capsys):
    _rewrite_json(workspace["outline"],
                  lambda outline: outline["scope"].update(core_criterion=""))
    requests = _recorded_requests(monkeypatch)
    assert main(["--config", str(workspace["config"]), "update"]) == EXIT_CONFIG
    assert "empty core criterion" in capsys.readouterr().err
    assert requests == []
    assert not (_config_dir(workspace) / "out" / "survey.updated.json").exists()


def test_a_table_without_schema_leaves_its_step_text_only(workspace, monkeypatch):
    def empty_first_table(survey) -> None:
        survey["tables"][0].update(schema=[], rows=[])

    _rewrite_json(workspace["survey"], empty_first_table)
    requests = _recorded_requests(monkeypatch)
    assert main(["--config", str(workspace["config"]), "update"]) == 0
    records = read_audit_log(_config_dir(workspace) / "out" / "audit.ndjson")
    assert [(r.paper_id, r.decision) for r in records] == [("lateA", "updated"),
                                                           ("lateB", "updated")]
    assert (records[0].routed_table, records[0].inserted_row) == ("t1", None)
    assert records[0].table_error == "table 't1' has an empty schema"
    assert not any(r.role == "table_synthesis" and r.key == "lateA:t1" for r in requests)
    assert records[1].inserted_row is not None


@pytest.mark.parametrize("field, ids", [("allowed_sections", ["1", "404"]),
                                        ("allowed_tables", ["t9"])])
def test_outline_with_unknown_allowed_ids_is_a_config_error(workspace, monkeypatch, capsys,
                                                            field, ids):
    before = workspace["outline"].read_bytes()
    _rewrite_json(workspace["config"], lambda config: config.update({field: ids}))
    requests = _recorded_requests(monkeypatch)
    assert main(["--config", str(workspace["config"]), "outline", "--force"]) == EXIT_CONFIG
    assert "do not exist in the document" in capsys.readouterr().err
    assert requests == []
    assert workspace["outline"].read_bytes() == before


@pytest.mark.parametrize("command", [["update"], ["benchmark", "--methods", "framework"]])
def test_an_unwritable_out_directory_fails_before_any_call(workspace, monkeypatch, capsys,
                                                           command):
    blocker = _config_dir(workspace) / "blocker"
    blocker.write_text("a file, not a directory\n")
    requests = _recorded_requests(monkeypatch)
    out = blocker / "out"
    assert main(["--config", str(workspace["config"]), "--out", str(out), *command]) == \
        EXIT_CONFIG
    assert f"cannot create output directory {out}" in capsys.readouterr().err
    assert requests == []


def test_missing_config_is_config_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "update"]) == EXIT_CONFIG


def test_malformed_survey_is_parse_error(workspace):
    workspace["survey"].write_text("{broken")
    assert main(["--config", str(workspace["config"]), "update"]) == EXIT_PARSE


def _with_config(workspace, **changes) -> Path:
    config = {**json.loads(workspace["config"].read_text()), **changes}
    path = _config_dir(workspace) / "config_bad.json"
    path.write_text(json.dumps(config))
    return path


def _with_scenario(workspace, **changes) -> None:
    scenario = {**json.loads(workspace["scenario"].read_text()), **changes}
    workspace["scenario"].write_text(json.dumps(scenario))


def _break(name):
    def change(workspace) -> None:
        workspace[name].write_text("{broken", encoding="utf-8")
    return change


# Each bad input, the command that reads it, and the exit code it must give.
@pytest.mark.parametrize("change, command, code", [
    (lambda ws: _with_config(ws, metrics={"coherence_window": "x"}), ["update"], EXIT_CONFIG),
    (lambda ws: _with_config(ws, generation={"base_url": "http://localhost:1",
                                             "temperature": "hot"}), ["update"], EXIT_CONFIG),
    (lambda ws: _with_config(ws, filter={"date_range": ["2025-01-01", "2024-01-01"]}),
     ["update"], EXIT_CONFIG),
    (lambda ws: _with_config(ws, filter={"date_range": "2024-01-01"}), ["update"],
     EXIT_CONFIG),
    (lambda ws: ws["survey"].unlink(), ["outline", "--force"], EXIT_PARSE),
    (_break("spans"), ["benchmark", "--methods", "framework"], EXIT_PARSE),
    (_break("scenario"), ["update"], EXIT_CONFIG),
    (lambda ws: _with_scenario(ws, embedding={"dimension": 0}),
     ["benchmark", "--methods", "framework"], EXIT_CONFIG),
    (lambda ws: _with_scenario(ws, generation_max_retries=-1), ["update"], EXIT_CONFIG),
    (lambda ws: _with_config(ws, embedding={"base_url": "http://localhost:1", "dimension": 0}),
     ["update"], EXIT_CONFIG),
    (lambda ws: _with_config(ws, embedding={"base_url": "http://localhost:1",
                                            "max_retries": -1}), ["update"], EXIT_CONFIG),
], ids=["coherence_window", "temperature", "reversed_date_range", "date_range_not_array",
        "missing_survey", "broken_spans", "broken_scenario", "scenario_dimension_zero",
        "scenario_negative_retries", "endpoint_dimension_zero", "endpoint_negative_retries"])
def test_a_bad_input_exits_with_its_code_and_one_error_line(workspace, capsys, change,
                                                           command, code):
    config = change(workspace) or workspace["config"]
    assert main(["--config", str(config), *command]) == code
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, errors


def test_conflicting_endpoint_settings_rejected(workspace):
    config = json.loads(workspace["config"].read_text())
    config["generation"] = {"mock_scenario": "scenario.json", "base_url": "http://x"}
    bad = _config_dir(workspace) / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["--config", str(bad), "update"]) == EXIT_CONFIG


def test_env_interpolation(workspace, monkeypatch):
    monkeypatch.setenv("DS_OUT", "envout")
    config = json.loads(workspace["config"].read_text())
    config["out_dir"] = "${DS_OUT}"
    cfg_path = _config_dir(workspace) / "config_env.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["--config", str(cfg_path), "benchmark", "--methods", "framework"]) == 0
    assert (_config_dir(workspace) / "envout" / "report.csv").exists()


def test_unset_env_variable_is_config_error(workspace, monkeypatch):
    monkeypatch.delenv("DS_MISSING", raising=False)
    config = json.loads(workspace["config"].read_text())
    config["out_dir"] = "${DS_MISSING}"
    cfg_path = _config_dir(workspace) / "config_envmissing.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["--config", str(cfg_path), "update"]) == EXIT_CONFIG
