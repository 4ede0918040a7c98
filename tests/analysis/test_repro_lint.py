"""Tests for the repro-lint static-analysis framework.

Three layers are pinned here:

* **Checkers** — every registered rule must flag its known-bad fixture in
  ``fixtures/core/`` (the fixtures are the executable specification of each
  rule) and stay silent on the real source tree.
* **Suppressions** — ``# repro-lint: disable=`` comments, per-line and
  file-wide, including the tokenize-backed immunity to ``#`` in strings.
* **Report plumbing** — JSON schema round-trip, fixture exclusion from
  scans, and the CLI exit-code contract that the CI gate relies on.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    REPORT_SCHEMA_VERSION,
    Finding,
    Report,
    SourceFile,
    analyze_file,
    analyze_paths,
    iter_python_files,
    iter_rules,
)
from repro.analysis.runner import PARSE_ERROR_RULE, analyze_source
from repro.analysis.runner import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures" / "core"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: rule id -> the fixture file that must trigger it.
RULE_FIXTURES = {
    "lock-guarded-attr": "bad_lock_discipline.py",
    "lock-holds-caller": "bad_lock_discipline.py",
    "lock-wait-while": "bad_lock_discipline.py",
    "lock-io-held": "bad_lock_discipline.py",
    "lock-await-held": "bad_async_lock.py",
    "det-wallclock": "bad_determinism.py",
    "det-unseeded-rng": "bad_determinism.py",
    "det-set-iter": "bad_determinism.py",
    "pickle-submit": "bad_picklability.py",
    "pickle-spec": "bad_picklability.py",
    "res-handle": "bad_resources.py",
}

INTERPROC_FIXTURES = Path(__file__).parent / "fixtures" / "interproc"

#: Whole-program rule id -> its known-bad fixture (needs --interproc).
INTERPROC_RULE_FIXTURES = {
    "lock-order-cycle": "bad_lock_order_cycle.py",
    "async-blocking-call": "bad_async_blocking.py",
    "thread-escape": "bad_thread_escape.py",
    "holds-transitive": "bad_holds_transitive.py",
}


def _rules_in(path: Path) -> set[str]:
    return {finding.rule for finding in analyze_file(path) if not finding.suppressed}


def _interproc_rules_in(path: Path) -> set[str]:
    report = analyze_paths([path], interproc=True)
    return {f.rule for f in report.active}


class TestCheckersFlagFixtures:
    def test_rule_fixture_map_covers_every_registered_rule(self):
        registered = {
            rule for _, _, rules in iter_rules() for rule in rules
        }
        expected = set(RULE_FIXTURES) | set(INTERPROC_RULE_FIXTURES)
        assert registered == expected, (
            "every registered rule needs a known-bad fixture entry "
            "(and every fixture entry a registered rule)"
        )

    @pytest.mark.parametrize(
        ("rule", "fixture"), sorted(RULE_FIXTURES.items())
    )
    def test_rule_flags_its_fixture(self, rule, fixture):
        assert rule in _rules_in(FIXTURES / fixture)

    @pytest.mark.parametrize(
        ("rule", "fixture"), sorted(INTERPROC_RULE_FIXTURES.items())
    )
    def test_interproc_rule_flags_its_fixture(self, rule, fixture):
        assert rule in _interproc_rules_in(INTERPROC_FIXTURES / fixture)

    def test_interproc_rules_need_the_flag(self):
        bad = INTERPROC_FIXTURES / "bad_lock_order_cycle.py"
        assert not _rules_in(bad), "whole-program rules must stay off per-file"

    def test_lock_fixture_finds_all_five_violations(self):
        findings = analyze_file(FIXTURES / "bad_lock_discipline.py")
        assert len(findings) == 5
        assert [f.rule for f in findings].count("lock-io-held") == 2

    def test_batch_store_writes_under_a_lock_are_flagged(self, tmp_path):
        # The store's batch write path is store I/O like get/put.
        source = tmp_path / "batch_store.py"
        source.write_text(
            "import threading\n"
            "\n"
            "class Writer:\n"
            "    def __init__(self, store):\n"
            "        self._lock = threading.Lock()\n"
            "        self.store = store\n"
            "\n"
            "    def flush(self, items):\n"
            "        with self._lock:\n"
            "            self.store.put_many(items)\n"
        )
        findings = analyze_file(source)
        assert [f.rule for f in findings] == ["lock-io-held"]

    def test_condition_alias_resolves_to_the_underlying_lock(self):
        # The store_io_under_lock finding holds _arrived, which aliases
        # _lock; the message must name the base lock.
        findings = analyze_file(FIXTURES / "bad_lock_discipline.py")
        aliased = [f for f in findings if "store" in f.message]
        assert aliased and "_lock" in aliased[0].message

    def test_async_lock_fixture_finds_exactly_the_await(self):
        # One violation: the await under the lock.  The clean coroutine
        # (await outside the critical section) must stay silent.
        findings = analyze_file(FIXTURES / "bad_async_lock.py")
        assert [f.rule for f in findings] == ["lock-await-held"]

    def test_service_package_is_in_the_default_scan(self):
        from repro.analysis.runner import DEFAULT_PATHS

        service = REPO_ROOT / "src" / "repro" / "service"
        assert service.is_dir()
        scanned = {
            path
            for root in DEFAULT_PATHS
            for path in iter_python_files([REPO_ROOT / root])
        }
        assert any(
            path.parent == service for path in scanned
        ), "repro lint must cover the service package by default"

    def test_parse_error_is_a_finding_not_a_crash(self):
        findings = analyze_file(FIXTURES / "bad_syntax.py")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]

    def test_real_tree_is_clean(self):
        report = analyze_paths(
            [REPO_ROOT / "src" / "repro", REPO_ROOT / "scripts"]
        )
        assert report.n_files > 50
        assert report.ok, "\n".join(f.render() for f in report.active)
        # Every deliberate exception in the tree carries a suppression
        # comment — the allowlist is visible, not silent.
        assert report.suppressed, "expected explained allowlist entries"


class TestSuppressions:
    def test_line_suppression_silences_only_its_line(self):
        findings = analyze_file(FIXTURES / "suppressed.py")
        by_line = {f.line: f for f in findings}
        assert any(f.suppressed for f in findings)
        live = [f for f in findings if not f.suppressed]
        assert len(live) == 1 and live[0].rule == "det-wallclock"
        assert by_line[live[0].line].message.startswith("'time.time_ns()'")

    def test_file_wide_suppression(self):
        source = SourceFile.read(
            "core/example.py",
            "# repro-lint: disable-file=det-wallclock\n"
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n",
        )
        findings = analyze_source(source)
        assert findings and all(f.suppressed for f in findings)

    def test_disable_all_on_line(self):
        source = SourceFile.read(
            "core/example.py",
            "import time\n"
            "def stamp():\n"
            "    return time.time()  # repro-lint: disable=all\n",
        )
        findings = analyze_source(source)
        assert findings and all(f.suppressed for f in findings)

    def test_hash_inside_string_is_not_a_suppression(self):
        source = SourceFile.read(
            "core/example.py",
            "import time\n"
            "def stamp():\n"
            "    return time.time(), '# repro-lint: disable=det-wallclock'\n",
        )
        findings = analyze_source(source)
        assert findings and not any(f.suppressed for f in findings)


class TestReportSchema:
    def test_json_round_trip(self):
        report = analyze_paths([FIXTURES])
        # Fixtures are excluded from directory scans by design; analyze
        # the files directly instead.
        report = Report(n_files=2)
        for name in ("bad_determinism.py", "suppressed.py"):
            report.findings.extend(analyze_file(FIXTURES / name))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["summary"]["total"] == len(report.findings)
        assert payload["summary"]["suppressed"] == 1
        rebuilt = Report.from_dict(payload)
        assert rebuilt.findings == report.findings
        assert rebuilt.n_files == report.n_files

    def test_schema_version_mismatch_raises(self):
        with pytest.raises(ValueError, match="schema"):
            Report.from_dict({"schema_version": 999, "findings": []})

    def test_finding_round_trip_preserves_fields(self):
        finding = Finding(
            rule="det-wallclock", message="m", path="p.py", line=3, col=7,
            suppressed=True,
        )
        assert Finding.from_dict(finding.as_dict()) == finding

    def test_rules_catalog_embedded_in_report(self):
        payload = Report().as_dict()
        catalog = {
            rule for entry in payload["rules"] for rule in entry["rules"]
        }
        assert catalog == set(RULE_FIXTURES) | set(INTERPROC_RULE_FIXTURES)


class TestRunner:
    def test_fixtures_are_excluded_from_scans(self):
        files = iter_python_files([Path(__file__).parent])
        assert not any("fixtures" in f.parts for f in files)
        assert any(f.name == "test_repro_lint.py" for f in files)

    def test_strict_exit_codes(self, tmp_path, capsys):
        assert lint_main([str(FIXTURES / "bad_determinism.py"), "--strict"]) == 1
        assert lint_main([str(FIXTURES / "suppressed.py")]) == 0  # non-strict
        assert lint_main([str(tmp_path / "missing.py"), "--strict"]) == 2
        capsys.readouterr()

    def test_json_report_written(self, tmp_path, capsys):
        destination = tmp_path / "report" / "lint.json"
        code = lint_main(
            [str(FIXTURES / "bad_resources.py"), "--json", str(destination)]
        )
        assert code == 0  # non-strict never gates
        payload = json.loads(destination.read_text(encoding="utf-8"))
        assert Report.from_dict(payload).findings
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in list(RULE_FIXTURES) + list(INTERPROC_RULE_FIXTURES):
            assert rule in out


class TestRulesCatalogDoc:
    def test_rules_md_documents_every_rule(self):
        rules_md = (
            REPO_ROOT / "src" / "repro" / "analysis" / "RULES.md"
        ).read_text(encoding="utf-8")
        rules = (
            list(RULE_FIXTURES)
            + list(INTERPROC_RULE_FIXTURES)
            + [PARSE_ERROR_RULE]
        )
        for rule in rules:
            assert f"`{rule}`" in rules_md, f"RULES.md missing {rule}"
        # The suppression syntax is documented verbatim.
        assert "repro-lint: disable=" in rules_md
        assert "guarded-by:" in rules_md and "holds:" in rules_md
