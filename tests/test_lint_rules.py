"""pdclint rules against the true-positive/true-negative fixture pairs."""

import json

import pytest
from pathlib import Path

from repro.analysis.lint import lint_path, lint_source, rule_ids

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

# (fixture, rule id, line the finding anchors to, severity)
TRUE_POSITIVES = [
    ("pdc101_tp.py", "PDC101", 11, "error"),
    ("pdc102_tp.py", "PDC102", 9, "error"),
    ("pdc103_tp.py", "PDC103", 10, "error"),
    ("pdc104_tp.py", "PDC104", 11, "error"),
    ("pdc105_tp.py", "PDC105", 8, "warning"),
    ("pdc106_tp.py", "PDC106", 10, "warning"),
    ("pdc107_tp.py", "PDC107", 14, "warning"),
    ("pdc108_tp.py", "PDC108", 17, "error"),
    ("pdc110_tp.py", "PDC110", 10, "error"),
    ("pdc111_tp.py", "PDC111", 10, "error"),
    ("pdc112_tp.py", "PDC112", 10, "error"),
    ("pdc201_tp.c", "PDC201", 9, "error"),
    ("pdc202_tp.c", "PDC202", 10, "error"),
    ("pdc203_tp.c", "PDC203", 9, "warning"),
    # Flow-sensitivity flips: true positives the lexical rules missed.
    ("pdc101_tp_helper.py", "PDC101", 14, "error"),
    ("pdc103_tp_size_guard.py", "PDC103", 11, "error"),
    # Derived communicators: the protocol checker follows Create_cart.
    ("pdc103_tp_cart.py", "PDC103", 15, "error"),
    ("pdc104_tp_rank_alias.py", "PDC104", 12, "error"),
    ("pdc106_tp_early_return.py", "PDC106", 12, "warning"),
]

TRUE_NEGATIVES = [
    "pdc101_tn.py",
    "pdc102_tn.py",
    "pdc103_tn.py",
    "pdc104_tn.py",
    "pdc105_tn.py",
    "pdc106_tn.py",
    "pdc107_tn.py",
    "pdc108_tn.py",
    "pdc110_tn.py",
    "pdc111_tn.py",
    "pdc112_tn.py",
    "pdc201_tn.c",
    "pdc202_tn.c",
    "pdc203_tn.c",
    # Flow-sensitivity flips: false positives the lexical rules reported.
    "pdc101_tn_lock_object.py",
    "pdc101_tn_single_thread.py",
    "pdc103_tn_helper.py",
    "pdc104_tn_size_branch.py",
]


# Opt-in scalability rules: fixtures lint with --cost style enablement.
COST_RULES = ["PDC120", "PDC121", "PDC122"]

COST_TRUE_POSITIVES = [
    ("pdc120_tp.py", "PDC120", 15, "warning"),
    ("pdc121_tp.py", "PDC121", 15, "warning"),
    ("pdc122_tp.py", "PDC122", 14, "warning"),
]

COST_TRUE_NEGATIVES = [
    "pdc120_tn.py",
    "pdc121_tn.py",
    "pdc122_tn.py",
]


class TestFixturePairs:
    @pytest.mark.parametrize("fixture,rule,line,severity", TRUE_POSITIVES)
    def test_true_positive_fires_its_rule(self, fixture, rule, line, severity):
        report = lint_path(FIXTURES / fixture)
        assert len(report.diagnostics) == 1, report.render()
        diag = report.diagnostics[0]
        assert diag.details["rule"] == rule
        assert diag.severity == severity
        assert diag.location.endswith(f"{fixture}:{line}")
        assert diag.details["fix"]  # every rule ships a fix hint

    @pytest.mark.parametrize("fixture", TRUE_NEGATIVES)
    def test_true_negative_is_clean(self, fixture):
        report = lint_path(FIXTURES / fixture)
        assert report.clean, report.render()
        assert not report.diagnostics
        assert not report.suppressed

    @pytest.mark.parametrize("fixture,rule,line,severity", COST_TRUE_POSITIVES)
    def test_cost_true_positive_fires_its_rule(self, fixture, rule, line,
                                               severity):
        report = lint_path(FIXTURES / fixture, enable=COST_RULES)
        assert len(report.diagnostics) == 1, report.render()
        diag = report.diagnostics[0]
        assert diag.details["rule"] == rule
        assert diag.severity == severity
        assert diag.location.endswith(f"{fixture}:{line}")
        assert diag.details["fix"]

    @pytest.mark.parametrize("fixture", COST_TRUE_NEGATIVES)
    def test_cost_true_negative_is_clean(self, fixture):
        report = lint_path(FIXTURES / fixture, enable=COST_RULES)
        assert report.clean, report.render()
        assert not report.diagnostics

    @pytest.mark.parametrize(
        "fixture", [f for f, *_ in COST_TRUE_POSITIVES])
    def test_cost_rules_stay_dormant_by_default(self, fixture):
        report = lint_path(FIXTURES / fixture)
        assert not report.diagnostics, report.render()

    def test_every_rule_has_a_fixture_pair(self):
        covered = {rule for _, rule, _, _ in TRUE_POSITIVES}
        covered |= {rule for _, rule, _, _ in COST_TRUE_POSITIVES}
        assert covered == set(rule_ids())


class TestSuppression:
    def test_trailing_directive_suppresses_that_line(self):
        report = lint_path(FIXTURES / "suppressed_tp.py")
        assert report.clean
        assert not report.diagnostics
        assert [d.details["rule"] for d in report.suppressed] == ["PDC101"]

    def test_suppression_round_trips_through_json(self):
        report = lint_path(FIXTURES / "suppressed_tp.py")
        payload = json.loads(report.to_json())
        assert payload["suppressed"] == 1
        assert payload["clean"] is True
        assert payload["diagnostics"] == []

    def test_file_wide_directive_on_comment_line(self):
        text = "# pdclint: disable=PDC101\n" + (
            FIXTURES / "pdc101_tp.py").read_text()
        report = lint_source(text, "snippet.py")
        assert report.clean
        assert len(report.suppressed) == 1

    def test_disable_all(self):
        text = "# pdclint: disable=all\n" + (
            FIXTURES / "pdc101_tp.py").read_text()
        report = lint_source(text, "snippet.py")
        assert report.clean
        assert report.suppressed

    def test_directive_for_other_rule_does_not_suppress(self):
        text = (FIXTURES / "pdc101_tp.py").read_text().replace(
            "total = total + 1", "total = total + 1  # pdclint: disable=PDC106")
        report = lint_source(text, "snippet.py")
        assert [d.details["rule"] for d in report.diagnostics] == ["PDC101"]
        assert not report.suppressed

    def test_suppressed_count_in_render(self):
        report = lint_path(FIXTURES / "suppressed_tp.py")
        assert "suppressed: 1 finding(s) via pdclint directives" in report.render()


class TestSelectIgnore:
    def test_select_limits_to_listed_rules(self):
        report = lint_path(FIXTURES / "pdc101_tp.py", select=["PDC106"])
        assert report.clean

    def test_ignore_drops_listed_rules(self):
        report = lint_path(FIXTURES / "pdc101_tp.py", ignore="PDC101")
        assert report.clean

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="PDC999"):
            lint_path(FIXTURES / "pdc101_tp.py", select=["PDC999"])


class TestEngineEdges:
    def test_python_syntax_error_becomes_parse_error_diagnostic(self):
        report = lint_source("def broken(:\n", "bad.py")
        assert not report.clean
        assert report.diagnostics[0].kind == "parse-error"
        assert report.diagnostics[0].details["rule"] == "parse-error"

    def test_lint_path_on_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_path(FIXTURES / "nope.py")

    def test_directory_lint_aggregates_all_fixtures(self):
        report = lint_path(FIXTURES)
        rules = sorted({d.details["rule"] for d in report.diagnostics})
        default_ids = [r for r in rule_ids() if r not in COST_RULES]
        assert rules == sorted(default_ids)
        assert len(report.suppressed) == 1

    def test_directory_lint_with_cost_rules_covers_everything(self):
        report = lint_path(FIXTURES, enable=COST_RULES)
        rules = sorted({d.details["rule"] for d in report.diagnostics})
        assert rules == sorted(rule_ids())
