"""Unit and small integration tests for the end-to-end ArcheType pipeline."""

from __future__ import annotations

import pytest

from repro.core.pipeline import AnnotationResult, ArcheType, ArcheTypeConfig
from repro.core.remapping import NULL_LABEL
from repro.core.rules import SOTAB_27_RULES
from repro.core.serialization import PromptStyle
from repro.core.table import Column, Table
from repro.exceptions import ConfigurationError
from repro.llm.base import GenerationParams, LanguageModel

LABELS = ["state", "person", "url", "number", "text"]


class ScriptedModel(LanguageModel):
    """Deterministic test double returning a fixed sequence of answers."""

    name = "scripted"
    context_window = 2048

    def __init__(self, answers: list[str]) -> None:
        self.answers = list(answers)
        self.prompts: list[str] = []

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        self.prompts.append(prompt)
        if not self.answers:
            return "state"
        if len(self.answers) == 1:
            return self.answers[0]
        return self.answers.pop(0)


class TestConfigValidation:
    def test_label_set_required(self):
        with pytest.raises(ConfigurationError):
            ArcheType(ArcheTypeConfig(model="t5", label_set=[]))

    def test_sample_size_positive(self):
        with pytest.raises(ConfigurationError):
            ArcheType(ArcheTypeConfig(model="t5", label_set=LABELS, sample_size=0))

    def test_with_updates_returns_modified_copy(self):
        config = ArcheTypeConfig(model="t5", label_set=LABELS)
        changed = config.with_updates(sample_size=9)
        assert changed.sample_size == 9
        assert config.sample_size == 5


class TestAnnotation:
    def test_state_column_annotated_as_state(self, state_column):
        annotator = ArcheType(ArcheTypeConfig(model="gpt", label_set=LABELS, sample_size=5))
        result = annotator.annotate_column(state_column)
        assert isinstance(result, AnnotationResult)
        assert result.label == "state"
        assert result.prompt is not None
        assert len(result.sampled_values) == 5

    def test_url_column_annotated_as_url(self, url_column):
        annotator = ArcheType(ArcheTypeConfig(model="t5", label_set=LABELS, sample_size=4))
        assert annotator.annotate_column(url_column).label == "url"

    def test_empty_column_yields_null_label(self):
        annotator = ArcheType(ArcheTypeConfig(model="t5", label_set=LABELS))
        result = annotator.annotate_column(Column(values=["", "  "]))
        assert result.label == NULL_LABEL
        assert result.strategy == "empty-column"

    def test_rule_short_circuits_model(self, url_column):
        model = ScriptedModel(answers=["person"])
        annotator = ArcheType(
            ArcheTypeConfig(model=model, label_set=LABELS, ruleset=SOTAB_27_RULES)
        )
        result = annotator.annotate_column(url_column)
        assert result.label == "url"
        assert result.rule_applied
        assert model.prompts == []  # the LLM was never queried

    def test_remapping_recovers_verbose_answer(self, state_column):
        model = ScriptedModel(answers=["I believe this is a state column"])
        annotator = ArcheType(
            ArcheTypeConfig(model=model, label_set=LABELS, remapper="contains")
        )
        result = annotator.annotate_column(state_column)
        assert result.label == "state"
        assert result.remapped

    def test_resample_issues_extra_queries(self, state_column):
        model = ScriptedModel(answers=["gibberish", "more gibberish", "state"])
        annotator = ArcheType(
            ArcheTypeConfig(model=model, label_set=LABELS, remapper="contains+resample",
                            resample_k=3)
        )
        result = annotator.annotate_column(state_column)
        assert result.label == "state"
        assert annotator.query_count == 3

    def test_annotate_table_covers_all_columns(self, small_table):
        annotator = ArcheType(ArcheTypeConfig(model="gpt", label_set=LABELS))
        results = annotator.annotate_table(small_table)
        assert len(results) == len(small_table)
        assert all(r.label in LABELS or r.label == NULL_LABEL for r in results)

    def test_deterministic_given_seed(self, state_column):
        def annotate_once() -> str:
            annotator = ArcheType(
                ArcheTypeConfig(model="ul2", label_set=LABELS, seed=11)
            )
            return annotator.annotate_column(state_column).label

        assert annotate_once() == annotate_once()

    def test_finetuned_prompt_style_accepted(self, state_column):
        annotator = ArcheType(
            ArcheTypeConfig(model="gpt", label_set=LABELS,
                            prompt_style=PromptStyle.FINETUNED)
        )
        result = annotator.annotate_column(state_column)
        assert result.prompt is not None
        assert "CATEGORY:" in result.prompt.text

    def test_numeric_restriction_passed_through(self, numeric_column):
        annotator = ArcheType(
            ArcheTypeConfig(model="gpt", label_set=LABELS, numeric_labels=["number"])
        )
        result = annotator.annotate_column(numeric_column)
        assert result.prompt is not None
        assert result.prompt.numeric_restricted
        assert result.label == "number"

    def test_table_context_available_to_features(self, small_table):
        from repro.core.features import FeatureConfig

        annotator = ArcheType(
            ArcheTypeConfig(
                model="gpt", label_set=LABELS,
                features=FeatureConfig.from_spec("CS+TN"),
            )
        )
        result = annotator.annotate_column(small_table[0], table=small_table, column_index=0)
        assert "TABLE NAME: demo_table.csv" in result.prompt.text

    def test_overflowing_numeric_cell_does_not_fail_the_batch(self):
        """A cell beyond float64's range is sketched over lengths, not raised."""
        from repro.core.features import FeatureConfig

        annotator = ArcheType(
            ArcheTypeConfig(
                model="gpt", label_set=LABELS,
                features=FeatureConfig.from_spec("CS+SS"),
            )
        )
        results = annotator.annotate_columns(
            [Column(["Alaska", "Texas"]), Column(["1e999", "2"])]
        )
        assert [r.label for r in results][0] == "state"
        assert results[1].label in LABELS
        assert "len std:" in results[1].prompt.text
