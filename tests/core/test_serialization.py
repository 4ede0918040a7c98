"""Unit tests for prompt serialization (styles, overflow, numeric restriction)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import serialization
from repro.core.serialization import (
    _SKELETON_TOKENS,
    PromptSerializer,
    PromptStyle,
    _SkeletonTokenMemo,
    detect_numeric_context,
    join_classnames,
    join_context,
    prompt_style_from_name,
)
from repro.exceptions import ConfigurationError, SerializationError
from repro.llm.tokenizer import SimpleTokenizer

LABELS = ["state", "person", "url", "number"]
CONTEXT = ["Alaska", "Colorado", "Kentucky"]


class TestHelpers:
    def test_join_context_skips_blanks(self):
        assert join_context(["a", " ", "b"]) == "a, b"

    def test_join_classnames(self):
        assert join_classnames(["a", "b"]) == "a, b"

    def test_detect_numeric_context(self):
        assert detect_numeric_context(["550mm", "608mm"])
        assert detect_numeric_context(["1", "2.5"])
        assert not detect_numeric_context(["Alaska", "42"])
        assert not detect_numeric_context([])

    def test_prompt_style_from_name(self):
        assert prompt_style_from_name("s") is PromptStyle.S
        with pytest.raises(ConfigurationError):
            prompt_style_from_name("Z")


class TestSerialization:
    @pytest.mark.parametrize("style", PromptStyle.zero_shot_styles())
    def test_every_style_includes_context_and_labels(self, style):
        serializer = PromptSerializer(style=style, context_window=2048)
        prompt = serializer.serialize(CONTEXT, LABELS)
        assert "Alaska" in prompt.text
        for label in LABELS:
            assert label in prompt.text
        assert prompt.style is style
        assert not prompt.truncated

    def test_labels_are_sorted_by_default(self):
        serializer = PromptSerializer(style=PromptStyle.S)
        prompt = serializer.serialize(CONTEXT, ["zebra", "apple"])
        assert prompt.label_set == ("apple", "zebra")
        assert prompt.text.index("apple") < prompt.text.index("zebra")

    def test_label_order_preserved_when_sorting_disabled(self):
        serializer = PromptSerializer(style=PromptStyle.S, sort_labels=False)
        prompt = serializer.serialize(CONTEXT, ["zebra", "apple"])
        assert prompt.label_set == ("zebra", "apple")

    def test_finetuned_style_omits_label_set(self):
        serializer = PromptSerializer(style=PromptStyle.FINETUNED)
        prompt = serializer.serialize(CONTEXT, LABELS)
        assert "state" not in prompt.text
        assert prompt.text.startswith("INSTRUCTION:")
        assert prompt.text.rstrip().endswith("CATEGORY:")

    def test_numeric_restriction_applies_only_to_numeric_context(self):
        serializer = PromptSerializer(
            style=PromptStyle.S, numeric_labels=["number"],
        )
        numeric_prompt = serializer.serialize(["550mm", "608mm"], LABELS)
        assert numeric_prompt.numeric_restricted
        assert numeric_prompt.label_set == ("number",)
        text_prompt = serializer.serialize(CONTEXT, LABELS)
        assert not text_prompt.numeric_restricted
        assert set(text_prompt.label_set) == set(LABELS)

    def test_overflow_truncates_context_but_keeps_labels(self):
        serializer = PromptSerializer(style=PromptStyle.S, context_window=120)
        long_context = [f"value number {i} with some extra words" for i in range(200)]
        prompt = serializer.serialize(long_context, LABELS)
        assert prompt.truncated
        assert prompt.token_count <= 120
        for label in LABELS:
            assert label in prompt.text

    def test_impossible_window_raises(self):
        serializer = PromptSerializer(style=PromptStyle.K, context_window=10)
        with pytest.raises(SerializationError):
            serializer.serialize(CONTEXT, LABELS)

    def test_invalid_context_window_rejected(self):
        with pytest.raises(ConfigurationError):
            PromptSerializer(context_window=0)

    def test_style_accepts_string_names(self):
        serializer = PromptSerializer(style="b")
        assert serializer.style is PromptStyle.B
        with pytest.raises(ConfigurationError):
            PromptSerializer(style="nonsense")

    def test_table_at_once_serialization_mentions_every_column(self):
        serializer = PromptSerializer(style=PromptStyle.K, context_window=100000)
        prompt = serializer.serialize_table_at_once(
            [["a", "b"], ["1", "2"], ["x", "y"]], LABELS
        )
        assert "column 0" in prompt.text
        assert "column 2" in prompt.text

    def test_token_count_reported(self):
        serializer = PromptSerializer(style=PromptStyle.S)
        prompt = serializer.serialize(CONTEXT, LABELS)
        assert prompt.token_count > 0


class SuperAdditiveTokenizer(SimpleTokenizer):
    """Adversarial tokenizer: counts are not additive across the join.

    Rendering context into the skeleton costs ``join_penalty`` extra tokens
    that neither half carries alone — the shape of a real BPE tokenizer whose
    merges differ once the strings are concatenated.  The old budget logic
    (window - skeleton) assumed additivity and could emit prompts whose final
    ``token_count`` exceeded the context window.
    """

    def __init__(self, join_penalty: int = 12) -> None:
        self.join_penalty = join_penalty

    def count(self, text: str) -> int:
        base = super().count(text)
        # The penalty only fires on a fully rendered prompt: instruction
        # skeleton AND non-empty context present.
        if "Column:" in text and "Classes:" in text:
            rendered_context = text.split("Column:", 1)[1].split(". Classes:", 1)[0]
            if rendered_context.strip():
                return base + self.join_penalty
        return base


class TestPostRenderOverflowGuard:
    def test_nonadditive_tokenizer_cannot_overflow_window(self):
        tokenizer = SuperAdditiveTokenizer(join_penalty=12)
        window = 60
        serializer = PromptSerializer(
            style=PromptStyle.S, context_window=window, tokenizer=tokenizer
        )
        # Sized so skeleton + context fits the naive budget but the rendered
        # prompt overflows by the join penalty.
        context = [f"value{i}" for i in range(40)]
        prompt = serializer.serialize(context, LABELS)
        assert prompt.token_count <= window
        assert tokenizer.count(prompt.text) <= window
        assert prompt.truncated

    def test_additive_tokenizer_behaviour_unchanged(self):
        window = 60
        baseline = PromptSerializer(style=PromptStyle.S, context_window=window)
        adversarial = PromptSerializer(
            style=PromptStyle.S,
            context_window=window,
            tokenizer=SuperAdditiveTokenizer(join_penalty=0),
        )
        context = [f"value{i}" for i in range(40)]
        assert baseline.serialize(context, LABELS).text == adversarial.serialize(
            context, LABELS
        ).text

    def test_huge_penalty_degrades_to_skeleton_not_overflow(self):
        # Even when any non-empty context overflows, serialization must not
        # emit an over-window prompt: the context is dropped entirely.
        tokenizer = SuperAdditiveTokenizer(join_penalty=1000)
        window = 60
        serializer = PromptSerializer(
            style=PromptStyle.S, context_window=window, tokenizer=tokenizer
        )
        prompt = serializer.serialize(["alpha", "beta"], LABELS)
        assert prompt.token_count <= window
        assert prompt.truncated

    def test_every_zero_shot_style_respects_window(self):
        tokenizer = SuperAdditiveTokenizer(join_penalty=7)
        context = [f"value{i}" for i in range(60)]
        for style in PromptStyle.zero_shot_styles():
            serializer = PromptSerializer(
                style=style, context_window=120, tokenizer=tokenizer
            )
            prompt = serializer.serialize(context, LABELS)
            assert tokenizer.count(prompt.text) <= 120, style


class TestSkeletonTokenMemo:
    def test_hits_return_the_tokenizers_count(self):
        memo = _SkeletonTokenMemo(max_entries=4, max_bytes=1 << 20)
        tokenizer = SimpleTokenizer()
        skeleton = "Pick the column's class. Column: . Classes: a, b. Output: "
        assert memo.count(tokenizer, skeleton) == tokenizer.count(skeleton)
        assert memo.count(tokenizer, skeleton) == tokenizer.count(skeleton)
        assert memo.usage()[0] == 1

    def test_tokenizers_are_keyed_apart(self):
        memo = _SkeletonTokenMemo(max_entries=4, max_bytes=1 << 20)
        text = "Column: x. Classes: a."
        plain = SimpleTokenizer().count(text)
        assert memo.count(SimpleTokenizer(), text) == plain
        assert memo.count(SuperAdditiveTokenizer(join_penalty=5), text) == plain + 5

    def test_evicts_least_recently_used_within_entry_bound(self):
        memo = _SkeletonTokenMemo(max_entries=2, max_bytes=1 << 20)
        tokenizer = SimpleTokenizer()
        for skeleton in ("one", "two", "one", "three"):
            memo.count(tokenizer, skeleton)
        assert memo.usage()[0] == 2
        assert set(key[1] for key in memo._counts) == {"one", "three"}

    def test_memo_stays_bounded_under_many_large_label_sets(self, monkeypatch):
        # /v1/annotate accepts client label sets up to the body limit, so
        # an unbounded memo would let clients grow server memory at will.
        # Serializers share one memo; a small one here keeps the test fast.
        memo = _SkeletonTokenMemo(max_entries=16, max_bytes=256 * 1024)
        monkeypatch.setattr(serialization, "_SKELETON_TOKENS", memo)
        serializer = PromptSerializer(style=PromptStyle.S, context_window=10**7)
        for index in range(40):
            labels = [f"label{index}x{j:04d}" for j in range(2000)]
            prompt = serializer.serialize(CONTEXT, labels)
            assert prompt.token_count == SimpleTokenizer().count(prompt.text)
            entries, size = memo.usage()
            assert entries <= memo.max_entries
            assert size <= memo.max_bytes
        assert memo.usage()[0] < memo.max_entries  # the byte bound bit first
        # A skeleton larger than the whole byte bound is counted, not kept.
        huge = [f"h{j:07d}" for j in range(memo.max_bytes // 8)]
        before = memo.usage()
        prompt = serializer.serialize(CONTEXT, huge)
        assert prompt.token_count == SimpleTokenizer().count(prompt.text)
        assert memo.usage() == before

    def test_shared_memo_is_bounded(self):
        assert _SKELETON_TOKENS.max_entries <= 1024
        assert _SKELETON_TOKENS.max_bytes <= 16 * 1024 * 1024
        entries, size = _SKELETON_TOKENS.usage()
        assert entries <= _SKELETON_TOKENS.max_entries
        assert size <= _SKELETON_TOKENS.max_bytes

    def test_concurrent_serializers_keep_the_memo_consistent(self, monkeypatch):
        # Service handler threads share the memo: more threads than cores and
        # a tiny switch interval shake out lost updates to its byte count.
        memo = _SkeletonTokenMemo(max_entries=8, max_bytes=64 * 1024)
        monkeypatch.setattr(serialization, "_SKELETON_TOKENS", memo)
        serializer = PromptSerializer(style=PromptStyle.S, context_window=10**6)
        label_sets = [[f"l{i}x{j:03d}" for j in range(300)] for i in range(24)]
        expected = [serializer.serialize(CONTEXT, ls).token_count for ls in label_sets]
        errors: list[BaseException] = []

        def work(offset: int) -> None:
            try:
                for step in range(60):
                    index = (offset + step) % len(label_sets)
                    prompt = serializer.serialize(CONTEXT, label_sets[index])
                    assert prompt.token_count == expected[index]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,), daemon=True)
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        entries, size = memo.usage()
        assert entries <= memo.max_entries and size <= memo.max_bytes
        assert size == sum(sys.getsizeof(key[1]) for key in memo._counts)
