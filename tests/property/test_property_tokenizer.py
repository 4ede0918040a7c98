"""Property-based tests for the tokenizer, serializer and prompt parser."""

from __future__ import annotations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.serialization import PromptSerializer, PromptStyle
from repro.exceptions import SerializationError
from repro.llm.prompt_parsing import parse_prompt
from repro.llm.tokenizer import SimpleTokenizer

simple_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 .,:-", max_size=120
)
#: Cell values that survive the serializer's comma-separated join unambiguously.
cell_value = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_/",
    min_size=1,
    max_size=25,
).filter(lambda s: s.strip("-_/") != "")
label_value = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=15)
#: Any code point at all, lone surrogates included.
any_text = st.text(alphabet=st.characters(blacklist_categories=()), max_size=80)


class TestTokenizerInvariants:
    @given(simple_text)
    @settings(max_examples=200)
    def test_counts_are_non_negative_and_zero_only_for_blank(self, text):
        count = SimpleTokenizer().count(text)
        assert count >= 0
        if text.strip():
            assert count > 0

    @given(simple_text, simple_text)
    @settings(max_examples=150)
    def test_count_is_subadditive_within_tolerance(self, a, b):
        tokenizer = SimpleTokenizer()
        combined = tokenizer.count(a + " " + b)
        assert combined <= tokenizer.count(a) + tokenizer.count(b) + 1

    @given(any_text)
    @example("٣٤٥٦٧")  # Arabic-Indic digits: \d matches them, chunked by 3
    @example("x²")  # superscript: isdigit() but not \d, one token
    @example("café")
    @example("中文字符 and 汉字")
    @example("a\ud800b")  # lone surrogate
    @settings(max_examples=300)
    def test_count_is_token_list_plus_non_ascii_surcharge(self, text):
        tokenizer = SimpleTokenizer()
        non_ascii = sum(1 for ch in text if ord(ch) > 127)
        assert tokenizer.count(text) == len(tokenizer.tokenize(text)) + non_ascii

    @given(simple_text, st.integers(min_value=1, max_value=200))
    @settings(max_examples=150)
    def test_truncate_never_exceeds_budget(self, text, budget):
        tokenizer = SimpleTokenizer()
        truncated = tokenizer.truncate(text, budget)
        assert tokenizer.count(truncated) <= budget


class TestSerializationRoundTrip:
    @given(
        st.lists(cell_value, min_size=1, max_size=8),
        st.lists(label_value, min_size=2, max_size=8, unique=True),
        st.sampled_from(PromptStyle.zero_shot_styles()),
    )
    @settings(max_examples=150)
    def test_parse_recovers_options_for_every_style(self, values, labels, style):
        serializer = PromptSerializer(style=style, context_window=100000)
        prompt = serializer.serialize(values, labels)
        parsed = parse_prompt(prompt.text)
        assert parsed.has_options
        assert set(parsed.options) == set(prompt.label_set)
        assert parsed.style_letter == style.value

    @given(
        st.lists(cell_value, min_size=1, max_size=8),
        st.lists(label_value, min_size=2, max_size=8, unique=True),
    )
    @settings(max_examples=100)
    def test_serialized_token_count_matches_tokenizer(self, values, labels):
        serializer = PromptSerializer(style=PromptStyle.S, context_window=100000)
        prompt = serializer.serialize(values, labels)
        assert prompt.token_count == SimpleTokenizer().count(prompt.text)
        assert not prompt.truncated

    @given(
        st.lists(any_text, min_size=1, max_size=8),
        st.lists(label_value, min_size=2, max_size=8, unique=True),
        st.sampled_from(list(PromptStyle)),
        st.integers(min_value=20, max_value=400),
    )
    @settings(max_examples=200)
    def test_token_count_is_the_rendered_prompts_count(
        self, values, labels, style, window
    ):
        # Every style, FINETUNED included, with and without truncation: the
        # reported count is the tokenizer's count of the text it describes.
        serializer = PromptSerializer(style=style, context_window=window)
        try:
            prompt = serializer.serialize(values, labels)
        except SerializationError:
            assume(False)
        assert prompt.token_count == SimpleTokenizer().count(prompt.text)
        assert prompt.token_count <= window
