import pytest

from gemma_mini.errors import ChatFormatError
from gemma_mini.tokenizer import (
    BOS_ID,
    END_OF_TURN_ID,
    EOS_ID,
    START_OF_TURN_ID,
    VOCAB_SIZE,
    ChatTurn,
    decode,
    encode,
    format_chat,
    tokenize_with_bos,
)

# The canonical two-exchange conversation and the exact prompt it must
# produce (BOS shown in its display form).
CONVERSATION = [
    ChatTurn("user", "Who are you?"),
    ChatTurn("model", "My name is Gemma!"),
    ChatTurn("user", "What is 2+2?"),
]
EXPECTED_PROMPT = (
    "[BOS]<start_of_turn>user\n"
    "Who are you?<end_of_turn>\n"
    "<start_of_turn>model\n"
    "My name is Gemma!<end_of_turn>\n"
    "<start_of_turn>user\n"
    "What is 2+2?<end_of_turn>\n"
    "<start_of_turn>model\n"
)


class TestEncode:
    def test_plain_bytes(self):
        assert encode("ab") == [97, 98]

    def test_add_bos_flag(self):
        assert tokenize_with_bos("a") == [BOS_ID, 97]

    def test_bos_text_is_not_special(self):
        # "[BOS]" must tokenize as plain bytes, never as the BOS id
        ids = encode("[BOS]")
        assert BOS_ID not in ids
        assert ids == [ord(c) for c in "[BOS]"]

    def test_control_markers_map_to_control_ids(self):
        assert encode("<start_of_turn>") == [START_OF_TURN_ID]
        assert encode("<end_of_turn>") == [END_OF_TURN_ID]
        assert encode("<eos>") == [EOS_ID]

    def test_round_trip(self):
        text = "mixed <start_of_turn>user\npayload<end_of_turn> bytes"
        assert decode(encode(text)) == text

    def test_ids_stay_within_vocab(self):
        ids = tokenize_with_bos("any text at all \xe9")
        assert all(0 <= t < VOCAB_SIZE for t in ids)

    def test_decode_renders_bos_on_request(self):
        assert decode([BOS_ID, 104, 105], show_bos=True) == "[BOS]hi"
        assert decode([BOS_ID, 104, 105]) == "hi"

    def test_partial_and_nested_markers_stay_bytes(self):
        # only a whole marker is a control id; "<eo" and the brackets around "<eos>" are bytes
        assert encode("<eo<<eos>>é") == [*b"<eo<", EOS_ID, *b">", 0xC3, 0xA9]
        assert encode("<end_of<start_of_turn>") == [*b"<end_of", START_OF_TURN_ID]
        assert decode([*b"<eo<", EOS_ID, *b">", 0xC3, 0xA9]) == "<eo<<eos>>é"

    def test_decode_splits_byte_runs_at_every_control_id(self):
        # each run of bytes decodes on its own, even across a hidden BOS
        assert decode([0xC3, BOS_ID, 0xA9]) == "\ufffd\ufffd"
        assert decode([0xC3, 0xA9, END_OF_TURN_ID]) == "é<end_of_turn>"
        with pytest.raises(ValueError, match="unknown token id 260"):
            decode([104, VOCAB_SIZE])


class TestFormatChat:
    def test_canonical_conversation(self):
        ids = tokenize_with_bos(format_chat(CONVERSATION))
        assert decode(ids, show_bos=True) == EXPECTED_PROMPT

    def test_bos_comes_only_from_the_tokenizer(self):
        rendered = format_chat(CONVERSATION)
        assert "[BOS]" not in rendered
        assert tokenize_with_bos(rendered)[0] == BOS_ID
        # a user typing "[BOS]" cannot forge a second BOS token
        ids = tokenize_with_bos(format_chat([ChatTurn("user", "[BOS] hello")]))
        assert ids.count(BOS_ID) == 1
        assert ids[0] == BOS_ID

    def test_empty_turns_give_bos_only(self):
        assert format_chat([]) == ""
        assert tokenize_with_bos(format_chat([])) == [BOS_ID]

    def test_single_turn(self):
        out = format_chat([ChatTurn("user", "hi")])
        assert out == "<start_of_turn>user\nhi<end_of_turn>\n<start_of_turn>model\n"

    def test_non_alternating_rejected(self):
        with pytest.raises(ChatFormatError):
            format_chat([ChatTurn("user", "a"), ChatTurn("user", "b")])

    def test_must_end_with_user(self):
        with pytest.raises(ChatFormatError):
            format_chat([ChatTurn("user", "a"), ChatTurn("model", "b")])

    def test_bad_role_rejected(self):
        with pytest.raises(ChatFormatError):
            ChatTurn("system", "nope")
