"""Byte-level toy tokenizer and chat-turn formatting.

Ids 0..255 are raw bytes; control tokens get the fixed ids below. The
literal text "[BOS]" never maps to the BOS id: BOS is injected only via
add_bos=True. Control markers <start_of_turn>, <end_of_turn> and <eos>
appearing in text are mapped to their control ids, mirroring how reserved
tokenizer symbols behave.
"""

import re
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

from .errors import ChatFormatError

BOS_ID = 256
EOS_ID = 257
START_OF_TURN_ID = 258
END_OF_TURN_ID = 259
VOCAB_SIZE = 260

START_OF_TURN = "<start_of_turn>"
END_OF_TURN = "<end_of_turn>"
EOS_TEXT = "<eos>"
BOS_TEXT = "[BOS]"  # display form only, never produced by encode()

_CONTROL_STRINGS = {
    START_OF_TURN: START_OF_TURN_ID,
    END_OF_TURN: END_OF_TURN_ID,
    EOS_TEXT: EOS_ID,
}
_CONTROL_TEXTS = {token_id: marker for marker, token_id in _CONTROL_STRINGS.items()}
# split keeps each marker it splits at, at the odd indices
_MARKERS = re.compile("(" + "|".join(map(re.escape, _CONTROL_STRINGS)) + ")")


def encode(text: str, add_bos: bool = False) -> list[int]:
    """UTF-8 bytes plus control-token substitution; BOS only via the flag."""
    ids = [BOS_ID] if add_bos else []
    for i, piece in enumerate(_MARKERS.split(text)):
        if i % 2:
            ids.append(_CONTROL_STRINGS[piece])
        else:
            ids.extend(piece.encode("utf-8"))
    return ids


def tokenize_with_bos(text: str) -> list[int]:
    return encode(text, add_bos=True)


def decode(ids: Sequence[int], show_bos: bool = False) -> str:
    """Inverse of encode; BOS renders as "[BOS]" when show_bos is set. Each run
    of byte ids decodes on its own, with invalid UTF-8 replaced."""
    texts = {**_CONTROL_TEXTS, BOS_ID: BOS_TEXT if show_bos else ""}
    parts: list[str] = []
    for is_byte, run in groupby(ids, key=lambda t: 0 <= t <= 255):
        if is_byte:
            parts.append(bytes(run).decode("utf-8", errors="replace"))
            continue
        for t in run:
            if t not in texts:
                raise ValueError(f"unknown token id {t}")
            parts.append(texts[t])
    return "".join(parts)


@dataclass(frozen=True)
class ChatTurn:
    role: str  # "user" or "model"
    text: str

    def __post_init__(self):
        if self.role not in ("user", "model"):
            raise ChatFormatError(f"role must be 'user' or 'model', got {self.role!r}")


def format_chat(turns: Sequence[ChatTurn]) -> str:
    """Render a conversation into the generation-prompt template.

    Each turn becomes "<start_of_turn>{role}\\n{text}<end_of_turn>\\n" and a
    trailing "<start_of_turn>model\\n" invites the reply. Turns must
    alternate user/model and end on a user turn; an empty list renders to
    the empty string (the BOS still comes from the tokenizer).
    """
    for prev, cur in zip(turns, turns[1:]):
        if prev.role == cur.role:
            raise ChatFormatError(f"consecutive {cur.role!r} turns do not alternate")
    if turns and turns[-1].role != "user":
        raise ChatFormatError("conversation must end with a user turn")
    parts = [f"{START_OF_TURN}{t.role}\n{t.text}{END_OF_TURN}\n" for t in turns]
    if turns:
        parts.append(f"{START_OF_TURN}model\n")
    return "".join(parts)
