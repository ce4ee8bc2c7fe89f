"""Item translation through the chat endpoint.

Question and choices are translated as separate calls and reassembled
positionally, so the gold label never moves. The first field that fails ends
its item, whose later fields are not asked for; a field whose response does
not parse is re-asked once.
"""

from __future__ import annotations

import logging

from .datasets import Choice, McqItem
from .extraction import find_json_object
from .gateway import AuthError, GatewayError, ModelEndpoint, TransportError, chat_complete
from .languages import Language
from .prompts import build_translation_prompt, translation_key

logger = logging.getLogger(__name__)


class ItemTranslationError(GatewayError):
    """The item could not be fully translated; names the field it stopped at."""

    def __init__(self, item_id: str, target: Language, field: str, transport: bool = False):
        super().__init__(f"item {item_id} untranslated in {target.value}: field {field}")
        self.item_id = item_id
        self.target = target
        self.field = field
        self.transport = transport


def parse_translation(raw: str, target: Language) -> str | None:
    """Read the ``{Language}_translation`` key out of a translation response."""
    obj = find_json_object(raw)
    if obj is None:
        return None
    value = obj.get(translation_key(target))
    if isinstance(value, str) and value.strip():
        return value.strip()
    return None


def _translate_field(text: str, target: Language, endpoint: ModelEndpoint, backoff: float) -> str | None:
    prompt = build_translation_prompt(text, target)
    # One re-ask on unparsable output before giving up on the field.
    for _ in range(2):
        response = chat_complete(prompt, endpoint, backoff=backoff)
        translated = parse_translation(response.text, target)
        if translated is not None:
            return translated
    return None


def translate_item(item: McqItem, target: Language, endpoint: ModelEndpoint, *, backoff: float = 0.5) -> McqItem:
    """Translate question and choices into ``target``, preserving ids and gold.

    Translating into the item's own language is a copy with zero network
    calls. The fields are asked for in order, and the first that stays
    untranslated after retries and the single re-ask, or whose reply failed at
    the endpoint, raises ItemTranslationError naming it; no later field is
    asked for. An ``AuthError`` propagates.
    """
    if target == item.source_language:
        return item
    fields = [("question", item.question), *((f"choice_{c.label}", c.text) for c in item.choices)]
    texts: list[str] = []
    for name, text in fields:
        try:
            translated = _translate_field(text, target, endpoint, backoff)
        except AuthError:
            raise
        except GatewayError as exc:
            logger.warning("%s translation failed for %s: %s", name, item.item_id, exc)
            raise ItemTranslationError(item.item_id, target, name, transport=isinstance(exc, TransportError)) from None
        if translated is None:
            raise ItemTranslationError(item.item_id, target, name)
        texts.append(translated)
    return McqItem(
        item_id=item.item_id,
        dataset_id=item.dataset_id,
        question=texts[0],
        choices=tuple(Choice(c.label, t) for c, t in zip(item.choices, texts[1:])),
        gold_label=item.gold_label,
        country=item.country,
        source_language=target,
    )
