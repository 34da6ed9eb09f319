"""Character entity handling for mid-1990s HTML.

HtmlDiff compares words textually, so ``&amp;`` and a literal ``&`` in
two versions of a page must compare equal; the merged-page renderer must
also re-escape text it wraps in highlight markup.  Only the HTML 2.0
named entities plus numeric references are supported — that is what the
paper's corpus used.
"""

from __future__ import annotations

import re
from typing import Dict

__all__ = ["decode_entities", "encode_entities", "NAMED_ENTITIES"]

#: The HTML 2.0 named character entities (ISO 8859-1 subset that 1995-era
#: documents actually used, plus the structural four).
NAMED_ENTITIES: Dict[str, str] = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "nbsp": " ",
    "copy": "©",
    "reg": "®",
    "agrave": "à", "Agrave": "À",
    "aacute": "á", "Aacute": "Á",
    "eacute": "é", "Eacute": "É",
    "egrave": "è", "Egrave": "È",
    "iacute": "í", "Iacute": "Í",
    "oacute": "ó", "Oacute": "Ó",
    "uacute": "ú", "Uacute": "Ú",
    "ntilde": "ñ", "Ntilde": "Ñ",
    "ouml": "ö", "Ouml": "Ö",
    "uuml": "ü", "Uuml": "Ü",
    "auml": "ä", "Auml": "Ä",
    "szlig": "ß",
    "ccedil": "ç", "Ccedil": "Ç",
    "middot": "·",
    "sect": "§",
    "para": "¶",
}

#: Lowercased names that have no case-distinct twin, so ``&AMP;`` still
#: decodes but ``&EACUTE;`` (is it É or é?) stays verbatim.
_FOLDED = [name.lower() for name in NAMED_ENTITIES]
_CASELESS: Dict[str, str] = {
    name.lower(): char for name, char in NAMED_ENTITIES.items()
    if _FOLDED.count(name.lower()) == 1
}

_ENTITY_RE = re.compile(r"&(#(?:\d+|[xX][0-9a-fA-F]+)|[a-zA-Z][a-zA-Z0-9]*);?")


def decode_entities(text: str) -> str:
    """Replace entity references with their characters.

    Names match exactly first (``&Eacute;`` is É, ``&eacute;`` é); a
    name with no case-distinct twin also matches in any case.  Unknown
    named entities are left verbatim (browsers of the era did the
    same), as are malformed numeric references.
    """

    def _replace(match: re.Match) -> str:
        body = match.group(1)
        if body.startswith("#"):
            try:
                if body[1:2] in ("x", "X"):
                    code = int(body[2:], 16)
                else:
                    code = int(body[1:])
                return chr(code)
            except (ValueError, OverflowError):
                return match.group(0)
        replacement = NAMED_ENTITIES.get(body)
        if replacement is None:
            replacement = _CASELESS.get(body.lower())
        return replacement if replacement is not None else match.group(0)

    return _ENTITY_RE.sub(_replace, text)


def encode_entities(text: str, quote: bool = False) -> str:
    """Escape characters that would be misread as markup.

    ``quote=True`` additionally escapes double quotes, for use inside
    attribute values.
    """
    out = (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )
    if quote:
        out = out.replace('"', "&quot;")
    return out
