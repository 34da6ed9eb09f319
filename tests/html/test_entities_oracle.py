"""Oracle test: ``decode_entities`` against stdlib ``html.unescape``.

Seeded strings mix plain words, every name in ``NAMED_ENTITIES``
(exactly as spelled there, with its ``;``), decimal and hex character
references (with and without ``;``) and stray ``&``, ``#`` and ``;``.
Both decoders must agree on every one.

Divergences the corpus leaves out on purpose, because HTML 2.0 and
HTML5 (which ``html.unescape`` follows) decode them differently:

- unknown names: HTML5 knows ~2,200 names and decodes the longest
  known prefix (``&ampx;`` is ``&x;``); we leave an unknown name
  verbatim;
- names without a ``;``: HTML5 decodes only a legacy subset and again
  takes the longest prefix (``&ltx`` is ``<x``); we decode any known
  name whose run of letters and digits ends there;
- case variants of a name with no case-distinct twin (``&Copy;``):
  we decode them, HTML5 knows only its own spellings;
- ``&#0;``, surrogates (``&#xD800;``) and code points past
  ``0x10FFFF``: HTML5 gives U+FFFD; we give ``chr(0)``, the lone
  surrogate, or leave the reference verbatim;
- control and noncharacter code points (``&#1;``, ``&#x80;``-``&#x9F;``,
  ``&#xFDD0;``, ``&#xFFFE;``): HTML5 drops them or remaps C1 controls
  through windows-1252; we give ``chr(n)``.
"""

import html
import random

from repro.html.entities import NAMED_ENTITIES, decode_entities

SAFE_CODE_POINTS = [(0x09, 0x0A), (0x20, 0x7E), (0xA0, 0xD7FF),
                    (0xE000, 0xFDCF), (0xFDF0, 0xFFFD), (0x10000, 0x1FFFD)]
NAMES = sorted(NAMED_ENTITIES)
STRAYS = ["& ", "&; ", "&# ", "&#; ", "&#x; ", "&#xg ", "; ", "# ", "&&",
          "&&amp;", " "]


def _piece(rng: random.Random) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return "".join(rng.choice("aAbZé3.,") for _ in range(rng.randint(1, 6)))
    if kind == 1:
        return f"&{rng.choice(NAMES)};"
    if kind == 2:
        low, high = rng.choice(SAFE_CODE_POINTS)
        code = rng.randint(low, high)
        ref = f"&#{code}" if rng.random() < 0.5 else \
            f"&#{rng.choice('xX')}{code:{rng.choice('xX')}}"
        return ref + (";" if rng.random() < 0.7 else " ")
    return rng.choice(STRAYS)


def test_agrees_with_stdlib_on_seeded_strings():
    rng = random.Random(1996)
    decoded_changed = 0
    for _ in range(20000):
        text = "".join(_piece(rng) for _ in range(rng.randint(0, 8)))
        ours = decode_entities(text)
        assert ours == html.unescape(text), repr(text)
        decoded_changed += ours != text
    assert decoded_changed > 10000


def test_every_table_name_agrees():
    for name, char in NAMED_ENTITIES.items():
        assert html.unescape(f"&{name};") == char == \
            decode_entities(f"&{name};")
