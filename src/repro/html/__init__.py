"""HTML substrate: lexing, tag model, entities, repair.

HtmlDiff's document model (paper Section 5.1) is built from these
pieces: the lexer produces a flat node stream, the model classifies
markups as sentence-breaking / content-defining, and the repairer
balances real-world sloppy markup before the merged page is generated.
HtmlDiff's tokenizer (:mod:`repro.core.htmldiff.tokenizer`) carves text
runs into sentences, the comparison units.
"""

from .entities import decode_entities, encode_entities
from .lexer import Comment, Declaration, Node, Tag, Text, tokenize_html
from .model import (
    CONTENT_DEFINING_TAGS,
    EMPTY_TAGS,
    PRESERVED_WHITESPACE_TAGS,
    SENTENCE_BREAKING_TAGS,
    is_content_defining,
    is_empty_tag,
    is_sentence_breaking,
)
from .repair import RepairStats, repair_nodes
from .serializer import serialize_nodes

__all__ = [
    "decode_entities",
    "encode_entities",
    "Comment",
    "Declaration",
    "Node",
    "Tag",
    "Text",
    "tokenize_html",
    "CONTENT_DEFINING_TAGS",
    "EMPTY_TAGS",
    "PRESERVED_WHITESPACE_TAGS",
    "SENTENCE_BREAKING_TAGS",
    "is_content_defining",
    "is_empty_tag",
    "is_sentence_breaking",
    "RepairStats",
    "repair_nodes",
    "serialize_nodes",
]
