"""HtmlDiff: automatic comparison of HTML pages (paper Section 5).

The pipeline: :func:`tokenize_document` turns HTML into sentences and
sentence-breaking markups; :class:`TokenMatcher` scores pairs (exact
for breaks, two-step fuzzy for sentences); the weighted Hirschberg LCS
finds the heaviest common subsequence; :func:`classify_documents` labels
tokens common/old/new; :class:`MergedPageRenderer` emits the marked-up
page.  :func:`html_diff` runs the whole thing.
"""

from .api import HtmlDiffResult, html_diff
from .classify import ClassifiedDiff, DiffEntry, EntryClass, classify_documents
from .markup import MergedPageRenderer, render_sentence_source
from .matcher import TokenMatcher, match_tokens
from .options import HtmlDiffOptions, PresentationMode
from .tokenizer import tokenize_document, tokens_from_nodes
from .tokens import BreakToken, InlineMarkup, SentenceToken, Token
from .webaware import (
    EntityChange,
    EntityChecksumStore,
    WebAwareDiffer,
    WebAwareResult,
)

__all__ = [
    "HtmlDiffResult",
    "html_diff",
    "ClassifiedDiff",
    "DiffEntry",
    "EntryClass",
    "classify_documents",
    "MergedPageRenderer",
    "render_sentence_source",
    "TokenMatcher",
    "match_tokens",
    "HtmlDiffOptions",
    "PresentationMode",
    "tokenize_document",
    "tokens_from_nodes",
    "BreakToken",
    "InlineMarkup",
    "SentenceToken",
    "Token",
    "EntityChange",
    "EntityChecksumStore",
    "WebAwareDiffer",
    "WebAwareResult",
]
