"""Golden digests: HtmlDiff's output bytes over a seeded corpus.

The fast-vs-reference differential tests compare two paths that share
one token model, so a change to the token model itself (how words,
keys and lengths are represented) would slip past them.  These digests
pin the rendered pages, and the statistics behind them, directly:
every operator in ``MUTATORS`` x three seeds x 10/60/120-paragraph
pages, every presentation mode, ``<PRE>``-heavy and inline-markup-heavy
pages, the coarse line-diff fallback, and the worst case: two unrelated
pages of the same size (60 and 120 paragraphs), where almost every
sentence pair is weighed.

A digest changes only when some page renders differently.  If that is
intended, regenerate the table with::

    PYTHONPATH=src python tests/htmldiff/test_golden_digest.py
"""

import hashlib
import random

import pytest

from repro.core.htmldiff.api import html_diff
from repro.core.htmldiff.options import HtmlDiffOptions, PresentationMode
from repro.web.guards import HtmlBudget
from repro.workloads.mutate import MUTATORS
from repro.workloads.pagegen import PageGenerator

SEEDS = (1, 2, 3)
SIZES = (10, 60, 120)

GOLDEN = {
    "merged":
        "fa7356b3b5864411948b7c28fc0da214c5a94cb04e59e5235464f70b4652e5ac",
    "only-differences":
        "933c7a30949c548333a57eb759819eb2729227ebdeef82c45d2dba35fea9bee7",
    "merged-reversed":
        "8ceb801d7642d4497fa62fb2cbb481078cd43646a1ac98505d899a4e18486d65",
    "new-only":
        "55492365ef8e6e7604594372850f786dd588d6716dc121f770f022b791ce8c80",
    "pre-heavy":
        "39ca2e0a9469eb9cb93343cef981fb9f0bb58d59850a025a82846261beee5e5c",
    "inline-heavy":
        "f74770c4226eb33f01750c0faac64ab5e3b53923285336fbdf079f4d305ff34d",
    "coarse-line-diff":
        "e458a6d6400133bbd83a091e3e5cbecda7c970984419ddb1644ac9f82a5473f1",
    "unrelated":
        "e904b5f0306e26d0acbc90c260cea19b8e5527011cad62fb3633e66fc2e8dd06",
}


def plain_page(seed, paragraphs):
    return PageGenerator(seed=seed).page(paragraphs=paragraphs, links=8)


def pre_heavy_page(seed, paragraphs):
    """Every third paragraph becomes a <PRE> block: indented lines,
    blank lines and escaped characters, where whitespace is content."""
    gen = PageGenerator(seed=seed)
    rng = random.Random(seed)
    lines = gen.page(paragraphs=paragraphs, links=4, with_pre=True).split("\n")
    out = []
    for index, line in enumerate(lines):
        if line.startswith("<P>") and index % 3 == 0:
            out.append("<PRE>")
            for step in range(rng.randint(2, 5)):
                indent = " " * rng.choice((0, 2, 4, 8))
                out.append(f"{indent}{step}: {gen.sentence(rng.randint(2, 6))}"
                           f" a &lt; b &amp;&amp; c")
                if rng.random() < 0.3:
                    out.append("")
            out.append("</PRE>")
        else:
            out.append(line)
    return "\n".join(out)


_INLINE = (
    ("<B>", "</B>"),
    ("<I>", "</I>"),
    ("<TT>", "</TT>"),
    ('<FONT SIZE="+1">', "</FONT>"),
    ('<A HREF="http://site{n}.org/x{n}.html">', "</A>"),
)


def inline_heavy_page(seed, paragraphs):
    """Paragraph words wrapped in presentational and anchor markup,
    with inline images and entities between them."""
    rng = random.Random(seed)
    lines = plain_page(seed, paragraphs).split("\n")
    out = []
    for line in lines:
        if not (line.startswith("<P>") and line.endswith("</P>")):
            out.append(line)
            continue
        words = line[3:-4].split(" ")
        for index in range(len(words)):
            roll = rng.random()
            if roll < 0.15:
                opener, closer = rng.choice(_INLINE)
                n = rng.randint(0, 99)
                words[index] = f"{opener.format(n=n)}{words[index]}{closer}"
            elif roll < 0.20:
                words[index] += f' <IMG SRC="img{rng.randint(0, 9)}.gif">'
            elif roll < 0.23:
                words[index] += " &amp;"
        out.append("<P>" + " ".join(words) + "</P>")
    return "\n".join(out)


def unrelated_pairs():
    """Two pages that share nothing but their generator, 60 and 120
    paragraphs each."""
    for size in (60, 120):
        old = PageGenerator(seed=1).page(paragraphs=size)
        new = PageGenerator(seed=2).page(paragraphs=size)
        yield f"unrelated/{size}", old, new


def retag(html, rng):
    """A markup-only edit: one <B> becomes <I>, or one HREF moves."""
    if rng.random() < 0.5 and "<B>" in html:
        at = rng.choice([i for i in range(len(html)) if html.startswith("<B>", i)])
        end = html.find("</B>", at)
        return html[:at] + "<I>" + html[at + 3:end] + "</I>" + html[end + 4:]
    return html.replace("site", "mirror", 1)


def reindent(html, rng):
    """A whitespace-only edit inside <PRE>: one line changes indent."""
    lines = html.split("\n")
    inside = False
    candidates = []
    for index, line in enumerate(lines):
        if line == "<PRE>":
            inside = True
        elif line == "</PRE>":
            inside = False
        elif inside and line.strip():
            candidates.append(index)
    if candidates:
        index = rng.choice(candidates)
        lines[index] = "   " + lines[index]
    return "\n".join(lines)


def pairs(page, sizes=SIZES, extra=None):
    """(label, old, new) over every operator x seed x size."""
    operators = dict(MUTATORS)
    if extra is not None:
        operators[extra.__name__] = extra
    for name in sorted(operators):
        for seed in SEEDS:
            for size in sizes:
                old = page(seed, size)
                new = operators[name](old, random.Random(seed * 1009 + size))
                yield f"{name}/{seed}/{size}", old, new


def _stats(result):
    return (f"{result.difference_count} {result.change_density!r} "
            f"{result.identical} {result.density_suppressed} {result.degraded}")


def digest(cases, options, budget=None):
    h = hashlib.sha256()
    for label, old, new in cases:
        result = html_diff(old, new, options=options, budget=budget)
        for part in (label, result.html, _stats(result)):
            h.update(part.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def compute(group):
    if group == "merged":
        return digest(pairs(plain_page), HtmlDiffOptions())
    if group in ("only-differences", "merged-reversed", "new-only"):
        options = HtmlDiffOptions(mode=PresentationMode(group))
        return digest(pairs(plain_page, sizes=(10, 60)), options)
    if group == "pre-heavy":
        return digest(pairs(pre_heavy_page, sizes=(10, 60), extra=reindent),
                      HtmlDiffOptions())
    if group == "inline-heavy":
        return digest(pairs(inline_heavy_page, sizes=(10, 60), extra=retag),
                      HtmlDiffOptions())
    if group == "unrelated":
        return digest(unrelated_pairs(), HtmlDiffOptions())
    if group == "coarse-line-diff":
        return digest(pairs(plain_page, sizes=(10,)), HtmlDiffOptions(),
                      budget=HtmlBudget(max_work=100))
    raise KeyError(group)


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_golden_digest(group):
    assert compute(group) == GOLDEN[group]


if __name__ == "__main__":
    for name in GOLDEN:
        print(f'    "{name}":\n        "{compute(name)}",')
