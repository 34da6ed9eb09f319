"""Tests for the Table 1 threshold configuration."""

import pytest

from repro.simclock import DAY, HOUR, NEVER
from repro.core.w3newer.thresholds import (
    TABLE1_CONFIG,
    ThresholdConfig,
    parse_threshold_config,
)


class TestTable1:
    """The configuration printed as Table 1, rule by rule."""

    @pytest.fixture
    def config(self):
        return parse_threshold_config(TABLE1_CONFIG)

    def test_default_is_two_days(self, config):
        assert config.threshold_for("http://random.site.org/page.html") == 2 * DAY

    def test_local_files_every_run(self, config):
        assert config.threshold_for("file:/home/user/notes.html") == 0

    def test_yahoo_weekly(self, config):
        # "Things on Yahoo are checked only every seven days in order to
        # reduce unnecessary load on that server."
        assert config.threshold_for("http://www.yahoo.com/Science/") == 7 * DAY

    def test_att_every_run(self, config):
        # "anything in the att.com domain is checked upon every execution"
        assert config.threshold_for("http://www.research.att.com/people/") == 0
        assert config.threshold_for("http://info.att.com/") == 0

    def test_mosaic_whats_new_12h(self, config):
        url = "http://www.ncsa.uiuc.edu/SDG/Software/Mosaic/Docs/whats-new.html"
        assert config.threshold_for(url) == 12 * HOUR

    def test_mobile_page_daily(self, config):
        assert config.threshold_for(
            "http://snapple.cs.washington.edu:600/mobile/"
        ) == DAY

    def test_dilbert_never(self, config):
        # "Dilbert is never checked because it will always be different."
        assert config.threshold_for(
            "http://www.unitedmedia.com/comics/dilbert/"
        ) == NEVER

    def test_default_config_classmethod(self):
        config = ThresholdConfig.default_config()
        assert config.threshold_for("http://anything.example/") == 2 * DAY


class TestParsing:
    def test_first_match_wins(self):
        config = parse_threshold_config(
            "http://a\\.com/special.* 0\nhttp://a\\.com/.* 7d\n"
        )
        assert config.threshold_for("http://a.com/special/page") == 0
        assert config.threshold_for("http://a.com/other") == 7 * DAY

    def test_order_sensitivity(self):
        # Swapping the rules shadows the specific one — the documented
        # footgun of first-match-wins.
        config = parse_threshold_config(
            "http://a\\.com/.* 7d\nhttp://a\\.com/special.* 0\n"
        )
        assert config.threshold_for("http://a.com/special/page") == 7 * DAY

    def test_comments_and_blanks_ignored(self):
        config = parse_threshold_config("# comment\n\nhttp://x\\.com/.* 1d\n")
        assert len(config.rules) == 1

    def test_default_keyword(self):
        config = parse_threshold_config("Default 12h\n")
        assert config.threshold_for("http://anything/") == 12 * HOUR

    def test_escaped_dots_match_literally(self):
        config = parse_threshold_config(r"http://www\.yahoo\.com/.* 7d")
        # The unescaped-dot URL "wwwXyahoo" must not match... but the
        # rule has escaped dots so it matches only the literal.
        assert config.threshold_for("http://wwwxyahoo.com/") == 2 * DAY

    def test_bad_regex_rejected(self):
        with pytest.raises(ValueError):
            parse_threshold_config("http://[oops 1d\n")

    def test_bad_line_shape_rejected(self):
        with pytest.raises(ValueError):
            parse_threshold_config("just-one-field\n")

    def test_rule_for_returns_matching_rule(self):
        config = parse_threshold_config("http://a\\.com/.* 1d\n")
        rule = config.rule_for("http://a.com/x")
        assert rule is not None
        assert rule.threshold == DAY
        assert config.rule_for("http://b.com/") is None

    def test_match_is_anchored_at_start(self):
        config = parse_threshold_config("http://a\\.com/.* 0\n")
        # A URL merely *containing* the pattern elsewhere must not match.
        assert config.threshold_for("http://evil.com/?u=http://a.com/") == 2 * DAY


def perl_reference_threshold(text, url):
    """What the paper's perl script would decide for ``url``.

    Reference implementation of the semantics pinned by the Table 1
    comment: the file is an ordered pattern list, each ``Default``
    line is literally a ``.*`` rule appended after all explicit
    patterns (in encounter order, so the first ``Default`` shadows any
    later one), and the first matching pattern wins.  Kept naive on
    purpose — it must be obviously correct, not fast.
    """
    import re as _re

    from repro.simclock import parse_duration

    explicit, defaults = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pattern, spec = line.split()
        threshold = parse_duration(spec)
        if pattern.lower() == "default":
            defaults.append((".*", threshold))
        else:
            explicit.append((pattern, threshold))
    for pattern, threshold in explicit + defaults:
        if _re.match(pattern, url):
            return threshold
    return parse_duration("2d")


class TestPerlDifferential:
    """parse_threshold_config vs the reference perl evaluator."""

    CONFIGS = [
        TABLE1_CONFIG,
        # Default first (Table 1's own layout).
        "Default 3d\nhttp://a\\.com/.* 0\nhttp://b\\.com/.* never\n",
        # Default in the middle: explicit rules after it still win.
        "http://a\\.com/.* 12h\nDefault 1d\nhttp://b\\.com/.* 7d\n",
        # Default last.
        "http://a\\.com/special.* never\nhttp://a\\.com/.* 2d\nDefault 4d\n",
        # Two Defaults: the first one must win.
        "Default 12h\nhttp://a\\.com/.* 0\nDefault 7d\n",
        # No Default at all: the built-in 2d fallback.
        "http://a\\.com/.* 1d\n",
        # Overlapping patterns, specific first and specific last.
        "http://a\\.com/x/.* 0\nhttp://a\\.com/.* 7d\n",
        "http://a\\.com/.* 7d\nhttp://a\\.com/x/.* 0\n",
    ]

    URLS = [
        "http://a.com/x/deep/page.html",
        "http://a.com/special/today",
        "http://a.com/other",
        "http://b.com/index.html",
        "http://c.org/unmatched",
        "file:/home/user/notes.html",
        "http://www.yahoo.com/Science/",
        "http://www.unitedmedia.com/comics/dilbert/",
        "http://info.att.com/",
    ]

    def test_parser_matches_perl_reference(self):
        for config_text in self.CONFIGS:
            config = parse_threshold_config(config_text)
            for url in self.URLS:
                expected = perl_reference_threshold(config_text, url)
                actual = config.threshold_for(url)
                assert actual == expected, (config_text, url)

    def test_first_default_wins(self):
        config = parse_threshold_config("Default 12h\nDefault 7d\n")
        assert config.default == 12 * HOUR


class TestDefaultEquivalence:
    def test_default_equals_trailing_catchall(self):
        # The Table 1 comment: "Default is equivalent to ending the
        # file with '.*'".
        with_default = parse_threshold_config(
            "Default 3d\nhttp://a\\.com/.* 0\n"
        )
        with_catchall = parse_threshold_config(
            "http://a\\.com/.* 0\n.* 3d\n"
        )
        for url in (
            "http://a.com/x", "http://b.org/", "file:/etc/motd",
            "http://a.com.evil/", "gopher://old.school/",
        ):
            assert (with_default.threshold_for(url)
                    == with_catchall.threshold_for(url)), url


class TestFirstMatchMemo:
    """``threshold_for`` and ``rule_for`` share a memoized first-match
    lookup; it must answer as a plain first-match loop would."""

    HOSTILE = [
        "", "http://", "file:", "HTTP://WWW.YAHOO.COM/",
        "http://www.yahoo.com/\n", "http://www.yahoo.com/%2e%2e/",
        "http://a.com:80/;params?q=1#frag", 'http://x/"><SCRIPT>',
        "http://www․yahoo․com/", "http://info.att.com.evil/",
        "http://www.unitedmedia.com/comics/dilbert",
    ]

    @staticmethod
    def plain_first_match(config, url):
        for rule in config.rules:
            if rule.compiled.match(url):
                return rule
        return None

    @staticmethod
    def random_config(rng):
        pieces = ["http://", "file:", r"www\.", r"a\.com", r"b\.org",
                  r"host\d+\.example", "/", ".*", "[a-z]+", r"\d", "x?",
                  "(dir|page)", "/p"]
        specs = ["0", "12h", "1d", "7d", "never"]
        lines = []
        for _ in range(rng.randrange(0, 8)):
            pattern = "".join(rng.choice(pieces)
                              for _ in range(rng.randrange(1, 6)))
            lines.append(f"{pattern} {rng.choice(specs)}")
        if rng.random() < 0.7:
            lines.insert(rng.randrange(len(lines) + 1),
                         f"Default {rng.choice(specs)}")
        return parse_threshold_config("\n".join(lines))

    def urls(self):
        from repro.workloads.crawlworld import build_crawl_world

        world = build_crawl_world(urls=200, hosts=12, seed=23)
        return list(world.urls) + self.HOSTILE + TestPerlDifferential.URLS

    def test_memo_matches_a_plain_loop(self):
        import random

        rng = random.Random(2323)
        configs = [parse_threshold_config(TABLE1_CONFIG)] + [
            self.random_config(rng) for _ in range(40)]
        urls = self.urls()
        for config in configs:
            # Twice: the second pass answers from the memo.
            for _ in range(2):
                for url in urls:
                    rule = self.plain_first_match(config, url)
                    assert config.rule_for(url) is rule, url
                    expected = rule.threshold if rule else config.default
                    assert config.threshold_for(url) == expected, url

    def test_memo_is_bounded(self):
        from repro.core.w3newer.thresholds import FIRST_MATCH_MEMO_SIZE

        config = parse_threshold_config(TABLE1_CONFIG)
        count = FIRST_MATCH_MEMO_SIZE + 500
        for i in range(count):
            config.threshold_for(f"http://host{i}.att.com/")
            assert len(config._first_match) <= FIRST_MATCH_MEMO_SIZE
        # Evicted URLs are still answered right.
        assert config.threshold_for("http://host0.att.com/") == 0
        assert config.threshold_for("http://www.yahoo.com/x") == 7 * DAY

    def test_rules_cannot_be_mutated_in_place(self):
        config = parse_threshold_config(TABLE1_CONFIG)
        assert config.threshold_for("http://www.yahoo.com/") == 7 * DAY
        with pytest.raises((TypeError, AttributeError)):
            config.rules.append(config.rules[0])
        with pytest.raises(TypeError):
            config.rules[0] = config.rules[-1]
        built = ThresholdConfig(rules=list(config.rules), default=DAY)
        assert isinstance(built.rules, tuple)
