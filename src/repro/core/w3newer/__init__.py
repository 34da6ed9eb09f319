"""w3newer: tracking modifications to hotlist pages (paper Section 3).

A scalable derivative of w3new: per-URL thresholds (Table 1), layered
modification-date sources (status cache → proxy cache → HEAD →
checksum), robot exclusion, error policy, and the Figure 1 report with
Remember/Diff/History links into the snapshot facility.
"""

from .checker import CheckerFlags, UrlChecker, content_checksum
from .crawl import (
    CrawlExecutor,
    CrawlOptions,
    CrawlResult,
    FetchSlot,
    HostGovernor,
)
from .errors import (
    CheckOutcome,
    CheckSource,
    RunAborted,
    SystemicFailureDetector,
    UrlState,
)
from .history import BrowserHistory
from .hotlist import Hotlist, HotlistEntry
from .localfs import FileStat, LocalFiles
from .report import (
    ReportOptions,
    render_all_dates_report,
    render_report,
    render_report_text,
)
from .estimator import ChangeRateEstimator, UrlEstimate
from .runner import CrawlCheckpoint, RunResult, W3Newer
from .scheduler import (
    CrawlSchedule,
    PolicyDecision,
    ScheduledCheck,
    SchedulePolicy,
    build_schedule,
)
from .statuscache import StatusCache, UrlRecord
from .thresholds import (
    TABLE1_CONFIG,
    ThresholdConfig,
    ThresholdRule,
    parse_threshold_config,
)

__all__ = [
    "CheckerFlags",
    "UrlChecker",
    "content_checksum",
    "ChangeRateEstimator",
    "UrlEstimate",
    "CrawlExecutor",
    "CrawlOptions",
    "CrawlResult",
    "FetchSlot",
    "HostGovernor",
    "CrawlSchedule",
    "PolicyDecision",
    "ScheduledCheck",
    "SchedulePolicy",
    "build_schedule",
    "CrawlCheckpoint",
    "CheckOutcome",
    "CheckSource",
    "RunAborted",
    "SystemicFailureDetector",
    "UrlState",
    "BrowserHistory",
    "Hotlist",
    "HotlistEntry",
    "FileStat",
    "LocalFiles",
    "ReportOptions",
    "render_all_dates_report",
    "render_report",
    "render_report_text",
    "RunResult",
    "W3Newer",
    "StatusCache",
    "UrlRecord",
    "TABLE1_CONFIG",
    "ThresholdConfig",
    "ThresholdRule",
    "parse_threshold_config",
]
