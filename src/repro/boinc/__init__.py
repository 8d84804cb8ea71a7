"""The BOINC substrate: project server, daemons, data server, and client.

Public surface:

- server side: :class:`SchedulerCore` (the transport-agnostic
  scheduler/daemon state machine), :class:`ProjectServer`, :class:`ServerConfig`,
  :class:`Database`, :class:`DataServer`, plus the workunit/result model;
- client side: :class:`Client`, :class:`ClientConfig`, strategy protocols
  (:class:`InputFetcher`, :class:`OutputPolicy`, :class:`Executor`) and
  their stock implementations.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".client": ("Client", "ClientConfig", "ClientTask", "ServerInputFetcher",
                "ServerUploadPolicy", "TaskState", "download_with_retry",
                "upload_with_retry"),
    ".dataserver": ("ChecksumMismatch", "DataServer", "FileMissing",
                    "ServerUnavailable"),
    ".model": ("Database", "FileRef", "HostRecord", "OutputData", "Result",
               "ResultOutcome", "ResultState", "ValidateState", "Workunit",
               "WorkunitState"),
    ".project": ("ProjectServer",),
    ".server": ("Assignment", "ReportedResult", "SchedulerCore",
                "SchedulerReply", "SchedulerRequest", "ServerConfig"),
})

__all__ = [
    "ProjectServer",
    "SchedulerCore",
    "ServerConfig",
    "SchedulerRequest",
    "SchedulerReply",
    "ReportedResult",
    "Assignment",
    "Database",
    "DataServer",
    "FileMissing",
    "ServerUnavailable",
    "ChecksumMismatch",
    "download_with_retry",
    "upload_with_retry",
    "Workunit",
    "WorkunitState",
    "Result",
    "ResultState",
    "ResultOutcome",
    "ValidateState",
    "FileRef",
    "OutputData",
    "HostRecord",
    "Client",
    "ClientConfig",
    "ClientTask",
    "TaskState",
    "ServerInputFetcher",
    "ServerUploadPolicy",
]
