"""The BOINC substrate: project server, daemons, data server, and client.

Public surface:

- server side: :class:`SchedulerCore` (the transport-agnostic
  scheduler/daemon state machine), :class:`ProjectServer`, :class:`ServerConfig`,
  :class:`Database`, :class:`DataServer`, plus the workunit/result model;
- client side: :class:`Client`, :class:`ClientConfig`, strategy protocols
  (:class:`InputFetcher`, :class:`OutputPolicy`, :class:`Executor`) and
  their stock implementations.
"""

from .client import (
    Client,
    ClientConfig,
    ClientTask,
    ServerInputFetcher,
    ServerUploadPolicy,
    TaskState,
    download_with_retry,
    upload_with_retry,
)
from .dataserver import ChecksumMismatch, DataServer, FileMissing, ServerUnavailable
from .model import (
    Database,
    FileRef,
    HostRecord,
    OutputData,
    Result,
    ResultOutcome,
    ResultState,
    ValidateState,
    Workunit,
    WorkunitState,
)
from .server import (
    Assignment,
    ProjectServer,
    ReportedResult,
    SchedulerCore,
    SchedulerReply,
    SchedulerRequest,
    ServerConfig,
)

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
