"""The strategies of a bare test ``Client``: a plain BOINC client (inputs
from the data server, every output uploaded to it) running a stand-in app."""

from repro.boinc import FileRef, OutputData, ServerInputFetcher, ServerUploadPolicy


class DigestExecutor:
    """A stand-in app: every replica of a workunit computes the same
    digest, and its one output is a tenth of the inputs' size."""

    def execute(self, client, task):
        wu = task.assignment.wu
        out = FileRef(f"{wu.app_name}_{wu.id}_out_{task.assignment.result_id}",
                      sum(ref.size for ref in wu.input_files) * 0.1)
        return OutputData(digest=f"wu:{wu.id}", files=(out,))


def plain_boinc(executor):
    """``Client`` keyword arguments: server fetch and upload around *executor*."""
    return dict(input_fetcher=ServerInputFetcher(),
                output_policy=ServerUploadPolicy(), executor=executor)
