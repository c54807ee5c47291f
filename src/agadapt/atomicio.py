"""All-or-nothing file replacement for every file the package writes.

Checkpoints, corpus files, head selections, evaluation reports and heatmaps
are written through `atomic_write`, so a run that fails while writing leaves
the previous file in place, byte for byte, instead of a truncated one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file open for writing (text as UTF-8, or binary with "wb")
    that replaces `path` only when the block exits cleanly.

    The data goes to a temporary file in the same directory, which
    `os.replace` renames over `path`; readers see the old file or the whole
    new one. If the block raises, the temporary file is removed and `path`
    is untouched. The file is not fsynced: this guards against a failing
    writer, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
