"""Report this interpreter's peak RSS as it exits.

The benchmark puts this directory on ``PYTHONPATH`` of the CLI children
whose memory it measures, and names a file in ``PERFBENCH_RSS_FILE``.  At
exit the child writes its ``VmHWM`` (kB) there: the high-water mark of its
own memory map, which the ``wait4`` rusage does not give after exec.
"""

import atexit
import os

_path = os.environ.get("PERFBENCH_RSS_FILE")


def _report() -> None:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                with open(_path, "w") as out:
                    out.write(line.split()[1])
                return


if _path:
    atexit.register(_report)
