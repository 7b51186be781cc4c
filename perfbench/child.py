"""One dimfactor CLI request with spans on, for the traced benchmark run.

Usage: python perfbench/child.py ARGS...   (the arguments of ``dimfactor``)

The request's own output goes to stdout and stderr as usual.  The last
line on stderr is MARKER followed by this process's span totals as JSON,
including the import time of ``dimfactor.cli`` and the self time of its
``main``.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD_SPAN_CAP = 5_000


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dimfactor.cli as cli

    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.on = True
    with tracer.span("cli.main"):
        code = cli.main(sys.argv[1:])
    tracer.on = False
    sys.stdout.flush()
    summary = tracer.summary(CHILD_SPAN_CAP)
    summary["cli"] = {"import_s": import_s, "main_self_s": tracer.stats["cli.main"][2]}
    sys.stderr.write(spans.MARKER + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
