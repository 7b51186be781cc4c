"""The process entry of the CLI: ``python -m dimfactor`` and the
``dimfactor`` console script both call :func:`run`.

A CLI request is one short process whose arithmetic takes microseconds,
so the interpreter's own shutdown, which tears every loaded module down
and runs a last cyclic collection, costs more than most requests do:
about 8 ms of a 55 ms ``test`` request, and about 20 ms of a sweep that
loads numpy (README, "CLI").  No request needs either, so :func:`run`
turns the cyclic collector off before the CLI is imported (a request
makes few cycles and lives too short for them to matter), flushes
stdout and stderr, and ends the process with ``os._exit``.  :func:`dimfactor.cli.main` stays the
in-process entry: it returns the exit code and never ends the process.
"""

import gc
import os
import sys


def run() -> None:
    """Run one CLI request on ``sys.argv`` and end the process with its
    exit code.  A failed write to stdout is exit 1 and no traceback: a
    reader that closed its end (``dimfactor ... | head -c 0``) gets
    nothing more, any other failure (a full disk) one ``error:`` line."""
    gc.disable()
    from .cli import EXIT_FAILURE, main

    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # the reader is gone: nothing to tell it
        code = EXIT_FAILURE
    except OSError as exc:  # any other failed write, such as to a full disk
        code = EXIT_FAILURE
        try:
            print(f"error: cannot write the output: {exc.strerror or exc}",
                  file=sys.stderr, flush=True)
        except OSError:  # stderr fails too
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
