"""Run the triloc command in-process, the way a test needs it.

invoke(main, args, input=None) calls main(args) with stdin, stdout and
stderr redirected and returns the exit status and both streams.  A
SystemExit ends the call with its status; any other exception propagates,
so a command that crashes fails the test with its own traceback.
"""

import contextlib
import io
import sys
from typing import NamedTuple


class Result(NamedTuple):
    exit_code: int
    output: str
    stderr: str


def invoke(main, args, input=None):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    stdin = sys.stdin
    sys.stdin = io.StringIO(input or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    finally:
        sys.stdin = stdin
    return Result(code, out.getvalue(), err.getvalue())
