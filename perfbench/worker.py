"""One wireid invocation in a fresh process.

Started by run.py from the root of a checkout as `python3 perfbench/worker.py`.
The worker imports wireid from the checkout's src/ the way the console
script does (`from wireid.cli import main`) and then writes one byte to
stdout; run.py takes the time until that byte as the cold start. It then
reads a single request from stdin, a marshal-encoded
    (request_id, argv, stdin_bytes_or_None, traced)
and runs wireid.cli.main(argv) with sys.stdin, sys.stdout and sys.stderr
replaced by in-memory streams (stderr is dropped), timing
calibrate.calibrate() just before and just after. The reply on stdout is a marshal-encoded
    (exit_status, stdout_bytes, seconds, max_rss_kb, calibration_s, spans, error)
where seconds covers main() alone, calibration_s is the mean of the two
calibration times, spans is None unless traced, and error is None unless
main() raised.
"""

import io
import marshal
import os
import sys
import time

SRC = os.path.abspath("src")
sys.path.insert(0, SRC)

from wireid.cli import main  # noqa: E402

import wireid  # noqa: E402

if not os.path.abspath(wireid.__file__).startswith(SRC + os.sep):
    sys.exit(f"worker: imported wireid from {wireid.__file__}, not from {SRC}")

channel_in, channel_out = sys.stdin.buffer, sys.stdout.buffer
channel_out.write(b"R")
channel_out.flush()

request_id, argv, stdin_bytes, traced = marshal.loads(channel_in.read())

from calibrate import calibrate  # noqa: E402

spans = None
if traced:
    from tracer import Tracer

    tracer = Tracer(request_id)
    tracer.install()
    spans = tracer.spans
    main = sys.modules["wireid.cli"].main

out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
saved = sys.stdin, sys.stdout, sys.stderr
sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes or b""), encoding="utf-8")
sys.stdout, sys.stderr = out, err
error = None
before = calibrate()
start = time.perf_counter()
try:
    status = main(argv)
except SystemExit as exc:
    status = exc.code if isinstance(exc.code, int) else 1
except Exception as exc:  # reported to run.py as a failed request
    status, error = -1, f"{type(exc).__name__}: {exc}"
seconds = time.perf_counter() - start
sys.stdin, sys.stdout, sys.stderr = saved

import resource  # noqa: E402

max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
calibration_s = (before + calibrate()) / 2
out.flush()
reply = (status, out.buffer.getvalue(), seconds, max_rss_kb, calibration_s, spans, error)
channel_out.write(marshal.dumps(reply))
channel_out.flush()
