"""One timed unit: a fresh interpreter that runs one ``repro`` command.

Usage::

    python child.py '{"src": ..., "workload": ..., "seed": ..., "unit": ...,
                      "cache_dir": ..., "stdout_path": ..., "trace_path": null}'

The unit imports ``repro`` and its CLI module, builds the workload's
argv, and calls ``repro.__main__.main(argv)`` with stdout captured to
``stdout_path``.  With ``trace_path`` set, the layer wrappers of
:mod:`tracer` are installed first and the span document is written
there.  The unit prints one JSON report line, then a last line holding
the timestamp it took just before the interpreter's teardown.  All
timestamps are ``time.perf_counter()``, a system-wide monotonic clock,
so the parent can subtract its own spawn and exit times from them.
"""

import contextlib
import io
import json
import sys
import time

import tracer
import workloads


def _peak_rss_kb() -> int:
    """Peak resident set of this process image (``VmHWM``)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    modules_before = len(sys.modules)
    t_import = time.perf_counter()
    import repro.__main__ as cli

    import_s = time.perf_counter() - t_import
    import_modules = len(sys.modules) - modules_before
    argv = workloads.argv(spec["workload"], spec["seed"], spec["cache_dir"])
    t_setup = time.perf_counter()

    recorder = None
    if spec["trace_path"]:
        recorder = tracer.Recorder(spec["unit"])
        tracer.install(recorder)
        run = recorder.span(tracer.ROOT, cli.main)
    else:
        run = cli.main

    captured = io.StringIO()
    error = None
    t_main = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            rc = run(argv)
    except SystemExit as exc:
        rc, error = exc.code, f"SystemExit: {exc.code}"
    except Exception as exc:  # the unit's points count as failed
        rc, error = 1, f"{type(exc).__name__}: {exc}"
    t_main_end = time.perf_counter()

    with open(spec["stdout_path"], "w") as out:
        out.write(captured.getvalue())
    if recorder is not None:
        with open(spec["trace_path"], "w") as out:
            json.dump(recorder.document(spec["workload"]), out)

    report = {
        "t_setup": t_setup,
        "t_main": t_main,
        "t_main_end": t_main_end,
        "import_s": import_s,
        "import_modules": import_modules,
        "rc": rc,
        "error": error,
        "peak_rss_kb": _peak_rss_kb(),
        "wrappers": tracer.installed_wrappers(),
    }
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    sys.stdout.write(json.dumps({"t_last": time.perf_counter()}) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
