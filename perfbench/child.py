"""Run one hyperlat CLI command in this fresh interpreter and record it.

    python3 perfbench/child.py RECORD_JSON TRACE(0|1) -- CLI ARGS...

The import of ``hyperlat.cli`` comes first, so the moment it finishes marks
the end of set-up as a user's ``hyperlat ...`` would see it.  The record
holds that moment, the exit code, any exception, the histogram-cache size
and, when tracing, the spans.  With no CLI arguments the command only
imports (a warm-up that compiles bytecode).
"""

import sys
import time

import hyperlat.cli

IMPORTED_AT = time.monotonic()


def main() -> int:
    import json
    import os
    import traceback

    record_path, trace_flag = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    src = os.path.join(os.getcwd(), "src", "")
    record = {"imported_at": IMPORTED_AT, "exit": 0, "error": None,
              "absent": [], "spans": []}
    if not os.path.abspath(hyperlat.cli.__file__).startswith(src):
        record["exit"] = 3
        record["error"] = f"hyperlat imported from outside {src}"
    elif argv:
        import spans
        recorder = spans.install() if trace_flag == "1" else None
        try:
            record["exit"] = hyperlat.cli.main(argv) or 0
        except SystemExit as exc:
            record["exit"] = exc.code if isinstance(exc.code, int) else 2
            record["error"] = f"SystemExit: {exc.code}"
        except Exception as exc:
            traceback.print_exc()
            record["exit"] = 1
            record["error"] = f"{type(exc).__name__}: {exc}"
        sys.stdout.flush()
        record["hist_cache"] = spans.hist_cache_stats()
        if recorder is not None:
            record["spans"] = recorder.spans
            record["absent"] = recorder.absent
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return record["exit"]


if __name__ == "__main__":
    sys.exit(main())
