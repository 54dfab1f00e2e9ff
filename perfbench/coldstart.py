"""Cold-start probe, run in a fresh interpreter by `run.py`.

Times `import lbpx.cli` and then the first call of each given command, so
the mapping-table cache and every lazy set-up start empty, as they do for
each `lbpx` process a user starts. Prints one JSON object:
{"ops": {name: seconds}, "peak_rss_mb": peak resident set of this process}.

    python3 perfbench/coldstart.py SRC_DIR '[["train", [...argv]], ...]'
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    src, ops = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import lbpx.cli

    times = {"import": time.perf_counter() - start}
    for name, argv in ops:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = lbpx.cli.run_cli(argv)
        times[name] = time.perf_counter() - start
        if code != 0:
            print(f"cold {name} exited with {code}", file=sys.stderr)
            return 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB
    print(json.dumps({"ops": times, "peak_rss_mb": peak_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
