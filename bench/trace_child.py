"""One exactbell CLI invocation with the benchmark's tracing installed.

The traced cold_cli phase runs ``python3 bench/trace_child.py <cli args>``
in place of ``python -m exactbell.cli <cli args>``. Stdout is the CLI's
own; after the CLI returns, the spans and counters recorded here are
written as one JSON line on stderr, for run.py to merge.
"""

import time

BOOT = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    recorder = tracing.Recorder()
    child = recorder.add(recorder.name_id("bench.child"), BOOT, 0.0, -1)
    recorder.current = child
    loading = recorder.open(recorder.name_id("process.import"))
    import exactbell.cli

    recorder.close(loading)
    tracing.install(recorder)
    code = exactbell.cli.main(sys.argv[1:])
    recorder.close(child)
    sys.stdout.flush()
    payload = {
        "boot": BOOT,
        "spans": [
            [recorder.names[name_id], start, end, parent]
            for name_id, start, end, parent in zip(
                recorder.name_ids, recorder.starts, recorder.ends, recorder.parents
            )
        ],
        "counts": recorder.counts,
        "samples": {name: list(values) for name, values in recorder.samples.items()},
    }
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
