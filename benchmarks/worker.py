"""One round of an in-process workload, in a fresh interpreter.

    python worker.py WORKLOAD SEED ROUND TRACE SPAWNED_AT RESULT_JSON [--setup-only]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes of the machine), so
the reported set-up time covers interpreter start, `import crcap` and
building the inputs. The round visits every task once in the seed's
order and writes the timings and outputs to RESULT_JSON; the parent
checks the outputs.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    workload, seed, round_index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    spawned_at, result_path = float(argv[4]), argv[5]
    setup_only = "--setup-only" in argv[6:]

    import crcap
    import workloads

    calls = workloads.build_inputs(workload, seed)
    setup_s = time.monotonic() - spawned_at
    result = {"setup_s": setup_s, "tasks": [],
              "quad_rel_tol": crcap.NumericSettings().quad_rel_tol}
    if not setup_only:
        recorder = None
        if trace:
            import tracing

            recorder = tracing.Recorder()
            tracing.install(recorder)
        order = workloads.visit_order(workload, seed, round_index, calls)
        raw = {}
        t_pass = time.perf_counter()
        for name in order:
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    raw[name] = calls[name]()
                else:
                    with recorder.task(name):
                        raw[name] = calls[name]()
            except Exception as exc:  # a failed task is counted, not fatal
                raw[name] = exc
            result["tasks"].append({"name": name, "seconds": time.perf_counter() - t0})
        result["wall_s"] = time.perf_counter() - t_pass
        for task in result["tasks"]:
            out = raw[task["name"]]
            task["output"] = ({"error": f"{type(out).__name__}: {out}"}
                              if isinstance(out, Exception)
                              else workloads.summarize(workload, out))
        if recorder is not None:
            spans_path = os.path.splitext(result_path)[0] + ".spans.json"
            recorder.dump(spans_path)
            result["spans"] = spans_path
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
