"""Slow-corner probe: the scenarios too slow for repeated benchmark runs.

    python3 benchmarks/corners.py

Not part of the gated benchmark; run it on demand. Each corner runs
ergodic_capacity in its own process under a wall-clock limit of
TIMEOUT_S and is recorded with its seconds and whether the refinement
met its tolerance, or as "timeout". The results go to .bench_out/corners.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

TIMEOUT_S = 300.0

# name -> (knowledge code, p_avg in dB, scenario overrides); i_peak = 10,
# epsilon = 0.05 and alpha = 0.5 unless overridden
CORNERS = {
    "EP@20dB": ("EP", 20.0, {}),
    "PE@0dB,alpha=1e-4": ("PE", 0.0, {"alpha_cross": 1e-4}),
    "PE@0dB,epsilon=1e-6": ("PE", 0.0, {"epsilon": 1e-6}),
}


def _one(name: str) -> None:
    import crcap

    code, p_avg_db, overrides = CORNERS[name]
    cfg = workloads.scenario(code, p_avg_db, **overrides)
    t0 = time.perf_counter()
    res = crcap.ergodic_capacity(cfg)
    seconds = time.perf_counter() - t0
    print(json.dumps({
        "seconds": seconds, "capacity": res.capacity,
        "err": res.quadrature_error_estimate,
        "converged": workloads.converged(res.capacity, res.quadrature_error_estimate,
                                         cfg.numerics.quad_rel_tol)}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", choices=sorted(CORNERS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        _one(args.one)
        return 0
    results = {}
    for name in CORNERS:
        try:
            proc = subprocess.run([sys.executable, __file__, "--one", name],
                                  capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            results[name] = "timeout"
        else:
            results[name] = (json.loads(proc.stdout.splitlines()[-1])
                             if proc.returncode == 0 else
                             {"error": proc.stderr.strip().splitlines()[-1:]})
        print(f"{name:<22} {json.dumps(results[name])}", flush=True)
    out = HERE.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / "corners.json", "w", encoding="utf-8") as fh:
        json.dump({"timeout_s": TIMEOUT_S, "corners": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
