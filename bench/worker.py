"""Time rootgaps CLI calls inside one fresh interpreter.

Usage: ``python3 worker.py SPEC`` where SPEC is a JSON object with

* ``t0``     the parent's ``time.monotonic()`` just before it started this
  process, so that set-up covers interpreter start plus import,
* ``src``    the directory that holds the ``rootgaps`` package,
* ``calls``  a list of argv lists, each passed to ``rootgaps.cli.main``,
* ``trace``  a path for the span log, or null to run untraced.

Prints one JSON line: set-up and wall seconds, the reference loop's time
right after import, peak RSS, the exit code, byte size and sha256 of each
call's ``--out`` file, and, when traced, the per-layer metrics and the
targets the tracer could not find.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time


def _digest(path: str) -> tuple[str, int]:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest(), os.path.getsize(path)


def reference_loop_s() -> float:
    """Time of a fixed pure-Python float loop, the kind of work the QL and
    Newton loops of rootgaps do; it measures the current CPU speed."""
    start = time.perf_counter()
    d = [float(i % 7) for i in range(64)]
    g = 0.3
    for _ in range(5000):
        for i in range(63):
            g = d[i + 1] - 0.5 * math.hypot(d[i], g)
            d[i] = 0.999 * g + 0.001
    return time.perf_counter() - start


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import numpy
    import rootgaps.cli as cli

    setup_s = time.monotonic() - spec["t0"]
    ref_loop_s = reference_loop_s()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall_s = 0.0
    outputs = []
    for argv in spec["calls"]:
        out = argv[argv.index("--out") + 1]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        wall_s += time.perf_counter() - start
        sha, size = _digest(out) if os.path.exists(out) else (None, 0)
        outputs.append({"path": out, "exit": code, "sha256": sha, "bytes": size})
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_loop_s": ref_loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "outputs": outputs,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.emit.bytes"] = sum(item["bytes"] for item in outputs)
        result["layers"] = layers
        result["missing"] = tracer.missing
        tracer.write(spec["trace"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
