"""One benchmark run in a fresh process: import gaugedist, run its CLI, report the cost.

    python3 perfbench/child.py SPEC.json RESULT.json LAUNCHED

LAUNCHED is the parent's ``time.monotonic()`` just before the spawn; the
clock is shared by all processes, so ``setup_s`` spans interpreter start-up
and the import of ``gaugedist.cli``.  SPEC holds ``trace``, ``run_id`` and
``invocations``, a list of ``{"argv": [...], "out": dir}``; with no
invocations the process only imports the package and reports versions.
"""

import time

import gaugedist.cli as cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def main(spec_path: str, result_path: str, launched: float) -> None:
    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec["trace"]:
        from layers import COMPUTED, Tracer

        tracer = Tracer(run_id=spec["run_id"])
        tracer.install()
    seconds, exit_codes, output_bytes = [], [], 0
    for inv in spec["invocations"]:
        start = time.perf_counter()
        exit_codes.append(cli.main(inv["argv"]))
        seconds.append(time.perf_counter() - start)
        output_bytes += _output_bytes(Path(inv["out"]))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": READY - launched,
        "run_s": sum(seconds),
        "invocation_s": seconds,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_codes": exit_codes,
        "cli_file": cli.__file__,
    }
    if not spec["invocations"]:
        import numpy
        import scipy

        result["versions"] = {"python": sys.version.split()[0], "gaugedist": cli.__version__,
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(output_bytes)
        result["computed"] = COMPUTED
        result["spans"] = [
            {"id": s[0], "name": s[1], "parent": s[2], "start": s[3], "end": s[4],
             "thread": s[5], "run_id": tracer.run_id} for s in tracer.spans]
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
