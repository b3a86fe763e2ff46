"""One pipeline pass in a fresh interpreter.

Usage: ``python3 perfbench/child.py <root> <config.json> <fresh|resume> [<spans.npz>]``

Imports sqlgrow from ``<root>/src``, runs ``run_full`` on the config and
prints one JSON line with ``time.monotonic()`` stamps (system-wide, so the
parent can subtract its own stamps), the peak resident set and, when a
spans path is given, the per-layer figures of a traced pass.
"""

import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_kib() -> int:
    """This process's own high-water mark, from ``VmHWM``.

    ``ru_maxrss`` is only a fallback where ``/proc`` is missing: Linux
    carries it over ``fork`` and ``exec``, so a child would report its
    parent's size whenever that is larger.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    root, config_path, mode = Path(argv[0]), argv[1], argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, str(root / "src"))
    import sqlgrow
    from sqlgrow import pipeline

    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        tracer.install(sqlgrow)
    cfg = pipeline.RunConfig(**json.loads(Path(config_path).read_text()))

    run_start = time.monotonic()
    pipeline.run_full(cfg, resume=(mode == "resume"))
    run_end = time.monotonic()

    report = {"run_start": run_start, "run_end": run_end,
              "peak_rss_mb": peak_rss_kib() / 1024.0}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.write(spans_path)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
