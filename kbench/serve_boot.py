"""Traced server: wrap the layer boundaries, then run the stock CLI.

    python3 kbench/serve_boot.py SPANS_OUT serve --workers 1 ...

Everything after ``SPANS_OUT`` goes to ``repro.cli.main`` unchanged.
When the server returns, every span is written to ``SPANS_OUT`` as
JSON rows ``[name, start, end, self_time, thread]`` on the shared monotonic
clock (``time.perf_counter``), so the client can attribute them to its
own ticks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    out_path, cli_args = Path(argv[0]), argv[1:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from kbench.layers import install_dynamic, install_prep, install_serve
    from kbench.spans import Patches, Tracer
    from repro import cli

    tracer = Tracer()
    patches = Patches()
    install_prep(tracer, patches)
    install_dynamic(tracer, patches)
    install_serve(tracer, patches)
    try:
        code = cli.main(cli_args)
    finally:
        patches.restore()
        rows = [[s.name, s.start, s.end, s.self_time, s.thread] for s in tracer.spans]
        out_path.write_text(json.dumps(rows), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
