"""Child processes of the benchmark.

    python3 perfbench/child.py setup <workload> [--report FILE]
    python3 perfbench/child.py import-cli --report FILE
    python3 perfbench/child.py cli <simplex-orthant arguments> --report FILE

`setup` imports the package and completes the workload's warm-up operation
in a fresh process.  `import-cli` only imports `simplex_orthant.cli`.
`cli` runs the command line as `python -m simplex_orthant.cli` would.  With
`--report`, the trace hooks are installed first and the spans, counts and
hook notes of the process are written to FILE as JSON when it ends.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    report_path = None
    if len(argv) >= 2 and argv[-2] == "--report":
        report_path, argv = argv[-1], argv[:-2]
    mode, args = argv[0], argv[1:]
    tracer = None
    if report_path is not None:
        from spans import Tracer

        tracer = Tracer()
    code = 0
    try:
        if mode == "setup":
            import simplex_orthant

            if tracer is not None:
                tracer.install(simplex_orthant)
            import workloads

            workloads.WORKLOADS[args[0]]["warm"]()
        else:
            started = time.perf_counter()
            import simplex_orthant
            from simplex_orthant import cli

            if tracer is not None:
                tracer.add("cli.import_s", time.perf_counter() - started)
            if mode == "cli":
                if tracer is not None:
                    tracer.install(simplex_orthant)
                    tracer.install_cli(cli)
                try:
                    cli.main(args)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer is not None:
            with open(report_path, "w", encoding="utf-8") as handle:
                json.dump(
                    {"spans": tracer.spans, "counts": tracer.counts, "notes": tracer.notes},
                    handle,
                )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
