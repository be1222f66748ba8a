"""Run one benchmark workload and print every metric with its unit.

    python3 perfbench/run.py --workload served-web --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one
strict-JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run also writes its full record
(per-codec rows, stage percentiles) under ``.perfbench_out/``.

Exit codes: 0 measured and correct; 1 the program returned a wrong
answer (the result line is still printed, with ``correct: false``);
2 the program under test is missing or the run could not complete (no
result line).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> module in this package.
MODULES = {"paper-codecs": "codecs", "served-web": "served", "cluster-churn": "cluster"}


def _load_program() -> str | None:
    """Put the checkout's ``src`` first on the path and import the program
    from there; an error message when it cannot."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"error: no program to measure: {src / 'repro'} is missing"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return f"error: imported repro from {repro.__file__}, not {src}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    error = _load_program()
    if error:
        print(error, file=sys.stderr)
        return 2

    # The benchmark's own modules import the program, so they load after it.
    from perfbench import metrics as M
    from perfbench.common import OUT, render

    module = importlib.import_module(f"perfbench.{MODULES[args.workload]}")
    try:
        record = module.run(args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 2
    if args.trace:
        missing = sorted(module.LAYERS - record.metrics.keys())
        if missing:
            print(f"error: layers not measured: {', '.join(missing)}", file=sys.stderr)
            return 2
        # Layers this workload bypasses did no work: report them as 0.
        for name in M.names(trace=True):
            record.metrics.setdefault(name, 0.0)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
        path.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "result": record.result(),
                    "moves": {m.name: m.moves for m in M.PER_LAYER},
                    "detail": record.detail,
                },
                indent=1,
                allow_nan=False,
            )
        )
    print(render(record), flush=True)
    return 0 if record.correct else 1


if __name__ == "__main__":
    sys.exit(main())
