"""Shared plumbing: the result record, percentiles, processes, scratch dirs."""

from __future__ import annotations

import inspect
import json
import math
import os
import resource
import select
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import metrics as M

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space (store directories) and trace records, both inside
#: the checkout and both git-ignored.
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


@dataclass
class Record:
    """One run's outcome: accounting, metrics, and the traced detail."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Unnamed detail: per-pass metrics, op errors, per-codec rows.
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def mismatch(self, what: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(what)
        else:
            self.mismatches[-1] = f"... and more; last: {what}"

    def result(self) -> dict:
        """The final JSON object, with exactly the metrics of this mode."""
        wanted = M.names(self.trace)
        missing = [n for n in wanted if n not in self.metrics]
        if missing:
            raise KeyError(f"metrics not measured: {', '.join(missing)}")
        out = {}
        for name in wanted:
            value = float(self.metrics[name])
            if not math.isfinite(value):
                raise ValueError(f"metric {name} is not finite: {value}")
            out[name] = {"value": value, "unit": M.ALL[name].unit}
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": out,
        }


def render(record: Record) -> str:
    """Human table followed by the strict-JSON result line."""
    result = record.result()
    lines = [
        f"# {record.workload} seed={record.seed} trace={int(record.trace)} "
        f"attempted={record.attempted} failed={record.failed} "
        f"correct={record.correct}"
        + (f" loop_s={record.detail['loop_s']:.2f}" if "loop_s" in record.detail else "")
    ]
    lines += [f"#   mismatch: {m}" for m in record.mismatches]
    lines += [f"#   metrics read dropped: {d}" for d in record.detail.get("metrics_drops", ())]
    for k, p in enumerate(record.detail.get("passes", ())):
        lines.append(f"#   pass {k}: " + " ".join(f"{n}={v:.6g}" for n, v in p.items()))
    for name, m in result["metrics"].items():
        lines.append(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    lines.append(json.dumps(result, allow_nan=False, sort_keys=False))
    return "\n".join(lines)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return percentile(values, 50.0)


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def self_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under WORK, removed on exit."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Processes:
    """Program subprocesses started by one run; all stopped on exit.

    Each child prints one JSON line with its ``listening`` URL when it
    is ready (the contract of ``python -m repro.server`` and
    ``python -m repro.cluster``).
    """

    READY_TIMEOUT_S = 60.0

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def spawn(self, module: str, *args: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", module, *args],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            env=child_env(),
            cwd=str(ROOT),
        )
        self.procs.append(proc)
        return proc

    @classmethod
    def wait_ready(cls, proc: subprocess.Popen) -> str:
        """Block until the child prints its listening line; its URL."""
        ready, _, _ = select.select([proc.stdout], [], [], cls.READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"{proc.args[2]} did not start listening (exit code {proc.poll()})"
            )
        return json.loads(line)["listening"]

    def peak_rss_mb(self) -> float:
        return sum(proc_peak_rss_mb(p.pid) for p in self.procs if p.poll() is None)

    def stop(self, proc: subprocess.Popen) -> None:
        """SIGTERM, then SIGKILL; waits until the child has ended.

        Acknowledged writes are already durable in the WAL, and the run
        reads what it needs from a child before stopping it.
        """
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self.procs:
            self.procs.remove(proc)

    def stop_all(self) -> None:
        for proc in reversed(list(self.procs)):
            self.stop(proc)

    def __enter__(self) -> "Processes":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop_all()


def save_v3(store, directory: Path) -> None:
    """Save in the memory-mapped v3 layout.

    ``save`` writes v3 only when asked with ``mapped=True``; a store
    whose ``save`` has no such flag writes its one format.
    """
    if "mapped" in inspect.signature(store.save).parameters:
        store.save(str(directory), mapped=True)
    else:
        store.save(str(directory))

