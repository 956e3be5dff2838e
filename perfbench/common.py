"""Shared pieces of the benchmark: paths, fingerprints, checks, statistics.

Every process of the benchmark (``run.py``, the closed-loop worker
``closed.py``, the traced server ``launcher.py``) imports this module from
the ``perfbench`` directory; only the functions that check outputs import
``repro``, so ``run.py`` can refuse to run before touching the program
when its source is missing.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (results, spans, caches, checkpoints) lands here.
OUT = ROOT / "perfbench" / "out"

#: The deterministic work counters summed over a workload's reports.
WORK_KEYS = ("work.entries", "work.bits", "work.computation_units",
             "work.discoveries", "work.rounds")


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """The environment of every process that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    # An ambient engine pin would change what engine="auto" resolves to.
    env.pop("REPRO_EIG_ENGINE", None)
    return env


def use_source() -> None:
    """Make ``import repro`` load the checkout's ``src`` tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- fingerprint --------------------------------------------------------------
def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over every file of ``src`` (path and bytes), in sorted order.

    Names the code that ran where no git metadata exists (a plain export
    of the tree).
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def box_fingerprint() -> Dict[str, Any]:
    """What must match for two results to be comparable at all."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_imported": numpy_version is not None,
    }


def fingerprint(workload: str, seed: int) -> Dict[str, Any]:
    """The box, the workload and seed, and the code a result came from."""
    return {"box": box_fingerprint(), "workload": workload, "seed": seed,
            "git_commit": _git_commit(), "source_sha256": source_digest()}


# -- statistics ---------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100), linearly interpolated."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def peak_rss_mb_self() -> float:
    """This process's peak resident set in MB (``ru_maxrss`` is in KiB)."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> Optional[float]:
    """Another live process's peak resident set (``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return None


# -- output checks ------------------------------------------------------------
def bound_for(protocol: str, params: Mapping[str, Any], n: int, t: int):
    """The paper's theorem row for a cell (rounds and largest message)."""
    use_source()
    from repro.analysis import protocol_bound
    return protocol_bound(protocol, dict(params), n, t)


def report_problems(report, bound) -> List[str]:
    """Why a run is wrong, by :func:`repro.analysis.verify_report`; empty
    when it passes: the correct processors agree, decide the source's value
    when the source is correct, discover only faulty processors, and stay
    within the theorem's rounds and largest-message bounds."""
    from repro.analysis import verify_report
    return list(verify_report(report, bound.rounds,
                              bound.max_message_entries).problems)


def outcome_problems(outcome: Mapping[str, Any], bound) -> List[str]:
    """:func:`report_problems` for a served :meth:`RunReport.outcome_dict`,
    which carries no engine fields."""
    from repro.api import RunReport
    report = RunReport.from_dict({**outcome, "engine": "auto",
                                  "engine_resolved": "auto"})
    return report_problems(report, bound)


def outcome_work(outcome: Mapping[str, Any]) -> List[int]:
    """The deterministic work of one run, in :data:`WORK_KEYS` order."""
    metrics = outcome["metrics"]
    discoveries = sum(count for log in outcome["discovery_logs"].values()
                      for count in log.values())
    return [metrics["total_value_entries"], metrics["total_bits"],
            metrics["max_computation_units"], discoveries,
            outcome["rounds"]]


def report_work(report) -> List[int]:
    return outcome_work({"metrics": report.metrics,
                         "discovery_logs": report.discovery_logs,
                         "rounds": report.rounds})


def add_work(total: List[int], work: Sequence[int]) -> None:
    for i, value in enumerate(work):
        total[i] += value


def work_dict(total: Sequence[int]) -> Dict[str, int]:
    return dict(zip(WORK_KEYS, total))
