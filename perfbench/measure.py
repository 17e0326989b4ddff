"""Process-level measurement: timed subprocesses, RSS, and disk usage.

Every end-to-end number comes from outside the program: a subprocess
is timed from spawn to reap with the monotonic clock, and its peak RSS
comes from ``wait4`` on that one child.  ``wait4`` reports the largest
RSS of the child and of every descendant it reaped (the sweep's pool
workers), for this run alone — unlike ``getrusage(RUSAGE_CHILDREN)``,
which is a running maximum over every child this process ever reaped.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

__all__ = ["Timed", "dir_bytes", "program_env", "restore", "run_timed",
           "tree_digest"]

#: A run that takes longer than this is killed and counted as failed.
RUN_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Timed:
    wall_s: float
    returncode: int
    #: peak resident set of the child and its reaped descendants
    peak_rss_mb: float
    #: monotonic timestamps of spawn and reap (comparable with the
    #: child's own ``time.perf_counter()`` readings on Linux)
    t_spawn: float
    t_exit: float
    stdout: str


def program_env(root: pathlib.Path, cache_dir: pathlib.Path) -> dict:
    """The environment of a program run: no inherited ``REPRO_*`` knob,
    the checkout's sources on the path, and an isolated cache dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def run_timed(args: "list[str]", env: dict, cwd: pathlib.Path,
              log: pathlib.Path) -> Timed:
    """Run ``python3 args...`` to completion; time it and take its RSS.

    Standard output goes to ``log`` and is returned; standard error goes
    to ``log`` with an ``.err`` suffix.
    """
    with open(log, "w") as out, open(log.with_suffix(".err"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, cwd=cwd,
                                stdout=out, stderr=err)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:  # interrupted while waiting
                proc.kill()
                proc.wait()
    return Timed(wall_s=t1 - t0, returncode=proc.returncode,
                 peak_rss_mb=usage.ru_maxrss / 1024.0, t_spawn=t0,
                 t_exit=t1, stdout=log.read_text(errors="replace"))


def dir_bytes(path: pathlib.Path, pattern: str = "") -> int:
    """Total size of the regular files under ``path`` whose relative
    path starts with ``pattern``."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            if pattern and not os.path.relpath(full, path).startswith(pattern):
                continue
            try:
                total += os.lstat(full).st_size
            except FileNotFoundError:
                continue
    return total


def restore(snapshot: pathlib.Path, dest: pathlib.Path) -> None:
    """Replace ``dest`` with a fresh copy of ``snapshot``."""
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(snapshot, dest)


def tree_digest(path: pathlib.Path) -> str:
    """SHA-256 over every relative path and file content under ``path``."""
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = pathlib.Path(dirpath, name)
            h.update(str(full.relative_to(path)).encode() + b"\0")
            h.update(full.read_bytes() + b"\0")
    return h.hexdigest()
