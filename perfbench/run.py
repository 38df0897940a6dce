"""The repository benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold|paper-warm-j2|lvp-sweep \\
        --seed N --seconds S --trace 0|1

Each set-up round and each pass runs in a fresh child process
(``child.py``) inside a private scratch directory under the checkout,
which is removed when the run ends.  The child environment is built
from scratch: every inherited ``REPRO_*`` tier, fault or harness knob
is dropped (and named on stderr), so a run always measures the
default tiers.

``--trace 0`` runs the set-up rounds, then passes until ``--seconds``
have been spent measuring, and reports the end-to-end metrics as
medians.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics of the traced one.  The last line of
stdout is the JSON result; the exit code is 0 only when every output
matched its recorded digest.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the checkout must gain no files

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-cold", "paper-warm-j2", "lvp-sweep")

#: Timed set-up rounds per run (after one untimed bytecode warm-up).
SETUP_ROUNDS = 5

#: Hard wall-clock budget of one run, seconds.
RUN_BUDGET = 170.0

class RunFailed(Exception):
    """A child process failed: the run prints no result."""


def child_env(base: dict, scratch: str) -> tuple[dict, list[str]]:
    """Environment for child processes, and the inherited knobs dropped."""
    scrubbed = sorted(name for name in base if name.startswith("REPRO_"))
    env = {name: value for name, value in base.items()
           if not name.startswith("REPRO_")
           and name != "PYTHONDONTWRITEBYTECODE"}
    env.update({
        "PYTHONPATH": os.pathsep.join(
            filter(None, [os.path.join(ROOT, "src"),
                          base.get("PYTHONPATH")])),
        "PYTHONPYCACHEPREFIX": os.path.join(scratch, "pycache"),
        "TMPDIR": os.path.join(scratch, "tmp"),
    })
    return env, scrubbed


class Runner:
    """Spawns the children of one run inside *scratch*."""

    def __init__(self, workload: str, seed: int, scratch: str,
                 env: dict, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.env = env
        self.deadline = deadline
        self.spawned = 0

    def child(self, mode: str, state: str, trace: int = 0) -> dict:
        self.spawned += 1
        cwd = os.path.join(self.scratch, f"{mode}-{self.spawned}")
        os.makedirs(cwd)
        out = os.path.join(cwd, "result.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), mode,
                self.workload, state, str(self.seed), out, str(trace)]
        with open(os.path.join(cwd, "stderr.txt"), "w") as stderr:
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=stderr, stderr=stderr,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline
                                             - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # The child's own workers share its process group.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code != 0:
            with open(os.path.join(cwd, "stderr.txt")) as handle:
                tail = handle.read()[-2000:]
            raise RunFailed(f"{mode} child "
                            f"{'timed out' if code is None else f'exited {code}'}"
                            f":\n{tail}")
        with open(out) as handle:
            return json.load(handle)


def measure(runner: Runner, seconds: float, trace: int) -> dict:
    """Set up, then pass; returns the result document."""
    runner.child("warmup", runner.scratch)
    setups = []
    for round_ in range(1 if trace else SETUP_ROUNDS):
        # Every round sets up from nothing; passes use the last one.
        state = os.path.join(runner.scratch, f"state-{round_}")
        setups.append(runner.child("setup", state)["setup_s"])
    begin = time.monotonic()
    passes = [runner.child("pass", state)]
    while (not trace and time.monotonic() - begin < seconds
           and time.monotonic() + 2 * passes[-1]["wall_s"] < runner.deadline):
        passes.append(runner.child("pass", state))
    traced = runner.child("pass", state, trace=1) if trace else None
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for problem in {q for p in passes for q in p["problems"]}:
        print(f"perfbench: {problem}", file=sys.stderr)
    wall = statistics.median(p["wall_s"] for p in passes)
    cpu = statistics.median(p["cpu_s"] for p in passes)
    if traced is None:
        metrics = {
            "cpu_s": (cpu, "s"),
            "insn_per_cpu_s": (passes[0]["insn"] / cpu, "1/s"),
            "peak_rss_mb": (statistics.median(
                p["peak_rss_mb"] for p in passes), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = traced["layers"]
        layers["wall_s"] = wall
        layers["trace_overhead"] = traced["wall_s"] / wall - 1.0
        metrics = {name: (value, unit_of(name))
                   for name, value in layers.items()}
    print(f"perfbench: {runner.workload} seed {runner.seed}: "
          f"{len(passes)} pass(es), wall {sorted(p['wall_s'] for p in passes)}"
          f", cpu {sorted(p['cpu_s'] for p in passes)}"
          f", setup {sorted(setups)}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in sorted(metrics.items())}}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("insn_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "overhead", "parallelism")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program under src/repro in this checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    scratch = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        env, scrubbed = child_env(dict(os.environ), scratch)
        if scrubbed:
            print("perfbench: dropped inherited knobs: "
                  + ", ".join(scrubbed), file=sys.stderr)
        os.makedirs(env["TMPDIR"])
        runner = Runner(args.workload, args.seed, scratch, env, deadline)
        result = measure(runner, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
