"""End-to-end and per-layer benchmark of the symdet CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a symdet checkout; the engine is imported from
``src/`` there.  Each command runs as its own fresh ``symdet`` process
(caches cold, default ``--jobs``), exactly as a user would start it.

Workloads (each a fixed list of ``symdet --format json`` commands):

* ``table-n7``: ``table --n 7``.  43 shapes, 906 small Gram blocks, one
  process pool per shape; exercises combinat, symmetrizer, gram and the
  reduction in exact, and bypasses refined.
* ``sym-large``: ``sym 4,1^5`` then ``sym 8``.  Few shapes with large
  blocks (up to 56x56, 743-bit determinants) and a large row group (8!).
* ``refined-core``: ``refined`` of ``4,2``, ``3,2``, ``2,2,1`` and ``1^5``.
  Multiplicity-1 and -2 couplings, an absent probe and an all-absent
  column; refined does almost all the work.

Seed 0 runs exactly these lists.  Any other seed appends one held-out
command, drawn by the seed from a pool of shapes of the same regime that
have an independent oracle, so a result can be re-checked on inputs not
used while writing a change.  The held-out commands of a pool take about
the same time, 2-3% of their workload's, so the timings stay comparable
across seeds.  ``table --n 7`` has no shape input, so every seed runs the
same command.

Every output is checked twice: byte for byte against the digest of the
output at the commit that defined the benchmark (``expected.json``, fixed
data that stays tied to that commit), and against the oracle in
``oracle.py``.  A nonzero exit, a digest mismatch or an oracle mismatch is
a failed check.

``--trace 0`` repeats the command list for about ``--seconds`` (at least
one pass; another pass starts only if it should end within half a pass
of the target) and reports the medians over passes:

* ``wall_s``: first command's launch to last command's exit;
* ``cpu_s``: user+sys CPU of the commands and their pool workers;
* ``peak_rss_mb``: largest resident set of any process started;
* ``setup_s``: median time of a fresh interpreter importing symdet.cli,
  timed five times at the start and at the end of the run and once
  before each pass;
* ``check_pass_frac``: share of output checks that passed.

``--trace 1`` makes one untraced pass and three passes under
``tracer.py``: one at the default ``--jobs`` (pool metrics, and tracing
overhead = traced minus untraced wall time) and two at ``--jobs 1``,
which keeps the work of pool workers in the traced process.  The work
counters of the two ``--jobs 1`` passes must repeat exactly.

The last stdout line is the result JSON; the line before it holds the
run's environment, the samples and the failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import Oracle
from tracer import MARK

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # every command is killed past this point of the run
SETUP_BATCH = 5  # imports timed at the start and at the end of a run

WORKLOADS: dict[str, tuple[list[list[str]], list[list[str]]]] = {
    # name: (default commands, held-out pool for other seeds)
    "table-n7": ([["table", "--n", "7"]], []),
    "sym-large": (
        [["sym", "4,1^5"], ["sym", "8"]],
        [["sym", "7"], ["sym", "1^8"], ["sym", "2,1^6"], ["sym", "6,1"]],
    ),
    "refined-core": (
        [["refined", "4,2"], ["refined", "3,2"], ["refined", "2,2,1"], ["refined", "1^5"]],
        [["refined", "5"], ["refined", "4,1"], ["refined", "3,1,1"]],
    ),
}

CLI = "import sys; from symdet.cli import main; sys.exit(main())"


def commands_for(workload: str, seed: int) -> list[list[str]]:
    default, pool = WORKLOADS[workload]
    if seed == 0 or not pool:
        return list(default)
    return list(default) + [random.Random(seed).choice(pool)]


def key_of(command: list[str]) -> str:
    return " ".join(command)


@dataclass
class Proc:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Starts the child processes, each in its own session, and reaps them."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, argv: list[str]) -> Proc:
        timeout = max(1.0, self.deadline - time.monotonic())
        with tempfile.TemporaryFile(dir=self.root) as out, tempfile.TemporaryFile(dir=self.root) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=err, env=self.env,
                cwd=self.root, start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(
                proc.returncode, out.read(), err.read(), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            )

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Checker:
    def __init__(self, root: Path):
        self.oracle = Oracle(root / "src" / "symdet" / "data" / "golden.json")
        self.digests = json.loads((HERE / "expected.json").read_text())["digests"]
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def output(self, command: list[str], proc: Proc) -> None:
        label = key_of(command)
        self.add(f"{label}: exit code {proc.code}", proc.code == 0)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        self.add(f"{label}: stdout digest", self.digests.get(label) == digest)
        for check in self.oracle.check(command, proc.stdout):
            self.add(*check)


def run_pass(runner: Runner, checker: Checker, commands, prefix=(), argv0=("-c", CLI)):
    """Run the commands one after another; returns (wall, procs)."""
    procs = []
    start = time.perf_counter()
    for command in commands:
        proc = runner.run([*argv0, *prefix, "--format", "json", *command])
        procs.append(proc)
        if runner.expired():
            break
    wall = time.perf_counter() - start
    for command, proc in zip(commands, procs):
        checker.output(command, proc)
    checker.add("pass completed before the run limit", len(procs) == len(commands))
    return wall, procs


def time_imports(runner: Runner, checker: Checker, count: int) -> list[float]:
    """Times for a fresh interpreter to import symdet.cli, count times."""
    procs = [runner.run(["-c", "import symdet.cli"]) for _ in range(count)]
    checker.add("import symdet.cli", all(p.code == 0 for p in procs))
    return [p.wall_s for p in procs]


def end_to_end(runner, checker, commands, seconds, info) -> dict:
    walls, cpus, rsss = [], [], []
    runner.run(["-c", "import symdet.cli"])  # writes the bytecode caches, untimed
    # set-up samples spread over the run, so they see the same host as the passes
    setups = time_imports(runner, checker, SETUP_BATCH)
    start = time.perf_counter()
    while True:
        setups += time_imports(runner, checker, 1)
        wall, procs = run_pass(runner, checker, commands)
        walls.append(wall)
        cpus.append(sum(p.cpu_s for p in procs))
        rsss.append(max(p.rss_mb for p in procs))
        elapsed = time.perf_counter() - start
        # one more pass only if it should end within half a pass of the target
        if runner.expired() or elapsed + statistics.median(walls) / 2 > seconds:
            break
    setups += time_imports(runner, checker, SETUP_BATCH)
    info["samples"] = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss, "setup_s": setups}
    passed = checker.attempted - len(checker.failures)
    info["check_fail_frac"] = len(checker.failures) / checker.attempted
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": statistics.median(setups),
        "check_pass_frac": passed / checker.attempted,
    }


def traced_pass(runner, checker, commands, prefix=()):
    wall, procs = run_pass(runner, checker, commands, prefix, argv0=(str(HERE / "tracer.py"),))
    reports = []
    for command, proc in zip(commands, procs):
        lines = [l for l in proc.stderr.decode(errors="replace").splitlines() if l.startswith(MARK)]
        checker.add(f"{key_of(command)}: trace report", bool(lines))
        reports.append(json.loads(lines[-1][len(MARK):]) if lines else None)
    return wall, reports


def _work(report: dict) -> dict:
    """The parts of a trace report that must repeat exactly."""
    return {k: report[k] for k in ("calls", "counts", "max")}


def per_layer(runner, checker, commands, info) -> dict:
    runner.run(["-c", "import symdet.cli"])  # untimed warm start, as end_to_end has
    untraced_wall, untraced = run_pass(runner, checker, commands)
    traced_wall, pooled = traced_pass(runner, checker, commands)
    _, first = traced_pass(runner, checker, commands, ("--jobs", "1"))
    _, second = traced_pass(runner, checker, commands, ("--jobs", "1"))

    reference = json.loads((HERE / "expected.json").read_text())["reference_counters"]
    per_command, unhooked = {}, set()
    for command, a, b in zip(commands, first, second):
        if a is None or b is None:
            continue
        checker.add(f"{key_of(command)}: traced counters repeat", _work(a) == _work(b))
        flat = {**a["counts"], **a["max"], **{f"{k}.calls": v for k, v in a["calls"].items()}}
        expected = reference.get(key_of(command), {})
        per_command[key_of(command)] = {
            "counters": flat,
            "reference_mismatches": {
                k: [v, flat.get(k, 0)] for k, v in expected.items() if flat.get(k, 0) != v
            },
        }
        unhooked.update(a["unhooked"])
    info["per_command"] = per_command
    info["unhooked"] = sorted(unhooked)
    info["untraced_wall_s"] = untraced_wall
    info["traced_wall_s"] = traced_wall

    reports = [r for r in first if r is not None]

    def calls(span):
        return sum(r["calls"].get(span, 0) for r in reports)

    def self_s(span):
        return sum(r["self_s"].get(span, 0.0) for r in reports)

    def count(name):
        return sum(r["counts"].get(name, 0) for r in reports)

    def maximum(name):
        return max((r["max"].get(name, 0) for r in reports), default=0)

    pools = [r for r in pooled if r is not None]
    metrics = {
        "combinat.ssyt_calls": calls("combinat.ssyt"),
        "combinat.ssyt_self_s": self_s("combinat.ssyt"),
        "combinat.tableaux": count("combinat.tableaux"),
        "symmetrizer.apply_calls": calls("symmetrizer.apply"),
        "symmetrizer.apply_self_s": self_s("symmetrizer.apply"),
        "symmetrizer.image_terms": count("symmetrizer.image_terms"),
        "symmetrizer.inner_calls": calls("symmetrizer.inner"),
        "symmetrizer.inner_self_s": self_s("symmetrizer.inner"),
        "gram.block_calls": calls("gram.block"),
        "gram.block_misses": count("gram.block_misses"),
        "gram.block_self_s": self_s("gram.block"),
        "gram.blocks": count("gram.blocks"),
        "gram.block_size_max": maximum("gram.block_size_max"),
        "gram.entries": count("gram.entries"),
        "gram.symdet_calls": calls("gram.symdet"),
        "gram.symdet_misses": count("gram.symdet_misses"),
        "gram.symdet_self_s": self_s("gram.symdet"),
        "gram.pools_started": sum(r["calls"].get("gram.pool", 0) for r in pools),
        "gram.pool_wait_s": sum(r["total_s"].get("gram.pool", 0.0) for r in pools),
        "exact.bareiss_calls": calls("exact.bareiss"),
        "exact.bareiss_self_s": self_s("exact.bareiss"),
        "exact.det_bits_max": maximum("exact.det_bits_max"),
        "exact.det_bits_sum": count("exact.det_bits_sum"),
        "exact.factorint_calls": calls("exact.factorint"),
        "exact.factorint_self_s": self_s("exact.factorint"),
        "exact.reduce_self_s": self_s("exact.reduce"),
        "exact.factor_poly_calls": calls("exact.factor_poly"),
        "exact.factor_poly_self_s": self_s("exact.factor_poly"),
        "exact.interpolate_calls": calls("exact.interpolate"),
        "exact.interpolate_self_s": self_s("exact.interpolate"),
        "exact.poly_rank_calls": calls("exact.poly_rank"),
        "exact.poly_rank_self_s": self_s("exact.poly_rank"),
        "exact.poly_det_self_s": self_s("exact.poly_det"),
        "refined.constituent_calls": calls("refined.constituent"),
        "refined.constituents_present": count("refined.constituents_present"),
        "refined.constituents_absent": count("refined.constituents_absent"),
        "refined.constituent_self_s": self_s("refined.constituent"),
        "refined.chains_scanned": count("refined.chains_scanned"),
        "refined.chains_surviving": count("refined.chains_surviving"),
        "refined.chain_survival_frac": count("refined.chains_surviving") / max(1, count("refined.chains_scanned")),
        "refined.gram_evals": calls("refined.gram"),
        "refined.embed_calls": calls("refined.embed"),
        "refined.embed_self_s": self_s("refined.embed"),
        "refined.symmetrize_calls": calls("refined.symmetrize"),
        "refined.symmetrize_self_s": self_s("refined.symmetrize"),
        "refined.symmetrize_terms": count("refined.symmetrize_terms"),
        "refined.dot_calls": calls("refined.dot"),
        "refined.dot_self_s": self_s("refined.dot"),
        "cli.render_self_s": self_s("cli.render"),
        "cli.stdout_bytes": sum(len(p.stdout) for p in untraced),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return metrics


def environment(root: Path, seed: int) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "symdet" / "cli.py").is_file():
        print("perfbench: src/symdet/cli.py not found; run from the root of a symdet checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    runner = Runner(root, time.monotonic() + RUN_LIMIT_S)
    checker = Checker(root)
    commands = commands_for(args.workload, args.seed)
    info = {
        "workload": args.workload,
        "commands": [key_of(c) for c in commands],
        "env": environment(root, args.seed),
    }
    if args.trace:
        metrics = per_layer(runner, checker, commands, info)
    else:
        metrics = end_to_end(runner, checker, commands, args.seconds, info)
    info["env"]["loadavg_1m_end"] = os.getloadavg()[0]
    info["failed_checks"] = checker.failures
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
