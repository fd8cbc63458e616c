#!/usr/bin/env python3
"""End-to-end benchmark of the plrupart simulator.

Run from the root of a plrupart source tree:

    python3 perfbench/run.py --workload func_8t --seed 1 --seconds 20 --trace 0

It builds the `plrupart` CLI and the benchmark's probe tool (Release) into
`.bench_build` (or $CARGO_TARGET_DIR), prepares the workload's inputs from the
seed, runs the workload through the CLI exactly as a user would for about
`--seconds` seconds, checks every output, and prints one JSON object as the
last line of standard output.

--trace 0 reports the end-to-end metrics (host time, throughput, memory, the
simulated results). --trace 1 runs the workload once more through the probe,
which replays every job with spans around each layer's public calls, checks
the replay's CSV against the CLI's byte for byte, and reports the per-layer
metrics instead.

Every result is preceded by a `perfbench manifest:` line naming the host, the
compiler, the build type, the program version and the dispatch tier, so
numbers from different hosts are never compared silently.

Seeds: DEFAULT_SEED is the seed figures are quoted on; HELD_OUT_SEED is kept
out of tuning, and a claimed gain must also hold on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_REPS = 9          # set-up is repeated and its median reported
MIN_REPS = 3            # measured CLI runs per workload run, at least
CHILD_TIMEOUT_S = 150   # any single child process
BUILD_TIMEOUT_S = 850

TWO_THREAD_MIXES = ",".join(f"2T_{i:02d}" for i in range(1, 25))
TRACE_BENCHMARKS = ["apsi", "bzip2", "mcf", "parser"]  # Table II 4T_01
TRACE_OPS = 400_000  # recorded memory ops per core; the replay wraps them

# Each workload: why it was chosen, what it deliberately leaves out, and the
# CLI matrix it runs. `trace_inputs` workloads replay v2 files recorded in
# set-up from the seed; the others generate their streams in the program.
WORKLOADS = {
    "func_8t": {
        "why": "Table II 8T_01 in functional mode: the 8-core argmin driver, "
               "the synthetic generator, the private L1s and the L2 tag/policy/"
               "ATD path do nearly all the work, and each replacement policy "
               "(LRU, NRU, tree PLRU, SRRIP) gets one job.",
        "leaves_out": "the timed overlay, trace decoding, and runner cost "
                      "(four long jobs, one at a time, no journal).",
        "matrix": {"workload": "8T_01", "configs": "C-L,M-0.75N,M-BT,M-RRIP",
                   "l2_kb": "1024", "instr": 500_000, "interval": 1_000_000,
                   "timing": "functional"},
        "threads": 1,
        "journal": False,
    },
    "timed_trace_4t": {
        "why": "four v2 traces of 4T_01 (apsi,bzip2,mcf,parser) recorded from "
               "the seed, replayed in timed mode: the only workload where the "
               "v2 decoder and the event queue, MSHR and DRAM overlay run.",
        "leaves_out": "the generator in the measured run (it runs only in "
                      "set-up), the LRU and SRRIP paths, and runner cost; the "
                      "ChampSim test fixture is too small (it stays L1-resident).",
        "matrix": {"configs": "M-BT,M-0.75N", "l2_kb": "1024",
                   "instr": 2_000_000, "interval": 1_000_000, "timing": "timed"},
        "threads": 1,
        "journal": False,
        "trace_inputs": True,
    },
    "sweep_2t": {
        "why": "all 24 2T mixes x {C-L, M-0.75N, M-BT, NOPART-L} x L2 512 and "
               "2048 KB, short quota and interval, 2 threads, journal plus CSV: "
               "the paper-reproduction traffic, where per-job set-up, the job "
               "pool, output and frequent controller ticks carry weight.",
        "leaves_out": "timed mode, trace files, 4- and 8-core mixes, and "
                      "--sim-threads > 1 or forced dispatch tiers.",
        "matrix": {"workload": TWO_THREAD_MIXES,
                   "configs": "C-L,M-0.75N,M-BT,NOPART-L",
                   "l2_kb": "512,2048", "instr": 150_000, "interval": 100_000,
                   "timing": "functional"},
        "threads": 2,
        "journal": True,
    },
}

# gprof flat-profile split of 8T_01 M-BT on a 4-CPU host (ROADMAP baseline),
# printed beside the traced func_8t shares.
GPROF_8T01 = [
    ("L1 side", "cache.l1.share", "~30%"),
    ("generator", "workloads.share", "~24%"),
    ("driver (run_serial self)", "sim.driver.share", "~22%"),
    ("L2 + ATD + controller", "core.l2.share+core.controller.share", "~15-17%"),
]


class CheckFailed(Exception):
    """An output of the program is wrong: the run reports correct=false."""


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def run_child(cmd: list[str], *, capture: bool = False, timeout: float = CHILD_TIMEOUT_S):
    """Run one child to completion. Returns (exit code, wall seconds, peak RSS
    in MiB, stdout text or None). The child is killed and reaped if it
    outlives `timeout`; its stderr is echoed when it fails."""
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "child.stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stderr=err, start_new_session=True,
                                stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
        timer = threading.Timer(timeout, lambda: os.killpg(proc.pid, signal.SIGKILL))
        timer.start()
        try:
            out = proc.stdout.read().decode() if capture else None
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if proc.stdout:
                proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-4000:])
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build() -> tuple[Path, Path]:
    """Configure once, then (re)build the CLI and the probe in Release."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "plrupart_cli", "perfbench_probe"])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S, check=False)
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return bdir / "plrupart" / "plrupart", bdir / "perfbench_probe"


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(cli: Path, probe: Path, args) -> dict:
    rc, _, _, version = run_child([str(cli), "--version"], capture=True)
    rc2, _, _, info = run_child([str(probe), "info"], capture=True)
    if rc != 0 or rc2 != 0:
        raise CheckFailed("plrupart --version or probe info failed")
    info = json.loads(info)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "plrupart_version": version.strip(),
        "dispatch_tier": info["dispatch_tier"],
        "force_dispatch": info["force_dispatch"],
        "python": platform.python_version(),
        "headers": {"functional": info["header_functional"], "timed": info["header_timed"]},
    }


# ---------------------------------------------------------------------------
# Workload inputs and runs
# ---------------------------------------------------------------------------

def record_traces(probe: Path, seed: int, dest: Path, spans: bool = False) -> tuple[float, dict]:
    if dest.exists():
        shutil.rmtree(dest)
    cmd = [str(probe), "record", "--seed", str(seed), "--ops", str(TRACE_OPS),
           "--dir", str(dest), "--benchmarks", ",".join(TRACE_BENCHMARKS)]
    if spans:
        cmd.append("--spans")
    rc, wall, _, out = run_child(cmd, capture=True)
    if rc != 0:
        raise CheckFailed(f"trace recording exited {rc}")
    return wall, json.loads(out.strip().splitlines()[-1])


def trace_paths(dest: Path) -> list[Path]:
    return [dest / f"{b}.trace" for b in TRACE_BENCHMARKS]


def matrix_flags(w: dict, seed: int, traces: list[Path] | None, instr: int | None = None) -> list[str]:
    m = w["matrix"]
    quota = m["instr"] if instr is None else instr
    flags = ["--configs", m["configs"], "--l2-kb-sweep", m["l2_kb"],
             "--instr", str(quota), "--warmup", str(quota // 2),
             "--interval", str(m["interval"]), "--seed", str(seed), "--timing", m["timing"]]
    if traces is not None:
        flags += ["--trace", ",".join(str(p) for p in traces)]
    else:
        flags += ["--workload", m["workload"]]
    return flags


def cli_cmd(cli: Path, w: dict, seed: int, traces, csv: Path, journal: Path | None,
            instr: int | None = None) -> list[str]:
    cmd = [str(cli)] + matrix_flags(w, seed, traces, instr)
    cmd += ["--threads", str(w["threads"]), "--csv", str(csv)]
    if journal is not None:
        if journal.exists():
            shutil.rmtree(journal)
        cmd += ["--journal", str(journal)]
    return cmd


def matrix_shape(w: dict) -> tuple[int, int]:
    """(jobs, cores per job). A Table II id starts with its thread count."""
    m = w["matrix"]
    mixes = 1 if w.get("trace_inputs") else len(m["workload"].split(","))
    jobs = mixes * len(m["configs"].split(",")) * len(m["l2_kb"].split(","))
    cores = len(TRACE_BENCHMARKS) if w.get("trace_inputs") else int(m["workload"][0])
    return jobs, cores


def check_csv(path: Path, header: str, jobs: int, cores: int, quota: int, overshoot: int) -> dict:
    """Gate one CLI CSV; returns its digest and the simulated totals."""
    data = path.read_bytes()
    lines = data.decode().splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header differs from sweep_csv_header")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != jobs * cores:
        raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {jobs} jobs x {cores} cores")
    cols = {name: i for i, name in enumerate(header.split(","))}
    throughput, instructions, l2_misses = {}, 0, 0
    for k, row in enumerate(rows):
        if len(row) != len(cols):
            raise CheckFailed(f"{path.name}: row {k + 1} has {len(row)} fields")
        job, core = int(row[cols["job"]]), int(row[cols["core"]])
        if (job, core) != divmod(k, cores):
            raise CheckFailed(f"{path.name}: row {k + 1} is job {job} core {core}, out of order")
        instr = int(row[cols["instructions"]])
        if not quota <= instr <= quota + overshoot:
            raise CheckFailed(f"{path.name}: job {job} core {core} ran {instr} instructions, "
                              f"quota {quota}")
        ipc = float(row[cols["ipc"]])
        if not math.isfinite(ipc) or ipc <= 0.0:
            raise CheckFailed(f"{path.name}: job {job} core {core} has IPC {row[cols['ipc']]}")
        throughput[job] = float(row[cols["throughput"]])
        instructions += instr
        l2_misses += int(row[cols["l2_misses"]])
    return {
        "digest": hashlib.sha256(data).hexdigest(),
        "sim_ipc": statistics.fmean(throughput.values()),
        "sim_l2_mpki": 1000.0 * l2_misses / instructions,
    }


class Workload:
    def __init__(self, name: str, args, cli: Path, probe: Path, info: dict):
        self.name = name
        self.w = WORKLOADS[name]
        self.args = args
        self.cli = cli
        self.probe = probe
        self.dir = OUT / name
        self.header = info["headers"][self.w["matrix"]["timing"]]
        self.jobs, self.cores = matrix_shape(self.w)
        self.quota = self.w["matrix"]["instr"]
        # The simulator freezes a core after the memory op that reaches its
        # quota. Generated streams land on the quota exactly; a recorded trace
        # that wraps can pass it by that last op's gap.
        self.overshoot = 0
        self.traces = None
        self.attempted = 0
        self.failed = 0

    # -- set-up ------------------------------------------------------------

    def setup(self, reps: int) -> float:
        """Prepare the inputs `reps` times; returns the median seconds."""
        times = []
        if self.w.get("trace_inputs"):
            digests = None
            for k in range(reps):
                dest = self.dir / f"traces{k}"
                wall, rec = record_traces(self.probe, self.args.seed, dest)
                times.append(wall)
                self.overshoot = int(rec["max_gap"])
                got = [hashlib.sha256(p.read_bytes()).hexdigest() for p in trace_paths(dest)]
                if digests is not None and got != digests:
                    raise CheckFailed("recorded traces differ between recordings of one seed")
                digests = got
                if k > 0:
                    shutil.rmtree(dest)
            self.traces = trace_paths(self.dir / "traces0")
            return statistics.median(times)
        # Generated inputs: set-up is the per-process and per-job fixed cost,
        # the same matrix at a one-instruction quota. The journal is output,
        # and its fsyncs would bury the set-up cost in disk noise.
        for k in range(reps):
            csv = self.dir / f"setup{k}.csv"
            rc, wall, _, _ = run_child(cli_cmd(self.cli, self.w, self.args.seed, None, csv,
                                               None, instr=1))
            if rc != 0:
                raise CheckFailed(f"set-up run exited {rc}")
            lines = csv.read_text().splitlines()
            if lines[0] != self.header or len(lines) - 1 != self.jobs * self.cores:
                raise CheckFailed("set-up run wrote a malformed CSV")
            times.append(wall)
            csv.unlink()
        return statistics.median(times)

    # -- measured runs -------------------------------------------------------

    def run_cli(self, k: int) -> dict:
        csv = self.dir / f"run{k}.csv"
        journal = self.dir / f"run{k}.journal" if self.w["journal"] else None
        cmd = cli_cmd(self.cli, self.w, self.args.seed, self.traces, csv, journal)
        rc, wall, rss, _ = run_child(cmd)
        self.attempted += self.jobs
        if rc != 0:
            self.failed += self.jobs
            raise CheckFailed(f"plrupart exited {rc}")
        result = check_csv(csv, self.header, self.jobs, self.cores, self.quota, self.overshoot)
        result.update(wall=wall, rss=rss, csv=csv)
        if journal is not None:
            shutil.rmtree(journal)
        return result

    def measure(self) -> dict:
        setup_s = self.setup(SETUP_REPS)
        reps = []
        t0 = time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - t0 < self.args.seconds:
            reps.append(self.run_cli(len(reps)))
            if reps[-1]["digest"] != reps[0]["digest"]:
                raise CheckFailed("CSV digest differs between repetitions of one seed")
            if len(reps) > 1:
                reps[-1]["csv"].unlink()
        walls = [r["wall"] for r in reps]
        wall_s = statistics.median(walls)
        instructions = self.jobs * self.cores * self.quota
        log(f"{self.name}: {len(reps)} runs, wall {' '.join(f'{x:.3f}' for x in walls)} s, "
            f"set-up {setup_s:.4f} s")
        return {
            "wall_s": wall_s,
            "sim_mips": instructions / wall_s / 1e6,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(r["rss"] for r in reps),
            "job_ok_ratio": 1.0 - self.failed / self.attempted,
            "sim_ipc": reps[0]["sim_ipc"],
            "sim_l2_mpki": reps[0]["sim_l2_mpki"],
        }

    # -- traced run ------------------------------------------------------------

    def trace_layers(self) -> dict:
        record = {}
        if self.w.get("trace_inputs"):
            self.setup(1)
            _, record = record_traces(self.probe, self.args.seed, self.dir / "traced", spans=True)
            for a, b in zip(trace_paths(self.dir / "traced"), self.traces):
                if a.read_bytes() != b.read_bytes():
                    raise CheckFailed("traced recording differs from the set-up recording")
        reference = self.run_cli(0)["csv"]
        prefix = self.dir / "probe"
        journal = self.dir / "probe.journal"
        if journal.exists():
            shutil.rmtree(journal)
        cmd = [str(self.probe), "layers"] + matrix_flags(self.w, self.args.seed, self.traces)
        cmd += ["--threads", str(self.w["threads"]), "--out", str(prefix)]
        if self.w["journal"]:
            cmd += ["--journal", str(journal)]
        rc, _, _, out = run_child(cmd, capture=True)
        self.attempted += self.jobs
        if rc != 0:
            self.failed += self.jobs
            raise CheckFailed(f"probe layers exited {rc}")
        want = reference.read_bytes()
        for suffix in ("run", "replay"):
            got = Path(f"{prefix}.{suffix}.csv").read_bytes()
            if got != want:
                raise CheckFailed(f"probe {suffix} CSV differs from the CLI CSV: the traced "
                                  "replay does not match the measured program")
        layers = json.loads(out.strip().splitlines()[-1])
        # Recorded-trace inputs: the generator runs only while recording.
        for key in ("workloads.next.calls", "workloads.next.ns", "workloads.share"):
            if key in record:
                layers[key] = record[key]
        if self.name == "func_8t":
            print("perfbench: func_8t layer shares vs the ROADMAP gprof split of 8T_01")
            for label, keys, gprof in GPROF_8T01:
                share = sum(layers[k] for k in keys.split("+"))
                print(f"perfbench:   {label:<26} spans {share:6.1%}   gprof {gprof}")
        return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"{ROOT} is not a plrupart source tree; nothing to build")
        return 2
    contract = load_contract()
    cli, probe = build()

    wdir = OUT / args.workload
    if wdir.exists():
        shutil.rmtree(wdir)
    wdir.mkdir(parents=True)

    correct = True
    metrics: dict = {}
    wl = None
    try:
        info = manifest(cli, probe, args)
        (wdir / "manifest.json").write_text(json.dumps(info, indent=2) + "\n")
        print("perfbench manifest: " +
              json.dumps({k: v for k, v in info.items() if k != "headers"}), flush=True)
        wl = Workload(args.workload, args, cli, probe, info)
        kind = "per_layer" if args.trace else "end_to_end"
        values = wl.trace_layers() if args.trace else wl.measure()
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in contract[kind]}
    except CheckFailed as e:
        log(f"CHECK FAILED: {e}")
        correct = False
    attempted = max(1, wl.attempted if wl else 0)
    failed = wl.failed if wl else 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed if correct else max(1, failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
