"""Benchmark of the liftmix CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``perfbench/workloads.py`` for why each exists):
``cover-mc``, ``mix-many-starts``, ``sweep-large-n``, ``analyze-batch``.
Each run calls ``liftmix.cli.main(argv)`` in a fresh child process, one call
after another (a closed loop with one caller, ``--workers 1``), with
``src/`` of the checkout on the path.

``--trace 0`` prints the end-to-end metrics:

* ``throughput`` -- work done over the summed time of the ``main()`` calls,
  in the workload's unit (walker-steps/s, starts/s, state-steps/s or
  graphs/s), reported under the common unit ``ops/s``.  Each round's time is
  divided by the host's slowdown during it, taken from a fixed reference
  task timed before and after the round (``perfbench/hostspeed.py``); the
  uncorrected figure is printed beside it.  The first round warms the
  process up (allocator, caches, lazy imports) and is checked but not
  timed; the timed rounds then run for ``--seconds``;
* ``setup_s`` -- median over several fresh processes of the time from spawn
  to ``import liftmix.cli`` done;
* ``peak_rss_mb`` -- ``ru_maxrss`` of the measured child, before checks.

Calls that exit non-zero or fail their output checks are counted in
``failed``.  A workload may also run an untimed probe of inputs that fail
today (a known defect); its failures are printed apart and counted in the
per-layer ``analyzer.known_defect_failures``, not in ``failed``.

``--trace 1`` runs a fixed number of rounds in two fresh children, first
plain and then with every public layer function wrapped in a span
(``perfbench/spans.py``).  It prints the per-layer metrics, the import
breakdown from ``python -X importtime`` and ``trace.overhead_frac``, and
fails every call whose output differs between the two children.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``correct`` is false when any output check fails or a call crashes;
non-zero exits count as failed calls only.  Exit status is 0 when a result
was printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, ROOT)

from perfbench import hostspeed  # noqa: E402
from perfbench.spans import LAYERS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Fresh processes timed for ``setup_s`` besides the measured child; half
#: run before it and half after, so a slow spell of the machine weighs less.
SETUP_PROBES = 2
#: ``python -X importtime`` runs whose per-module medians give ``setup.*``.
IMPORTTIME_RUNS = 3
#: Modules reported from ``-X importtime`` (cumulative microseconds).
IMPORT_MODULES = {
    "setup.import_liftmix_s": "liftmix.cli",
    "setup.import_scipy_stats_s": "scipy.stats",
    "setup.import_scipy_sparse_s": "scipy.sparse",
    "setup.import_numpy_s": "numpy",
}
#: Wall-clock budget of one run, kept under three minutes.
RUN_BUDGET_S = 170


class BenchError(RuntimeError):
    pass


def child_env(work_dir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIFTMIX_")}
    env.update(PYTHONPATH=os.pathsep.join([SRC, ROOT]), LIFTMIX_WORKERS="1",
               TMPDIR=work_dir)
    return env


def spawn(argv, work_dir, deadline, **kwargs):
    """Run a child to completion (killed and reaped at the run's deadline)."""
    try:
        return subprocess.run(argv, cwd=ROOT, env=child_env(work_dir), check=True,
                              timeout=max(1.0, deadline - time.monotonic()), **kwargs)
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"child {argv[1:3]} exited with {exc.returncode}: "
                         f"{(exc.stderr or b'').decode(errors='replace')[-2000:]}") from None
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {argv[1:3]} ran past the {RUN_BUDGET_S} s budget") from None


def setup_probe(work_dir, deadline):
    t0 = time.monotonic()
    proc = spawn([sys.executable, "-c",
                  "import time, liftmix.cli; print(repr(time.monotonic()))"],
                 work_dir, deadline, capture_output=True)
    return float(proc.stdout.decode().split()[-1]) - t0


def parse_importtime(text):
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        out.setdefault(name, int(parts[1]) / 1e6)
    return out


def import_breakdown(work_dir, deadline):
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import liftmix.cli"],
                     work_dir, deadline, capture_output=True)
        runs.append(parse_importtime(proc.stderr.decode()))
    return {name: (statistics.median(r.get(module, 0.0) for r in runs), "s")
            for name, module in IMPORT_MODULES.items()}


def run_child(workload, seed, seconds, work_dir, deadline, rounds, trace):
    spec_path = os.path.join(work_dir, f"spec-{int(trace)}.json")
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "rounds": rounds,
            "trace": trace, "work_dir": os.path.join(work_dir, f"child-{int(trace)}"),
            "result_path": os.path.join(work_dir, f"result-{int(trace)}.json"),
            "spans_path": os.path.join(WORK, f"spans-{workload}.jsonl")}
    os.makedirs(spec["work_dir"])
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t0 = time.monotonic()
    spawn([sys.executable, "-m", "perfbench.child", spec_path], work_dir, deadline,
          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with open(spec["result_path"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["import_done"] - t0
    return result


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns the result object and the child results."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work_dir = os.path.join(WORK, f"{workload}-{int(trace)}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        if not trace:
            probes = [setup_probe(work_dir, deadline) for _ in range(SETUP_PROBES // 2)]
            res = run_child(workload, seed, seconds, work_dir, deadline, None, False)
            probes += [setup_probe(work_dir, deadline)
                       for _ in range(SETUP_PROBES - len(probes))]
            children = [res]
            timed = res["rounds"][1:]
            res["raw_throughput"] = (sum(r["work"] for r in timed)
                                     / sum(r["seconds"] for r in timed))
            metrics = {
                "throughput": (hostspeed.corrected_throughput(timed), "ops/s"),
                "setup_s": (statistics.median(probes + [res["setup_s"]]), "s"),
                "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
            }
        else:
            metrics = import_breakdown(work_dir, deadline)
            rounds = WORKLOADS[workload].trace_rounds
            plain = run_child(workload, seed, seconds, work_dir, deadline, rounds, False)
            traced = run_child(workload, seed, seconds, work_dir, deadline, rounds, True)
            children = [plain, traced]
            # Both children ran the same calls: their outputs must match byte for byte.
            for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"])):
                if a != b:
                    traced["wrong"].append({"index": i, "label": a[0],
                                            "message": "output differs between two runs"})
                    traced["failed_ops"] = sorted(set(traced["failed_ops"]) | {i})
            metrics.update({k: tuple(v) for k, v in traced["layer"].items()})
            metrics["analyzer.known_defect_failures"] = (len(traced["probe"]), "count")
            metrics["trace.run_s"] = (traced["run_s"], "s")
            metrics["trace.overhead_frac"] = (traced["run_s"] / plain["run_s"] - 1.0,
                                              "fraction")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": all(not c["wrong"] and not c["crashed"] for c in children),
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(len(c["failed_ops"]) for c in children),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, children


# ---------------------------------------------------------------------------
# informational fields (not gated)
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _getconf(name):
    try:
        proc = subprocess.run(["getconf", name], capture_output=True, timeout=10)
        return int(proc.stdout.decode().strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _git_sha():
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def info(children):
    sweep = WORKLOADS["sweep-large-n"]
    largest_states = max(int(n) for n in sweep.n_grid.split(",")) * sweep.n_vertices
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "versions": children[0]["versions"],
        "git_sha": _git_sha(),
        "src_lines": _src_lines(),
        "sweep_largest_vector_bytes": 8 * largest_states,
        "note": "lift.kernel_bytes_computed is computed from sizes, not measured bandwidth",
    }


def report(workload, trace, result, children):
    print(f"== {workload} trace={trace} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    wl = WORKLOADS[workload]
    for name, m in result["metrics"].items():
        unit = f"{m['unit']} ({wl.unit})" if name == "throughput" else m["unit"]
        print(f"  {name:34s} {m['value']:.6g} {unit}")
    if trace:
        m = result["metrics"]
        shares = {layer: m[f"{layer}.self_s"]["value"] / m["trace.run_s"]["value"]
                  for layer in LAYERS + ("cli",)}
        print("  self-time share of traced run_s: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    if "raw_throughput" in children[0]:
        slow = [hostspeed.slowdown(r["ref_after"]) for r in children[0]["rounds"]]
        print(f"  uncorrected throughput {children[0]['raw_throughput']:.6g} {wl.unit}; "
              f"host slowdown {min(slow):.3g}-{max(slow):.3g} "
              f"(median {statistics.median(slow):.3g})")
    for c in children:
        secs = sorted(c["call_seconds"])
        print(f"  calls: {len(secs)}, median {statistics.median(secs):.4g} s, "
              f"max {secs[-1]:.4g} s, run_s {c['run_s']:.4g} s")
        seen = {}
        for e in c["errors"]:
            seen.setdefault((e["input"], e["rc"], e["message"]), []).append(e["graph"])
        for (label, rc, message), graphs in seen.items():
            print(f"  failing input {label} x{len(graphs)} (exit {rc}): {message}")
            if graphs[0]:
                print("    " + graphs[0].strip().replace("\n", "\n    "))
        for f in c["wrong"]:
            print(f"  check failed on {f['label']}: {f['message']}")
    for p in children[-1]["probe"]:
        print(f"  known defect, untimed probe {p['input']} (exit {p['rc']}, "
              f"{p['seconds']:.3g} s): {p['message']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liftmix", "cli.py")):
        print(f"no liftmix source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Build step: write the bytecode once, so no timed import compiles it.
    if not compileall.compile_dir(os.path.join(SRC, "liftmix"), quiet=1):
        print("liftmix source does not compile", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in plan:
            result, children = measure(workload, args.seed, args.seconds, trace)
            report(workload, trace, result, children)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(plan) == 1 else f"{workload}/"
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("info: " + json.dumps(info(children)))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
