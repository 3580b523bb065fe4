"""One measured process: import the CLI, run a workload's rounds, check outputs.

Started by ``perfbench/run.py`` as ``python -m perfbench.child <spec.json>``
with ``src`` on ``PYTHONPATH``.  The first thing it does is import
``liftmix.cli``, so the parent can time spawn-to-import.  It writes one JSON
result file and prints nothing on standard output.
"""

import time

import liftmix.cli  # the import being timed

IMPORT_DONE = time.monotonic()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from perfbench import hostspeed, spans  # noqa: E402
from perfbench.workloads import WORKLOADS, out_dir  # noqa: E402


def call(argv, tracer):
    """One timed ``main(argv)`` call; output is captured, not printed."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = liftmix.cli.main(argv)
            else:
                rc = tracer.span("cli.main", liftmix.cli.main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed call, and the run goes on
            rc = None
            crash = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
    text = out.getvalue()
    payload = None
    if rc == 0:
        try:
            payload = json.loads(text.strip().splitlines()[-1])
        except (IndexError, ValueError):
            rc, crash = None, "exit 0 without a JSON payload on standard output"
    lines = err.getvalue().strip().splitlines()
    return {"rc": rc, "seconds": seconds, "payload": payload, "stdout": text,
            "message": crash or (lines[-1] if lines else "")}


def _empty(directory):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)


def _artifacts(directory, stdout):
    """Total bytes written, and a digest of the reproducible output.

    The digest covers every artifact but ``manifest.json`` (which holds wall
    times) or, for commands that write none, the printed payload.
    """
    files = sorted((e.name, e.path) for e in os.scandir(directory) if e.is_file())
    digest = hashlib.sha256()
    size = len(stdout.encode())
    for name, path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        size += len(data)
        if name != "manifest.json":
            digest.update(name.encode() + b"\0" + data)
    if not files:
        digest.update(stdout.encode())
    return size, digest.hexdigest()


def _run_probe(wl, work_dir, out):
    """The workload's probe calls, untraced and outside every count of the run.

    Returns one record per call that exits non-zero or fails its check.
    """
    ops = wl.probe(work_dir)
    results = []
    for op in ops:
        _empty(out)
        res = call(op.argv, None)
        res.pop("stdout")
        results.append(res)
    bad = {i: res["message"] for i, res in enumerate(results) if res["rc"] != 0}
    for f in wl.check(ops, results, liftmix.cli.main, work_dir):
        bad.setdefault(f.index, f.message)
    return [{"input": ops[i].label, "rc": results[i]["rc"], "message": msg,
             "seconds": results[i]["seconds"], "graph": ops[i].text}
            for i, msg in sorted(bad.items())]


def run(spec):
    wl = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    work_dir = spec["work_dir"]
    out = out_dir(work_dir)
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    ops, results, rounds = [], [], []
    t_end = None
    ref = hostspeed.reference_times()
    for r, round_ops in enumerate(wl.rounds(seed, work_dir)):
        round_results = []
        for op in round_ops:
            _empty(out)
            res = call(op.argv, tracer)
            res["artifact_bytes"], res["digest"] = _artifacts(out, res.pop("stdout"))
            wl.after_op(seed, len(ops), op, res, out)
            ops.append(op)
            results.append(res)
            round_results.append(res)
        ref_before, ref = ref, hostspeed.reference_times()
        rounds.append({"work": wl.work(round_results),
                       "seconds": sum(x["seconds"] for x in round_results),
                       "ref_before": ref_before, "ref_after": ref})
        if spec["rounds"] is not None:
            if r + 1 >= spec["rounds"]:
                break
        elif t_end is None:
            # Round 0 warms the process up; the timed rounds follow it.
            t_end = time.monotonic() + spec["seconds"]
        elif time.monotonic() >= t_end:
            break
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layer = {}
    if tracer is not None:
        layer = spans.layer_metrics(tracer.spans, tracer.counters)
        layer["cli.artifact_bytes"] = (sum(x["artifact_bytes"] for x in results), "bytes")
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")

    probe = _run_probe(wl, work_dir, out)
    failures = wl.check(ops, results, liftmix.cli.main, work_dir)
    failed_ops = {f.index for f in failures}
    errors = []
    for i, (op, res) in enumerate(zip(ops, results)):
        if res["rc"] != 0:
            failed_ops.add(i)
            errors.append({"input": op.label, "rc": res["rc"], "message": res["message"],
                           "graph": op.text})
    return {
        "import_done": IMPORT_DONE,
        "attempted": len(results),
        "failed_ops": sorted(failed_ops),
        "crashed": sum(1 for r in results if r["rc"] is None),
        "wrong": [vars(f) for f in failures],
        "errors": errors,
        "rounds": rounds,
        "run_s": sum(x["seconds"] for x in results),
        "call_seconds": [x["seconds"] for x in results],
        "digests": [(op.label, x["digest"]) for op, x in zip(ops, results)],
        "maxrss_kb": maxrss_kb,
        "layer": layer,
        "probe": probe,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
