#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of pktbuf (see README.md).

Builds bench/e2e/pktbuf_bench against the repository's pktbuf library,
runs each workload as a whole job -- construct, main phase, drain and
golden verification, artifact emission -- and prints every metric by
name with its unit.  Every run also checks the program's outputs; a
failed check makes the run exit non-zero after the metrics are printed.

Usage (from the repository root):

  run.py [--seed N] [--smoke] [--oracle] [--json OUT]
      Full invocation: every workload untraced (for BENCHMARK.json's
      run_seconds; --smoke: 2 reps of 1/16 of the slots), then traced
      (1 iteration).  Prints "workload metric value unit" lines;
      --json writes the result document (per-rep raw times,
      quartiles, traced layers, checks).
      --oracle also re-runs one rep of each workload on the reference
      engine and byte-compares the artifacts.

  run.py --workload W --seed N --seconds S --trace 0|1
      One workload for S seconds, oracle included.  The last line of
      stdout is one JSON object: {"correct", "attempted", "failed",
      "metrics"}, with the end-to-end metrics of BENCHMARK.json
      (--trace 0) or its per-layer metrics (--trace 1).

  run.py --compare BASE[,BASE...] NEW[,NEW...]
      Compare result documents of two commits (a file holds one
      document or a list of them): medians per workload and end-to-end
      metric against BENCHMARK.json's bounds, artifact digests and
      deterministic metrics for equality.  Exit 1 on any regression.

  run.py --self-test
      Runs a --smoke invocation, then requires --compare to reject a
      copy with one workload's slots_per_s cut by 15% and a copy with
      one digest flipped, and to accept the unmodified results.

The build goes to $CARGO_TARGET_DIR when set, else build-e2e/.
"""

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["leg-saturated", "leg-idle", "switch-hotspot",
             "crossbar-uniform"]
SMOKE_REPS = 2
# Contract-mode runs must end within 180 s; a build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# A nominal second: the driver's reference loop takes 10 ms on the
# nominal machine (about what it takes on an idle 4-vCPU KVM guest).
REF_NOMINAL_S = 0.010

# Every end-to-end metric: unit, and whether it is a host timing
# (machine-dependent, compared within a bound) or a result of the
# simulated design (deterministic, compared for equality).
E2E = {
    "slots_per_s": ("buffer-slots/s", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "served_ratio": ("ratio", "design"),
    "delay_mean_slots": ("slots", "design"),
    "delay_max_slots": ("slots", "design"),
    "drop_rate": ("ratio", "design"),
    "fail_rate": ("ratio", "design"),
}


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}")


def stored_digests():
    return json.loads((HERE / "digests.json").read_text())


def build():
    """Configure (once) and build the driver; returns the build dir."""
    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "src").is_dir()):
        die(f"{ROOT} holds no pktbuf sources (CMakeLists.txt, src/)")
    bdir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / "build-e2e")
    bdir = bdir if bdir.is_absolute() else Path.cwd() / bdir
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "pktbuf_bench", "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            die(f"build failed: {e}")
    return bdir


def drive(bdir, workload, seed, *, reps=None, seconds=None, smoke=False,
          trace=False, oracle=False):
    """Run the driver once; returns its JSON document."""
    out = bdir / "e2e-out"
    out.mkdir(exist_ok=True)
    cmd = [str(bdir / "pktbuf_bench"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    cmd += ["--reps", str(reps)] if reps else ["--seconds", str(seconds)]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace + ["--oracle"] * oracle
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        return {"error": str(e)}
    sys.stderr.write(p.stderr)
    try:
        return json.loads(p.stdout)
    except json.JSONDecodeError:
        return {"error": f"driver exited {p.returncode}: {p.stdout!r}"}


def median(xs):
    return statistics.median(xs)


def spread(xs):
    """Median, quartiles and count of a host timing's samples."""
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": median(xs), "q1": q[0], "q3": q[2], "n": len(xs)}


def end_to_end(doc):
    """Every end-to-end metric of an untraced driver document.

    Host timings are calibrated: each rep's times are scaled by
    REF_NOMINAL_S / the driver's reference-loop time taken just before
    the rep, i.e. read in seconds of a machine on which that loop takes
    REF_NOMINAL_S.  The raw wall-clock medians are kept as "wall".
    """
    slots = doc["buffer_slots"]
    reps = doc["reps"]
    scale = [REF_NOMINAL_S / r["ref_s"] for r in reps]
    times = [r["total_s"] * k for r, k in zip(reps, scale)]
    setups = [s * k for ss, k in zip(doc["setup_samples_s"], scale)
              for s in ss]
    wall_times = [r["total_s"] for r in reps]
    wall_setups = [s for ss in doc["setup_samples_s"] for s in ss]
    design = doc["design"]
    res = {
        "slots_per_s": {"value": slots / median(times),
                        "wall": slots / median(wall_times),
                        **spread([slots / t for t in times])},
        "setup_s": {"value": median(setups), "wall": median(wall_setups),
                    **spread(setups)},
        "peak_rss_mb": {"value": doc["peak_rss_kb"] / 1024.0},
        "fail_rate": {"value": doc["units_failed"] / doc["units_run"]},
    }
    for k in ("served_ratio", "delay_mean_slots", "delay_max_slots",
              "drop_rate"):
        res[k] = {"value": design[k]}
    for name, m in res.items():
        m["unit"] = E2E[name][0]
    return {name: res[name] for name in E2E}


def per_layer(doc, spec):
    """Median over trace iterations of every per-layer metric.  A
    layer the workload never enters, or cannot time from outside,
    reads 0."""
    names = {m["name"] for m in spec["per_layer"]}
    for it in doc["layers"]:
        if not names.issuperset(it):
            die(f"driver metrics missing from BENCHMARK.json:"
                f" {sorted(set(it) - names)}")
    return {
        m["name"]: {"value": median([it.get(m["name"], 0.0)
                                     for it in doc["layers"]]),
                    "unit": m["unit"]}
        for m in spec["per_layer"]
    }


def checks(doc, seed, smoke):
    """The output checks of a document, the stored digest included.
    Buffers that fail their golden check count in units_failed."""
    if "error" in doc:
        return [{"name": "ran", "ok": False, "detail": doc["error"]}]
    out = list(doc["checks"])
    want = stored_digests()
    scale = "smoke" if smoke else "full"
    if seed == want["seed"]:
        expect = want[scale][doc["workload"]]
        out.append({"name": "digest", "ok": doc["digest"] == expect,
                    "detail": f"{doc['digest']} != stored {expect}"
                    if doc["digest"] != expect else ""})
    return out


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        wall = f" (wall clock {m['wall']:.6g})" if "wall" in m else ""
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}{wall}")


def failures(workload, docs, cs):
    """Failed buffers plus failed checks, each reported on stderr."""
    n = 0
    for doc in docs:
        n += doc.get("units_failed", 0)
        if doc.get("units_failed"):
            print(f"{workload} FAILED golden check:"
                  f" {doc['design'].get('first_failure', '')}",
                  file=sys.stderr)
    for c in cs:
        if not c["ok"]:
            n += 1
            print(f"{workload} FAILED check {c['name']}: {c['detail']}",
                  file=sys.stderr)
    return n


# ------------------------------------------------------ contract mode

def run_one(args, spec):
    bdir = build()
    doc = drive(bdir, args.workload, args.seed, seconds=args.seconds,
                trace=bool(args.trace), oracle=True)
    cs = checks(doc, args.seed, smoke=False)
    failed = failures(args.workload, [doc], cs)
    shown = {}
    if "error" not in doc:
        if args.trace:
            shown = per_layer(doc, spec)
        else:
            every = end_to_end(doc)
            shown = {m["name"]: every[m["name"]]
                     for m in spec["end_to_end"]}
    print_metrics(args.workload, shown)
    metrics = {k: {"value": m["value"], "unit": m["unit"]}
               for k, m in shown.items()}
    attempted = doc.get("units_run", 0) + len(cs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------- full mode

def run_all(seed, smoke, oracle, spec):
    """Every workload, untraced then traced; the result document.  The
    untraced runs measure for BENCHMARK.json's run_seconds, like the
    single-workload runs; --smoke runs SMOKE_REPS reps instead."""
    bdir = build()
    span = ({"reps": SMOKE_REPS} if smoke
            else {"seconds": spec["run_seconds"]})
    res = {"schema": "pktbuf-e2e-v1", "seed": seed, "smoke": smoke,
           **span, "workloads": {}}
    for w in WORKLOADS:
        doc = drive(bdir, w, seed, smoke=smoke, oracle=oracle, **span)
        tdoc = drive(bdir, w, seed, reps=1, smoke=smoke, trace=True)
        cs = checks(doc, seed, smoke) + checks(tdoc, seed, smoke)
        entry = {"correct": failures(w, [doc, tdoc], cs) == 0,
                 "checks": cs}
        if "error" not in doc and "error" not in tdoc:
            entry.update(
                digest=doc["digest"],
                end_to_end=end_to_end(doc),
                per_layer=per_layer(tdoc, spec),
                raw={k: [r[k] for r in doc["reps"]]
                     for k in doc["reps"][0]},
                design=doc["design"])
            print_metrics(w, entry["end_to_end"])
            print_metrics(w, entry["per_layer"])
        res["workloads"][w] = entry
    return res


# ------------------------------------------------------- comparison

def compare(base_docs, new_docs, spec):
    """Regressions of NEW against BASE (empty list = accepted)."""
    bad = []
    same_inputs = len({(d["seed"], d["smoke"])
                       for d in base_docs + new_docs}) == 1
    for w in WORKLOADS:
        sides = []
        for docs in (base_docs, new_docs):
            entries = [d["workloads"].get(w) for d in docs]
            if not all(e and e["correct"] for e in entries):
                bad.append(f"{w}: a run is missing or failed its checks")
            sides.append([e for e in entries if e and "end_to_end" in e])
        base, new = sides
        if not base or not new:
            continue
        if same_inputs:
            digests = {e["digest"] for e in base + new}
            if len(digests) > 1:
                bad.append(f"{w}: artifact digests differ:"
                           f" {sorted(digests)}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "higher" else -1
            bs = [e["end_to_end"][name]["value"] for e in base]
            ns = [e["end_to_end"][name]["value"] for e in new]
            b, n = median(bs), median(ns)
            change = sign * (b - n) / b if b else 0.0
            # Pairs are matched by position in the two lists.
            wins = sum(sign * (y - x) > 0 for x, y in zip(bs, ns))
            verdict = "ok"
            if E2E[name][1] == "design" and same_inputs and n != b:
                verdict = "CHANGED"
            elif change > bound:
                verdict = "REGRESSED"
            print(f"{w:17} {name:17} base {b:<12.6g} new {n:<12.6g}"
                  f" worse by {change:+.1%} (bound {bound:.0%})"
                  f" new won {wins}/{min(len(bs), len(ns))} {verdict}")
            if verdict != "ok":
                bad.append(f"{w}.{name}: {verdict}, base {b:.6g},"
                           f" new {n:.6g}")
    return bad


def load_docs(arg):
    """Result documents from comma-separated files; a file may hold
    one document or a list of them."""
    docs = []
    for path in arg.split(","):
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            die(f"cannot read {path}: {e}")
        docs.extend(doc if isinstance(doc, list) else [doc])
    return docs


def self_test(spec):
    fresh = run_all(1, smoke=True, oracle=False, spec=spec)
    slow = copy.deepcopy(fresh)
    rate = slow["workloads"][WORKLOADS[0]]["end_to_end"]["slots_per_s"]
    rate["value"] *= 0.85
    flipped = copy.deepcopy(fresh)
    entry = flipped["workloads"][WORKLOADS[-1]]
    entry["digest"] = ("0" if entry["digest"][0] != "0" else "1") \
        + entry["digest"][1:]
    results = [("unmodified", compare([fresh], [fresh], spec), False),
               ("15% slowdown", compare([fresh], [slow], spec), True),
               ("flipped digest", compare([fresh], [flipped], spec), True)]
    ok = True
    for label, bad, must_reject in results:
        rejected = bool(bad)
        good = rejected == must_reject
        ok = ok and good
        print(f"self-test {label}: {'rejected' if rejected else 'accepted'}"
              f" -- {'as required' if good else 'WRONG'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--json")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    spec = benchmark_spec()

    if args.self_test:
        return self_test(spec)
    if args.compare:
        bad = compare(load_docs(args.compare[0]),
                      load_docs(args.compare[1]), spec)
        for b in bad:
            print(f"REJECT {b}")
        return 1 if bad else 0
    if args.workload:
        return run_one(args, spec)

    res = run_all(args.seed, args.smoke, args.oracle, spec)
    if args.json:
        Path(args.json).write_text(json.dumps(res, indent=1) + "\n")
    correct = all(e["correct"] for e in res["workloads"].values())
    print(f"run.py: {'all checks passed' if correct else 'CHECKS FAILED'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
