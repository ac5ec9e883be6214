#!/usr/bin/env python3
"""Validate and compare machine-readable bench reports (BENCH_*.json).

Two modes, stdlib only:

  bench_diff.py --validate FILE...
      Schema-check report files (vsim.bench.report/v1).  Exits 1 on the
      first malformed file; prints one OK line per valid file.

  bench_diff.py BASE NEW [--tolerance PCT] [--micro-tolerance PCT]
      BASE and NEW are directories holding BENCH_*.json sets (or two single
      files).  Rows are matched by (section, workers, configuration) and
      compared: a speedup drop beyond --tolerance (default 5%) or a
      run that newly deadlocks is a REGRESSION and the exit status is 1.
      Micro rows (wall-clock, inherently noisy) are compared at
      --micro-tolerance (default 25%) and reported as warnings only.

      A missing or unreadable BASELINE is a warning, not an error: the
      first run of a new branch has nothing to compare against, and a
      corrupt baseline should not block the pipeline that would replace
      it.  A missing or unreadable NEW report set is always an error --
      that is the artifact under test.

  bench_diff.py --exact BASE NEW
      Model-identity gate for deterministic reports: every row of every
      NEW report must exist in BASE and match it field for field (speedup,
      deadlocked and every metric, exactly).  Micro rows are ignored, and
      BASE rows absent from NEW are not checked, so a run of a few
      sections gates against a full baseline.  Any difference, or a
      missing/unreadable report on either side, exits 1.
"""

import argparse
import glob
import json
import os
import sys

SCHEMA = "vsim.bench.report/v1"

ROW_KEYS = ("section", "workers", "configuration", "speedup", "deadlocked",
            "metrics")
MICRO_KEYS = ("name", "real_ns", "cpu_ns", "iterations")

# Counters whose growth between runs is worth a note even when speedup holds.
WATCHED = ("tw.rollbacks", "net.null_messages", "transport.retransmits",
           "ckpt.recoveries")


def fail(msg):
    print("bench_diff: error: " + msg, file=sys.stderr)
    sys.exit(1)


def warn(msg):
    print("bench_diff: warning: " + msg, file=sys.stderr)


def validate(doc, path):
    """Return an error string, or None when `doc` is a valid report."""
    if not isinstance(doc, dict):
        return "top level is not an object"
    if doc.get("schema") != SCHEMA:
        return "schema is %r, want %r" % (doc.get("schema"), SCHEMA)
    for key, typ in (("name", str), ("git_sha", str), ("config", dict),
                     ("rows", list)):
        if not isinstance(doc.get(key), typ):
            return "field %r missing or not %s" % (key, typ.__name__)
    for i, row in enumerate(doc["rows"]):
        if not isinstance(row, dict):
            return "rows[%d] is not an object" % i
        for key in ROW_KEYS:
            if key not in row:
                return "rows[%d] lacks %r" % (i, key)
        if not isinstance(row["workers"], int):
            return "rows[%d].workers is not an integer" % i
        if not isinstance(row["speedup"], (int, float)) \
                or isinstance(row["speedup"], bool):
            return "rows[%d].speedup is not numeric" % i
        if not isinstance(row["deadlocked"], bool):
            return "rows[%d].deadlocked is not a boolean" % i
        if not isinstance(row["metrics"], dict):
            return "rows[%d].metrics is not an object" % i
        for name, v in row["metrics"].items():
            if isinstance(v, bool) or not isinstance(v, (int, float, dict)):
                return "rows[%d].metrics[%r] is not numeric" % (i, name)
    micro = doc.get("micro", [])
    if not isinstance(micro, list):
        return "field 'micro' is not a list"
    for i, row in enumerate(micro):
        if not isinstance(row, dict):
            return "micro[%d] is not an object" % i
        for key in MICRO_KEYS:
            if key not in row:
                return "micro[%d] lacks %r" % (i, key)
        for key in ("real_ns", "cpu_ns", "iterations"):
            if isinstance(row[key], bool) \
                    or not isinstance(row[key], (int, float)):
                return "micro[%d].%s is not numeric" % (i, key)
    return None


def load(path, on_error=fail):
    """Parse + schema-check one report.  On any problem, reports through
    `on_error` (fail: exit 1; warn: return None so the caller can skip)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        on_error("%s: cannot read report: %s" % (path, e.strerror or e))
        return None
    except ValueError as e:
        on_error("%s: not valid JSON: %s" % (path, e))
        return None
    err = validate(doc, path)
    if err:
        on_error("%s: malformed report: %s" % (path, err))
        return None
    return doc


def collect(path, role, on_error=fail):
    """Map report name -> document for a directory or a single file.
    Returns None when the path yields nothing and `on_error` is non-fatal."""
    if not os.path.exists(path):
        on_error("%s %s does not exist" % (role, path))
        return None
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
        if not files:
            on_error("%s %s holds no BENCH_*.json files" % (role, path))
            return None
    else:
        files = [path]
    docs = {}
    for f in files:
        doc = load(f, on_error)
        if doc is not None:
            docs[doc["name"]] = doc
    if not docs:
        on_error("%s %s yielded no readable reports" % (role, path))
        return None
    return docs


def row_key(row):
    return (row["section"], row["workers"], row["configuration"])


def diff_report(name, base, new, tol, micro_tol):
    """Print the comparison for one report; return the regression count."""
    regressions = 0
    base_rows = {row_key(r): r for r in base["rows"]}
    for row in new["rows"]:
        old = base_rows.get(row_key(row))
        if old is None:
            print("  NEW     %s / P=%s / %s" % row_key(row))
            continue
        tag = "%s / P=%s / %s" % row_key(row)
        if row["deadlocked"] and not old["deadlocked"]:
            print("  REGRESSION %s: newly deadlocks" % tag)
            regressions += 1
            continue
        osp, nsp = old["speedup"], row["speedup"]
        if osp > 0 and nsp < osp * (1 - tol):
            print("  REGRESSION %s: speedup %.2f -> %.2f (-%.1f%%)" %
                  (tag, osp, nsp, 100 * (1 - nsp / osp)))
            regressions += 1
        for counter in WATCHED:
            ov = old["metrics"].get(counter, 0)
            nv = row["metrics"].get(counter, 0)
            if nv > max(ov * 2, ov + 100):
                print("  note    %s: %s %s -> %s" % (tag, counter, ov, nv))
    if new.get("partial"):
        print("  warn    %s is a partial report (interrupted run); "
              "missing rows are not regressions" % name)
    base_micro = {m["name"]: m for m in base.get("micro", [])}
    for m in new.get("micro", []):
        old = base_micro.get(m["name"])
        if old is None or old["real_ns"] <= 0:
            continue
        if m["real_ns"] > old["real_ns"] * (1 + micro_tol):
            print("  warn    micro %s: %.0fns -> %.0fns (wall clock; "
                  "not counted as regression)" %
                  (m["name"], old["real_ns"], m["real_ns"]))
    return regressions


def exact_report(name, base, new):
    """Print every field where `new` differs from `base`; return the count
    of mismatching rows."""
    mismatches = 0
    base_rows = {row_key(r): r for r in base["rows"]}
    for row in new["rows"]:
        tag = "%s / P=%s / %s" % row_key(row)
        old = base_rows.get(row_key(row))
        if old is None:
            print("  MISMATCH %s: row absent from the baseline" % tag)
            mismatches += 1
            continue
        diffs = ["%s %r -> %r" % (key, old[key], row[key])
                 for key in ("speedup", "deadlocked") if old[key] != row[key]]
        for metric in sorted(set(old["metrics"]) | set(row["metrics"])):
            ov = old["metrics"].get(metric)
            nv = row["metrics"].get(metric)
            if ov != nv:
                diffs.append("%s %r -> %r" % (metric, ov, nv))
        if diffs:
            print("  MISMATCH %s: %s" % (tag, "; ".join(diffs)))
            mismatches += 1
    print("%s: %d row(s) checked, %d mismatch(es)" %
          (name, len(new["rows"]), mismatches))
    return mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+",
                    help="with --validate: report files; otherwise: "
                         "BASE and NEW directories (or files)")
    ap.add_argument("--validate", action="store_true",
                    help="schema-check the given files and exit")
    ap.add_argument("--exact", action="store_true",
                    help="require every NEW row to equal its BASE row "
                         "field for field")
    ap.add_argument("--tolerance", type=float, default=5.0,
                    help="allowed speedup drop in percent (default 5)")
    ap.add_argument("--micro-tolerance", type=float, default=25.0,
                    help="wall-clock warning threshold in percent "
                         "(default 25)")
    args = ap.parse_args()

    if args.validate:
        for path in args.paths:
            load(path)
            print("OK %s" % path)
        return

    if len(args.paths) != 2:
        fail("compare mode takes exactly two paths (BASE NEW)")
    if args.exact:
        base = collect(args.paths[0], "baseline")
        new = collect(args.paths[1], "new report set")
        mismatches = 0
        for name in sorted(new):
            if name not in base:
                print("%s: no baseline report" % name)
                mismatches += 1
                continue
            mismatches += exact_report(name, base[name], new[name])
        if mismatches:
            print("%d mismatch(es)" % mismatches)
            sys.exit(1)
        print("identical")
        return
    # An absent/corrupt baseline downgrades to "nothing to compare": the
    # run that produced NEW is still good, and NEW becomes the baseline.
    base = collect(args.paths[0], "baseline", on_error=warn)
    new = collect(args.paths[1], "new report set")
    if base is None:
        warn("no usable baseline; skipping comparison (exit 0)")
        return

    regressions = 0
    for name in sorted(new):
        if name not in base:
            print("%s: new report (no baseline)" % name)
            continue
        print("%s: %s -> %s" % (name, base[name]["git_sha"],
                                new[name]["git_sha"]))
        regressions += diff_report(name, base[name], new[name],
                                   args.tolerance / 100,
                                   args.micro_tolerance / 100)
    for name in sorted(set(base) - set(new)):
        print("%s: report disappeared" % name)
        regressions += 1

    if regressions:
        print("%d regression(s)" % regressions)
        sys.exit(1)
    print("no regressions")


if __name__ == "__main__":
    main()
