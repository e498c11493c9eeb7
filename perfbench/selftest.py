#!/usr/bin/env python3
"""Determinism test of the repository benchmark itself.

    python3 perfbench/selftest.py [--seed 7] [--workloads train,select,...]

Runs each workload's traced driver process twice on the same seed and
checks that both runs saved byte-identical rule files and agree exactly on
pr_auc, f1_at_p80 and every work count, with no failed operation. Prints
one line per check and exits 1 on any difference.
"""

import argparse
import hashlib
import os
import sys

import run

WORK_COUNTS = (
    "trainer.candidates_enumerated",
    "trainer.candidates_pruned",
    "trainer.candidates_rejected",
    "trainer.constraints",
    "trainer.evals_skipped",
    "table.pool_values",
    "lp.columns",
    "lp.rows",
    "selection.rules_selected",
    "serve.requests_ok",
    "serve.budget_charges",
    "predictor.detections",
)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", default=",".join(sorted(run.PROCESSES)))
    args = parser.parse_args()
    driver = run.build_driver()
    seed = run.process_seed(args.seed, 0)
    differences = 0
    for workload in args.workloads.split(","):
        runs = []
        for attempt in (0, 1):
            work = os.path.join(run.output_dir(), "selftest",
                                "%s-%d" % (workload, attempt))
            report = run.run_driver(driver, workload, seed, 2.0, True, work)
            runs.append((sha256(os.path.join(work, "rules.sdc")), report))
        (digest_a, a), (digest_b, b) = runs
        checks = [("rules.sdc sha256", digest_a, digest_b),
                  ("failed operations", a["failed"] + b["failed"], 0)]
        checks += [(k, a["e2e"][k], b["e2e"][k]) for k in ("pr_auc", "f1_at_p80")]
        checks += [(k, a["layer"].get(k, 0), b["layer"].get(k, 0))
                   for k in WORK_COUNTS]
        for name, x, y in checks:
            differences += x != y
            print("%-10s %-30s %s" % (
                workload, name, x if x == y else "DIFFERS: %s != %s" % (x, y)))
    print("selftest: %s" % ("PASS" if differences == 0 else
                            "FAIL (%d differences)" % differences))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
