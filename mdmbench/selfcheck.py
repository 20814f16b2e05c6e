#!/usr/bin/env python3
"""Tiny-scale self-check of the MDM benchmark.

Usage (from the repository root):

    python3 mdmbench/selfcheck.py

Runs every workload at --scale tiny, untraced and traced, and asserts
that each metric the benchmark defines is printed with its unit, that
failed_ratio is 0, that the result line has exactly the expected keys,
and that same-seed runs repeat: fig1_serial twice gives the same op-log
digest and the same per-layer counts, and fig1_mix (four clients) gives
the same digest as fig1_serial. Exits non-zero on the first failure.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
SEED = "7"

E2E_ALL = ["setup_s", "ops_per_s", "read_p50_ms", "read_p95_ms",
           "read_p99_ms", "write_p50_ms", "write_p95_ms", "editor_p50_ms",
           "librarian_p50_ms", "failed_ratio", "rss_mb"]
E2E_FIG1 = ["analyzer_p50_ms", "typesetter_p50_ms"]
PER_LAYER = [
    "quel.statements_per_op", "quel.rows_scanned_per_op",
    "quel.rows_scanned_per_row_returned", "quel.conjuncts_per_op",
    "quel.index_lookups_per_op", "quel.statement_ms_per_op",
    "quel.snapshot_read_ratio", "quel.exclusive_latches_per_op",
    "quel.parse_us", "quel.plan_us", "quel.parse_cache_hit_ratio",
    "er.interval_rebuilds_per_op", "er.rank_rebuilds_per_op",
    "er.interval_rebuild_ms_per_op", "er.linear_scans_per_op",
    "er.snapshot_pin_fallbacks", "er.index_snapshot_fallbacks",
    "net.server_ms_per_op", "net.client_wait_ms_per_op",
    "net.bytes_in_per_op", "net.bytes_out_per_op", "net.encode_us",
    "net.decode_us", "net.retries", "net.shed", "wal.records_per_write",
    "wal.bytes_per_write", "wal.bytes_per_user_byte",
    "wal.commits_per_fsync", "storage.fsyncs_per_write",
    "storage.fsync_ms_per_write", "corpus.generate_s",
    "corpus.import_notes_per_s", "trace.ops_per_s_traced", "failed_ratio"]
# Counts that must repeat exactly for a fixed seed with one client.
EXACT = ["quel.statements_per_op", "quel.rows_scanned_per_op",
         "quel.conjuncts_per_op", "quel.index_lookups_per_op",
         "er.interval_rebuilds_per_op", "er.rank_rebuilds_per_op"]
# Layer counts that must be non-zero on the Remote workloads.
REMOTE_NONZERO = {
    "catalog_durable": ["net.bytes_in_per_op", "wal.records_per_write",
                        "storage.fsyncs_per_write"],
    "catalog_memory": ["net.bytes_in_per_op"],
}

ROW = re.compile(r"^  (\S+)\s+(-?[0-9.]+|inf|nan)\s+(\S+)\s")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
           "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        check(False, "%s trace=%d: no result line (exit %d)" %
              (workload, trace, proc.returncode))
    table = {}
    for line in lines:
        m = ROW.match(line)
        if m:
            table[m.group(1)] = (float(m.group(2)), m.group(3))
    digest = next((l.split()[1] for l in lines
                   if l.startswith("op_log_digest ")), None)
    return proc.returncode, result, table, digest


def check(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)


def main():
    digests = {}
    layer_runs = {}
    for workload in ("fig1_mix", "fig1_serial", "catalog_durable",
                     "catalog_memory"):
        for trace in (0, 1):
            rc, result, table, digest = run(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            check(rc == 0, tag + ": exit status %d" % rc)
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], tag + ": result keys")
            check(result["correct"] is True and result["failed"] == 0,
                  tag + ": not correct")
            expected = PER_LAYER if trace else E2E_ALL + (
                E2E_FIG1 if workload.startswith("fig1") else [])
            missing = [m for m in expected if m not in table]
            check(not missing, tag + ": not printed: " + ", ".join(missing))
            check(all(table[m][1] for m in expected), tag + ": unit missing")
            check(table["failed_ratio"][0] == 0, tag + ": failed_ratio != 0")
            check(digest not in (None, "incomplete"), tag + ": no digest")
            digests.setdefault(workload, digest)
            check(digests[workload] == digest, tag + ": digest changed")
            if trace:
                zero = [m for m in REMOTE_NONZERO.get(workload, [])
                        if table[m][0] <= 0]
                check(not zero, tag + ": no traffic in " + ", ".join(zero))
            if trace and workload == "catalog_memory":
                check(table["wal.records_per_write"][0] == 0,
                      tag + ": an in-memory db wrote a journal")
            if trace:
                layer_runs[workload] = table
            print("ok  %-28s %d metrics, digest %s" % (tag, len(table),
                                                      digest))
    check(digests["fig1_mix"] == digests["fig1_serial"],
          "fig1_mix and fig1_serial digests differ for one seed")
    _, _, again, _ = run("fig1_serial", 1)
    for m in EXACT:
        check(again[m][0] == layer_runs["fig1_serial"][m][0],
              "fig1_serial %s did not repeat: %s vs %s" %
              (m, again[m][0], layer_runs["fig1_serial"][m][0]))
    print("ok  fig1_serial per-layer counts repeat exactly")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
