#!/usr/bin/env python3
"""Command-line surface checks for the built dbfa tools.

Malformed numeric flags (negative, non-numeric) must end in the usage exit
(2), never in a signal or a silent default, and a scan step larger than
the image must end the page scan instead of crashing the carver or the
snapshot ingest.

    python3 tests/cli_test.py --bin build/tools
"""

import argparse
import os
import subprocess
import sys
import tempfile

STEP_MAX = str(2**64 - 1)


def run(args, cwd):
    return subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin", required=True, help="directory of the tools")
    opts = parser.parse_args()

    def tool(name):
        return os.path.join(opts.bin, name)

    failures = []

    def expect(args, code, cwd):
        proc = run([tool(args[0])] + args[1:], cwd)
        if proc.returncode != code:
            failures.append("%s: exit %d, expected %d\n%s" % (
                " ".join(args), proc.returncode, code, proc.stderr[-400:]))
        return proc

    with tempfile.TemporaryDirectory() as work:
        expect(["dbfa_collect", "postgres_like", "pg.conf"], 0, work)
        expect(["dbfa_mkimage", "postgres_like", "demo.img", "demo.log"], 0,
               work)
        # 512 leading zero bytes keep the first page off offset 0.
        with open(os.path.join(work, "demo.img"), "rb") as f:
            image = f.read()
        with open(os.path.join(work, "shifted.img"), "wb") as f:
            f.write(bytes(512) + image)

        for bad in ["-1", "abc", "", "4x", "+4"]:
            expect(["dbfa_carve", "demo.img", "pg.conf", "--threads=" + bad],
                   2, work)
            expect(["dbfa_carve", "demo.img", "pg.conf", "--step=" + bad], 2,
                   work)
            expect(["dbfa_carve", "demo.img", "pg.conf", "--records=" + bad],
                   2, work)
            expect(["dbfa_detect", "demo.img", "pg.conf", "demo.log",
                    "--threads=" + bad], 2, work)
            expect(["dbfa_mkimage", "postgres_like", "x.img",
                    "--seed=" + bad], 2, work)
            expect(["dbfa_fuzz", "--seed=" + bad], 2, work)
            expect(["dbfa_fuzz", "--mutants=" + bad], 2, work)
            expect(["dbfa_snapshot", "init", "bad_repo", "pg.conf",
                    "--scan-step=" + bad], 2, work)
        expect(["dbfa_fuzz", "--time-budget=-1"], 2, work)
        expect(["dbfa_fuzz", "--time-budget=soon"], 2, work)

        # A step past the end of the image ends the scan, serially and on a
        # pool, with the same carve.
        serial = expect(["dbfa_carve", "shifted.img", "pg.conf",
                         "--step=" + STEP_MAX, "--threads=1"], 0, work)
        parallel = expect(["dbfa_carve", "shifted.img", "pg.conf",
                           "--step=" + STEP_MAX, "--threads=4"], 0, work)
        # Line 2 is the stats line; the parallel scan probes more offsets.
        if serial.stdout.splitlines()[:1] != parallel.stdout.splitlines()[:1]:
            failures.append("serial and parallel carves differ:\n%s\n%s" % (
                serial.stdout[:400], parallel.stdout[:400]))

        expect(["dbfa_snapshot", "init", "repo", "pg.conf",
                "--scan-step=" + STEP_MAX], 0, work)
        expect(["dbfa_snapshot", "ingest", "repo", "shifted.img",
                "--threads=-1"], 2, work)
        expect(["dbfa_snapshot", "ingest", "repo", "shifted.img",
                "--threads=abc"], 2, work)
        expect(["dbfa_snapshot", "ingest", "repo", "shifted.img"], 0, work)

    for failure in failures:
        sys.stderr.write(failure + "\n")
    print("cli: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
