#!/usr/bin/env python3
"""End-to-end smoke test of `privhp build`.

Writes a seeded 1-D and a seeded 2-D CSV and checks that

  * `privhp build` at --threads 1, 3 and 4 writes byte-identical trees
    for both (the CSV streams through the sharded build, and Finish
    grows the tree on the same threads);
  * `privhp quantile` answers on the 1-D tree;
  * `privhp sample` (seeded), `quantile` and `heavy` print the same
    bytes from a tree and from its `privhp pack`ed file (the domain
    comes from the file's header: no --dim);
  * a CSV with a malformed row fails with that row's line number and
    leaves no output file;
  * a flag the command does not read (`--seeed`, `sample --dim`) or a
    numeric value that does not parse whole (`--k abc`, `--seed 3x`)
    prints the usage, exits 2 and writes no output file;
  * a `--port` outside 1..65535 (0..65535 for `serve`, where 0 asks for
    an ephemeral port) prints the usage and exits 2 before any socket
    is opened, for `serve`, `query`, `ingest`, `stats` and `top`.

Stdlib-only. Usage: cli_build_smoke.py PATH_TO_PRIVHP
(ctest runs it as cli.build_smoke).
"""

import os
import random
import subprocess
import sys
import tempfile


def run(privhp, *args):
    return subprocess.run([privhp] + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def write_csv(path, dim, n, seed):
    rng = random.Random(seed)
    with open(path, "w") as f:
        f.write("# seeded smoke data\n")
        for _ in range(n):
            f.write(",".join(repr(rng.betavariate(2, 5))
                             for _ in range(dim)) + "\n")


def build(privhp, csv, dim, out, threads):
    proc = run(privhp, "build", "--in", csv, "--dim", str(dim), "--k", "16",
               "--out", out, "--threads", str(threads))
    if proc.returncode != 0:
        raise AssertionError("build --threads %d of %s failed:\n%s" %
                             (threads, csv, proc.stderr))
    with open(out, "rb") as f:
        return f.read()


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    privhp = argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        # 40,000 points span two full shard windows and a partial one.
        for dim, n in ((1, 40000), (2, 20000)):
            csv = os.path.join(tmp, "data%d.csv" % dim)
            write_csv(csv, dim, n, seed=dim)
            one = build(privhp, csv, dim, csv + ".t1.tree", 1)
            for threads in (3, 4):
                other = build(privhp, csv, dim,
                              csv + ".t%d.tree" % threads, threads)
                if one != other:
                    raise AssertionError(
                        "%d-D tree differs between --threads 1 and %d" %
                        (dim, threads))

        proc = run(privhp, "quantile", "--tree",
                   os.path.join(tmp, "data1.csv.t1.tree"), "--q", "0.5")
        if proc.returncode != 0 or not proc.stdout.startswith("q=0.5000"):
            raise AssertionError("quantile failed:\n%s%s" %
                                 (proc.stdout, proc.stderr))

        for dim in (1, 2):
            tree = os.path.join(tmp, "data%d.csv.t1.tree" % dim)
            packed = tree + ".phx"
            proc = run(privhp, "pack", "--tree", tree, "--out", packed)
            if proc.returncode != 0:
                raise AssertionError("pack of %s failed:\n%s" %
                                     (tree, proc.stderr))
            queries = [["sample", "--m", "5000", "--seed", "7"],
                       ["heavy", "--threshold", "0.05"]]
            if dim == 1:
                queries.append(["quantile", "--q", "0.1", "--q", "0.5",
                                "--q", "0.9"])
            for query in queries:
                outputs = []
                for path in (tree, packed):
                    args = [query[0], "--tree", path] + query[1:]
                    if query[0] == "sample":
                        args += ["--out", path + ".csv"]
                    proc = run(privhp, *args)
                    if proc.returncode != 0:
                        raise AssertionError("%s failed:\n%s" %
                                             (" ".join(args), proc.stderr))
                    if query[0] == "sample":
                        with open(path + ".csv", "rb") as f:
                            outputs.append(f.read())
                    else:
                        outputs.append(proc.stdout.encode())
                if not outputs[0] or outputs[0] != outputs[1]:
                    raise AssertionError(
                        "%d-D %s differs between the tree and its packed "
                        "file" % (dim, query[0]))

        # Line 1 is a comment, so the bad row is line 5 of the file.
        bad = os.path.join(tmp, "bad.csv")
        with open(bad, "w") as f:
            f.write("# header\n0.1\n0.2\n0.3\nnot-a-number\n0.4\n")
        out = os.path.join(tmp, "bad.tree")
        for extra in ([], ["--n", "5"]):
            proc = run(privhp, "build", "--in", bad, "--dim", "1",
                       "--out", out, *extra)
            if proc.returncode == 0 or "(line 5)" not in proc.stderr:
                raise AssertionError(
                    "malformed row not reported with its line number "
                    "(args %s):\n%s" % (extra, proc.stderr))
            if os.path.exists(out):
                raise AssertionError("failed build left %s behind" % out)

        tree = os.path.join(tmp, "data1.csv.t1.tree")
        data = os.path.join(tmp, "data1.csv")
        rejected = os.path.join(tmp, "rejected.out")
        for args in (["sample", "--tree", tree, "--m", "5", "--out", rejected,
                      "--seeed", "3"],
                     ["sample", "--tree", tree, "--m", "5", "--out", rejected,
                      "--dim", "1"],
                     ["build", "--in", data, "--dim", "1", "--k", "abc",
                      "--out", rejected],
                     ["sample", "--tree", tree, "--m", "5", "--out", rejected,
                      "--seed", "3x"]):
            proc = run(privhp, *args)
            if proc.returncode != 2 or "usage:" not in proc.stderr:
                raise AssertionError(
                    "%s exited %d without the usage:\n%s" %
                    (" ".join(args[:1] + args[-2:]), proc.returncode,
                     proc.stderr))
            if os.path.exists(rejected):
                raise AssertionError("rejected %s wrote %s" %
                                     (" ".join(args[-2:]), rejected))

        # Out-of-range ports: before this check --port 70000 connected to
        # 4464 and --port -1 to 65535.
        ingest_csv = ["--artifact", "a", "--in", data, "--dim", "1"]
        for command, extra in (("query", ["--list"]),
                               ("ingest", ingest_csv),
                               ("stats", []),
                               ("top", ["--iterations", "1"]),
                               ("serve", [])):
            for port in ("70000", "-1", "65536"):
                args = [command, "--host", "127.0.0.1", "--port", port]
                proc = run(privhp, *(args + extra))
                if proc.returncode != 2 or "usage:" not in proc.stderr:
                    raise AssertionError(
                        "%s --port %s exited %d without the usage:\n%s" %
                        (command, port, proc.returncode, proc.stderr))
        proc = run(privhp, "query", "--port", "0", "--list")
        if proc.returncode != 2 or "usage:" not in proc.stderr:
            raise AssertionError("query --port 0 exited %d:\n%s" %
                                 (proc.returncode, proc.stderr))
    print("cli.build_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
