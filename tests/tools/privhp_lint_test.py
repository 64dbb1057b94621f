#!/usr/bin/env python3
"""Tests for tools/privhp_lint.py.

Drives the linter over the fixture corpus (tests/tools/fixtures/) and
the real tree, asserting exact rule IDs:

  * every bad/ fixture trips exactly the rules it seeds (file, rule,
    line), and nothing else;
  * the clean/ mirror — same shapes, invariants respected — is silent;
  * src/ itself is silent (the gate the CI job enforces);
  * PHL005 applies to the metrics code (service/, obs/) only;
  * PHL006 takes its limit from the nearest .clang-format;
  * PHL007 applies to the ingest layers (io/, domain/, core/) only;
  * PHL008 applies to service/handlers.{h,cc} only;
  * PHL009 applies everywhere but io/frame_socket.cc and *_test.cc;
  * PHL010 flags a src/ header that only tests or its own .cc include,
    finding includers from --root whichever paths are linted;
  * --check-tidy-config accepts the repo config and rejects configs
    with undocumented opt-outs or a missing WarningsAsErrors.

Run directly or via ctest (lint.privhp_test).
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(ROOT, "tools", "privhp_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def parse_findings(stderr):
    """Returns a list of (relative_path, line, rule) triples."""
    findings = []
    for line in stderr.splitlines():
        m = re.match(r"(.+?):(\d+): (PHL\d{3}): ", line)
        if m:
            path = os.path.relpath(os.path.abspath(m.group(1)), FIXTURES)
            findings.append((path.replace(os.sep, "/"), int(m.group(2)),
                             m.group(3)))
    return findings


class BadFixturesTest(unittest.TestCase):
    """Each seeded violation must be reported with the exact rule ID."""

    @classmethod
    def setUpClass(cls):
        code, _, err = run_lint(os.path.join(FIXTURES, "bad"))
        cls.exit_code = code
        cls.findings = parse_findings(err)

    def test_exit_nonzero(self):
        self.assertEqual(self.exit_code, 1)

    def expect(self, path, rule, lines):
        got = sorted(l for p, l, r in self.findings
                     if p == path and r == rule)
        self.assertEqual(
            got, sorted(lines),
            "%s: expected %s at lines %s, got %s (all findings: %s)" %
            (path, rule, sorted(lines), got, self.findings))

    def test_phl001_wire_counts(self):
        self.expect("bad/service/protocol.cc", "PHL001", [15, 25])

    def test_phl002_simd_rounding(self):
        self.expect("bad/common/simd_avx2.cc", "PHL002", [14, 20, 26])

    def test_phl003_rng_discipline(self):
        self.expect("bad/core/sampler.cc", "PHL003", [10, 15, 15, 20, 25])

    def test_phl004_naked_mutex(self):
        self.expect("bad/service/queue.cc", "PHL004",
                    [12, 12, 18, 18, 27, 28])

    def test_phl005_stream_length_metrics(self):
        # A direct read in a metric call (split over two lines), one in a
        # bytes_in update, and one through a variable; not the comment
        # or the string that mention them.
        self.expect("bad/service/ingest_metrics.cc", "PHL005", [8, 10, 12])

    def test_phl006_column_limit(self):
        # 81- and 100-column lines; not the 80-column line, the em-dash
        # line of 80 characters (but more bytes), or the long #include.
        self.expect("bad/common/long_lines.cc", "PHL006", [7, 8, 11])

    def test_phl007_point_currency(self):
        # Declarations and definitions, single- and multi-line; not the
        # PointBatch forms beside them.
        self.expect("bad/io/point_sink.h", "PHL007", [11, 17, 24])
        self.expect("bad/core/shard.cc", "PHL007", [7, 11])

    def test_phl008_socket_free_handlers(self):
        # Both includes and all three names, in the .cc and the .h; not
        # the comment or the string that mention them.
        self.expect("bad/service/handlers.cc", "PHL008", [4, 5, 9, 10, 12])
        self.expect("bad/service/handlers.h", "PHL008", [5, 9])

    def test_phl009_socket_io_seam(self):
        # All six calls, one split after its '::'; not the comment or
        # the string that spell them.
        self.expect("bad/service/reply_writer.cc", "PHL009",
                    [9, 10, 11, 16, 17, 19])

    def test_no_cross_rule_noise(self):
        # A file seeded for one rule must not trip a different rule.
        for path, _, rule in self.findings:
            expected = {"bad/service/protocol.cc": "PHL001",
                        "bad/service/ingest_metrics.cc": "PHL005",
                        "bad/common/simd_avx2.cc": "PHL002",
                        "bad/core/sampler.cc": "PHL003",
                        "bad/service/queue.cc": "PHL004",
                        "bad/common/long_lines.cc": "PHL006",
                        "bad/io/point_sink.h": "PHL007",
                        "bad/core/shard.cc": "PHL007",
                        "bad/service/handlers.cc": "PHL008",
                        "bad/service/handlers.h": "PHL008",
                        "bad/service/reply_writer.cc": "PHL009"}[path]
            self.assertEqual(rule, expected,
                             "unexpected %s in %s" % (rule, path))


class CleanTest(unittest.TestCase):
    def test_clean_mirror_is_silent(self):
        code, _, err = run_lint(os.path.join(FIXTURES, "clean"))
        self.assertEqual(code, 0, "clean fixtures flagged:\n" + err)

    def test_src_tree_is_silent(self):
        code, _, err = run_lint(os.path.join(ROOT, "src"))
        self.assertEqual(code, 0, "src/ flagged:\n" + err)


class StreamLengthScopeTest(unittest.TestCase):
    """PHL005 covers the metrics code (service/, obs/) and nothing else."""

    def test_only_metrics_layers(self):
        source = ("void F(Counter* c, const Sink& s) "
                  "{ c->Add(s.num_processed()); }\n")
        with tempfile.TemporaryDirectory() as root:
            for layer in ("service", "obs", "core"):
                os.makedirs(os.path.join(root, layer))
                with open(os.path.join(root, layer, "m.cc"), "w") as f:
                    f.write(source)
            code, _, err = run_lint(root)
            self.assertEqual(code, 1)
            flagged = sorted(
                os.path.relpath(p, root)
                for p in re.findall(r"(\S+):\d+: PHL005: ", err))
            self.assertEqual(flagged, [os.path.join("obs", "m.cc"),
                                       os.path.join("service", "m.cc")])


class SocketIoSeamScopeTest(unittest.TestCase):
    """PHL009 covers every file but io/frame_socket.cc and tests."""

    def test_only_the_seam_and_tests_are_exempt(self):
        source = "void F(int fd) { (void)::send(fd, nullptr, 0, 0); }\n"
        with tempfile.TemporaryDirectory() as root:
            files = (os.path.join("io", "frame_socket.cc"),
                     os.path.join("io", "frame_socket.h"),
                     os.path.join("io", "socket_point_stream.cc"),
                     os.path.join("service", "server.cc"),
                     os.path.join("service", "server_test.cc"))
            for name in files:
                os.makedirs(os.path.join(root, os.path.dirname(name)),
                            exist_ok=True)
                with open(os.path.join(root, name), "w") as f:
                    f.write(source)
            code, _, err = run_lint(root)
            self.assertEqual(code, 1)
            flagged = sorted(
                os.path.relpath(p, root)
                for p in re.findall(r"(\S+):\d+: PHL009: ", err))
            self.assertEqual(flagged,
                             [os.path.join("io", "frame_socket.h"),
                              os.path.join("io", "socket_point_stream.cc"),
                              os.path.join("service", "server.cc")])


class ShippedHeaderTest(unittest.TestCase):
    """PHL010: a src/ header needs an includer outside tests/."""

    FILES = {
        # Kept alive by another src/ file.
        "src/sketch/kept.h": "",
        "src/core/builder.cc": '#include "sketch/kept.h"\n',
        # Kept alive from each other shipped directory.
        "src/eval/from_bench.h": "",
        "bench/bench_x.cc": '#include "eval/from_bench.h"\n',
        "src/io/from_tools.h": "",
        "tools/cli.cc": '#include "io/from_tools.h"\n',
        "src/obs/from_examples.h": "",
        "examples/demo.cc": '#include "obs/from_examples.h"\n',
        "src/service/from_perfbench.h": "",
        "perfbench/main.cc": '#include "service/from_perfbench.h"\n',
        # Only its own .cc and a test include it.
        "src/sketch/orphan.h": "",
        "src/sketch/orphan.cc": '#include "sketch/orphan.h"\n',
        "tests/sketch/orphan_test.cc": '#include "sketch/orphan.h"\n',
        # Named in a comment only.
        "src/sketch/mentioned.h": "",
        "src/core/notes.cc": '// #include "sketch/mentioned.h"\n',
        # Outside src/: not checked.
        "tests/testing/helper.h": "",
    }

    def flagged(self, *targets):
        with tempfile.TemporaryDirectory() as root:
            for name, text in self.FILES.items():
                path = os.path.join(root, name)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as f:
                    f.write(text)
            code, _, err = run_lint(
                "--root", root, *[os.path.join(root, t) for t in targets])
            return code, sorted(
                os.path.relpath(p, root).replace(os.sep, "/")
                for p in re.findall(r"(\S+):\d+: PHL010: ", err))

    def test_src_only_run_sees_includers_elsewhere(self):
        # lint.privhp passes src/ alone; bench/, tools/, examples/ and
        # perfbench/ still count as includers.
        code, flagged = self.flagged("src")
        self.assertEqual(code, 1)
        self.assertEqual(flagged, ["src/sketch/mentioned.h",
                                   "src/sketch/orphan.h"])

    def test_tree_run_flags_the_same_headers(self):
        code, flagged = self.flagged(".")
        self.assertEqual(code, 1)
        self.assertEqual(flagged, ["src/sketch/mentioned.h",
                                   "src/sketch/orphan.h"])

    def test_shipped_headers_pass(self):
        code, flagged = self.flagged("src/sketch/kept.h", "src/eval",
                                     "src/io", "src/obs", "src/service")
        self.assertEqual((code, flagged), (0, []))


class ColumnLimitTest(unittest.TestCase):
    """PHL006 reads ColumnLimit from the nearest .clang-format."""

    def lint_line(self, config, columns):
        with tempfile.TemporaryDirectory() as root:
            with open(os.path.join(root, ".clang-format"), "w") as f:
                f.write(config)
            os.makedirs(os.path.join(root, "src"))
            path = os.path.join(root, "src", "wide.cc")
            with open(path, "w") as f:
                f.write("int x = " + "1" * (columns - 9) + ";\n")
            code, _, err = run_lint(path)
            return code, err

    def test_limit_comes_from_config(self):
        config = "BasedOnStyle: Google\nColumnLimit: 100\n"
        self.assertEqual(self.lint_line(config, 100)[0], 0)
        code, err = self.lint_line(config, 101)
        self.assertEqual(code, 1)
        self.assertIn("PHL006", err)
        self.assertIn("ColumnLimit of 100", err)

    def test_style_default_without_key(self):
        config = "BasedOnStyle: Google\n"
        self.assertEqual(self.lint_line(config, 80)[0], 0)
        self.assertEqual(self.lint_line(config, 81)[0], 1)

    def test_only_the_lint_corpus_is_pruned(self):
        # tests/tools/fixtures is skipped, as tools/format.sh skips it; a
        # `fixtures` directory anywhere else is linted.
        with tempfile.TemporaryDirectory() as root:
            with open(os.path.join(root, ".clang-format"), "w") as f:
                f.write("BasedOnStyle: Google\n")
            for sub in ("tests/tools/fixtures", "src/fixtures"):
                os.makedirs(os.path.join(root, sub))
                with open(os.path.join(root, sub, "wide.cc"), "w") as f:
                    f.write("int x = " + "1" * 90 + ";\n")
            code, _, err = run_lint("--root", root, root)
            self.assertEqual(code, 1)
            flagged = re.findall(r"(\S+):\d+: PHL006: ", err)
            self.assertEqual(
                [os.path.relpath(p, root) for p in flagged],
                [os.path.join("src", "fixtures", "wide.cc")])


class TidyConfigTest(unittest.TestCase):
    def test_repo_config_accepted(self):
        tidy = os.path.join(ROOT, ".clang-tidy")
        if not os.path.exists(tidy):
            self.skipTest(".clang-tidy not present")
        code, _, err = run_lint("--check-tidy-config", tidy)
        self.assertEqual(code, 0, err)

    def check_config(self, text):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".clang-tidy", delete=False) as f:
            f.write(text)
            path = f.name
        try:
            return run_lint("--check-tidy-config", path)
        finally:
            os.unlink(path)

    def test_undocumented_optout_rejected(self):
        code, _, err = self.check_config(
            "Checks: >\n"
            "  -*, bugprone-*,\n"
            "  -bugprone-easily-swappable-parameters\n"
            "WarningsAsErrors: '*'\n")
        self.assertEqual(code, 1)
        self.assertIn("no documented reason", err)

    def test_documented_optout_accepted(self):
        code, _, err = self.check_config(
            "#   -bugprone-easily-swappable-parameters: noisy on decoders\n"
            "Checks: >\n"
            "  -*, bugprone-*,\n"
            "  -bugprone-easily-swappable-parameters\n"
            "WarningsAsErrors: '*'\n")
        self.assertEqual(code, 0, err)

    def test_missing_warnings_as_errors_rejected(self):
        code, _, err = self.check_config("Checks: '-*,bugprone-*'\n")
        self.assertEqual(code, 1)
        self.assertIn("WarningsAsErrors", err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
