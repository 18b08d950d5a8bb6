#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_bench.py

Builds like run.py does, then checks that the same seed gives the same
request stream, that the stream keeps the graph's size and acyclic
citations, and that a smoke-sized run of every workload passes its
correctness check and prints every metric BENCHMARK.json names.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BUILD_DIR = os.path.join(
    os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
    "perfbench")
BINARIES = None


def binaries():
    global BINARIES
    if BINARIES is None:
        BINARIES = run.build(BUILD_DIR)
        assert BINARIES is not None, "build failed"
    return BINARIES


def dump(workload, seed, count):
    out = subprocess.run([binaries()[0], "--workload", workload, "--seed",
                          str(seed), "--dump-stream", str(count)],
                         capture_output=True, check=True)
    return out.stdout


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    return out.returncode, out.stdout.strip().splitlines()


class StreamTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in WORKLOADS:
            a = dump(w, 7, 3000)
            self.assertEqual(a, dump(w, 7, 3000), w)
            self.assertNotEqual(a, dump(w, 8, 3000), w)

    def test_writes_keep_size_and_acyclic_citations(self):
        for w in WORKLOADS:
            edges = set()
            nodes = 0
            loaded = None
            for line in dump(w, 5, 5000).decode().splitlines():
                try:
                    req = json.loads(line)
                except ValueError:
                    continue  # a deliberately malformed line
                op = req.get("op")
                key = (req.get("from"), req.get("to"), req.get("label"))
                if "id" not in req:  # set-up: load and warm
                    if op == "add_node":
                        nodes += 1
                    elif op == "insert_edge":
                        edges.add(key)
                    continue
                if loaded is None:
                    loaded = len(edges)
                self.assertNotEqual(op, "add_node", w)
                if op == "insert_edge" and "label" in req:
                    self.assertNotIn(key, edges, w)
                    edges.add(key)
                    if req["label"] == "cites":
                        self.assertGreater(req["from"], req["to"], w)
                elif op == "delete_edge":
                    self.assertIn(key, edges, w)
                    edges.remove(key)
            self.assertGreater(nodes, 0, w)
            self.assertEqual(len(edges), loaded, w)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, names):
        code, lines = smoke(workload, trace)
        self.assertEqual(code, 0, lines[-5:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], workload)
        self.assertEqual(result["failed"], 0, workload)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names), workload)
        for name, unit in names.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)

    def test_untraced(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            self.check(w, 0, names)

    def test_traced(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            self.check(w, 1, names)


if __name__ == "__main__":
    unittest.main()
