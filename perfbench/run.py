#!/usr/bin/env python3
"""The repository benchmark: kgq-serve end to end, plus a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 15 --trace 0

Builds the kgq library, the kgq-serve binary and the benchmark client
`kgqbench` from source in Release mode (into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when it is unset), then runs the client. The last
line of standard output is the result object; see perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures and builds; returns (client, server) paths or None."""
    for needed in ("src/CMakeLists.txt", "tools/kgq_serve_main.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing; run from a kgq checkout",
                  file=sys.stderr)
            return None
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", "4", "--target", "kgqbench",
             "kgq-serve"],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                print(f"perfbench: build failed, see {log_path}", file=sys.stderr)
                return None
    return (os.path.join(build_dir, "kgqbench"),
            os.path.join(build_dir, "kgq-serve"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binaries = build(os.path.join(target, "perfbench"))
    if binaries is None:
        return 1
    client, server = binaries

    env = dict(os.environ, KGQBENCH_SOURCE_ID=source_id())
    env.pop("KGQ_OBS", None)  # the shipping configuration: obs enabled
    cmd = [client, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", server, "--out", ".bench_out"]
    # Own process group, so a timeout stops the server child as well.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith('{"correct"'):
        print("perfbench: kgqbench did not produce a result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
