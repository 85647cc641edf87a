#!/usr/bin/env python3
"""Build the Talus benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is its own Cargo package
(perfbench/Cargo.toml) with path dependencies on the workspace crates;
it is built offline in release mode (into $CARGO_TARGET_DIR if set), then
the named workload runs in a child process pinned to one CPU (the
highest-numbered one this process may use). The child's standard output
passes through unchanged: its last line is the JSON result. Before it,
this script prints one line of host facts (nproc, commit, rustc, the CPU).

Why one CPU: client and server threads hand every request back and forth.
Spread over two vCPUs of a virtual machine, each hand-off wakes an idle
vCPU through the hypervisor; measured on a 2-vCPU guest, that made
`cluster_ops` rounds 2-4x slower and its p90 vary 2x between runs, while
pinned runs agreed within a few percent.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_facts():
    """nproc, commit and rustc version, as one dict."""
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "--short=12", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "commit": commit or "unknown",
        "rustc": command_output(["rustc", "--version"]) or "unknown",
    }


def build():
    """Builds the benchmark binary; returns its path or None."""
    argv = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST,
        "--message-format", "json-render-diagnostics",
    ]
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    except OSError as err:
        print(f"run.py: cannot start cargo: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"run.py: build failed (cargo exit {done.returncode})", file=sys.stderr)
        return None
    exe = None
    for line in done.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg.get("target", {}).get("name") == "talus-perfbench":
                exe = msg["executable"]
    return exe


def pin_to_one_cpu():
    """Restricts this process (and so its children) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main():
    exe = build()
    if exe is None:
        return 1
    facts = host_facts()
    facts["cpu"] = pin_to_one_cpu()
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()), flush=True)
    done = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
