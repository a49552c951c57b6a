#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read_resident --seed 1 --seconds 12 --trace 0

The Go build cache, temporary files and the binary stay under
.bench_build/ in the checkout (or under $CARGO_TARGET_DIR when it is set to
a directory inside it). Arguments are passed to the benchmark unchanged;
its exit code is this script's exit code.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.abspath(os.path.join(ROOT, d))
    if os.path.commonpath([d, ROOT]) != ROOT:
        d = os.path.join(ROOT, ".bench_build")
    return d


def commit():
    """The git commit when the checkout is a repository (with "-dirty" when
    files differ from it); otherwise a digest of the Go sources and module
    files, which identifies the code as well."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30)
            if head.returncode == 0 and dirty.returncode == 0:
                return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or \
            not os.path.isfile(os.path.join(BENCH, "go.mod")):
        print("perfbench: run from the root of a checkout holding go.mod "
              "and perfbench/go.mod", file=sys.stderr)
        return 2
    out = build_dir()
    home = os.path.join(out, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": home,
        "HOME": home,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run_env = dict(os.environ)
    run_env["PERFBENCH_COMMIT"] = commit()
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=run_env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
