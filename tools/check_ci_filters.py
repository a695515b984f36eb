#!/usr/bin/env python3
"""Fail when an alternative of a ctest -R filter in the CI workflow
selects no test, so a renamed or deleted suite cannot leave a job
quietly running fewer tests than its filter names.

Usage: tools/check_ci_filters.py BUILD_DIR [WORKFLOW]

BUILD_DIR must be a full build (every test target built, so gtest
discovery has listed every test). WORKFLOW defaults to
.github/workflows/ci.yml.
"""
import re
import subprocess
import sys


def selected(build, alternative):
    listing = subprocess.run(
        ["ctest", "--test-dir", build, "-N", "-R", alternative],
        capture_output=True, text=True, check=True).stdout
    return int(re.search(r"Total Tests: (\d+)", listing).group(1))


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    build = sys.argv[1]
    workflow = sys.argv[2] if len(sys.argv) == 3 else ".github/workflows/ci.yml"
    with open(workflow) as f:
        filters = re.findall(r'-R\s+"([^"]+)"', f.read())
    if not filters:
        sys.exit(f"no ctest -R filter found in {workflow}")
    dead = [alternative
            for pattern in filters
            for alternative in pattern.split("|")
            if selected(build, alternative) == 0]
    for alternative in dead:
        print(f"{workflow}: -R alternative '{alternative}' selects no test")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
