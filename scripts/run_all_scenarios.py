#!/usr/bin/env python3
"""Run every bundled scenario and drop artifacts under out/<name>/."""

import sys

from ensim import scenarios
from ensim.cli import main as cli_main


def main():
    base = sys.argv[1] if len(sys.argv) > 1 else "out"
    for name in sorted(scenarios.BUILDERS):
        print(f"== {name} ==")
        rc = cli_main(["run", name, "--out", f"{base}/{name}"])
        if rc != 0:
            sys.exit(rc)


if __name__ == "__main__":
    main()
