#!/usr/bin/env python3
"""Sweep every small lignification contest against the independent walk
interpreter and report agreement.

    python3 scripts/contest_sweep.py [--max-sprouts 3] [--max-vetoes 2] [--voters 3]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from contest_driver import enumerate_cases, run_case  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-sprouts", type=int, default=3)
    parser.add_argument("--max-vetoes", type=int, default=2)
    parser.add_argument("--voters", type=int, default=3)
    parser.add_argument("--show-first-mismatch", action="store_true")
    args = parser.parse_args()

    cases = list(enumerate_cases(args.max_sprouts, args.max_vetoes, args.voters))
    print(f"enumerated {len(cases)} contest cases")
    start = time.perf_counter()
    mismatches = 0
    for index, case in enumerate(cases):
        real, oracle = run_case(case)
        if real != oracle:
            mismatches += 1
            if args.show_first_mismatch and mismatches == 1:
                print("MISMATCH", case)
                print("  real  ", real)
                print("  oracle", oracle)
        if (index + 1) % 2000 == 0:
            print(f"  {index + 1}/{len(cases)} checked")
    elapsed = time.perf_counter() - start
    print(f"{len(cases) - mismatches}/{len(cases)} agree ({elapsed:.1f}s)")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
