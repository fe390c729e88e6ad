#!/usr/bin/env python3
"""Parses JSON artifacts with Python's json module, a parser that shares
no code with the workspace's own JSON writers and scanner.

    check_json.py FILE...           each FILE holds one JSON document
    check_json.py --lines FILE...   each non-blank line of each FILE is one

NaN and Infinity are rejected: Python's json module accepts them, JSON
does not. Exits non-zero naming the first file and line that fail.
"""

import json
import sys


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def main(argv):
    lines = argv[:1] == ["--lines"]
    paths = argv[1:] if lines else argv
    if not paths:
        sys.exit(__doc__)
    for path in paths:
        n = 0
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
            docs = enumerate(text.splitlines(), 1) if lines else [(1, text)]
            count = 0
            for n, doc in docs:
                if doc.strip():
                    json.loads(doc, parse_constant=reject_constant)
                    count += 1
        except ValueError as e:
            sys.exit(f"{path}:{n}: {e}")
        print(f"{path}: {count} JSON document(s)")


if __name__ == "__main__":
    main(sys.argv[1:])
