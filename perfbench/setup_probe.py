"""One fresh start of a workload: import mwlab and load its systems.

run.py times each start from process launch to the line "ready"; arguments
are the checkout root and the system tokens (bundled names or JSON paths).
"""

import sys


def main(argv):
    root, tokens = argv[0], argv[1:]
    sys.path.insert(0, f"{root}/src")
    import mwlab
    import mwlab.cli  # noqa: F401  the CLI workloads drive it
    for token in tokens:
        if token.endswith(".json"):
            mwlab.parse_spec(token)
        else:
            mwlab.load_bundled(token)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
