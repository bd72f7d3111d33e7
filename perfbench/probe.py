"""Oversized-input probe: compile the expression on stdin in this fresh process.

Prints one outcome word and exits 0 when the compile succeeded, 3 on a
typed ``repro`` error, 4 on ``RecursionError`` and 5 on any other
exception; death by signal shows as a negative return code to the
parent.  The recursion limit is left at the interpreter's default.
"""

import sys


def main() -> int:
    text = sys.stdin.read()
    import repro

    try:
        pattern = repro.compile(text, dialect="named")
    except repro.ReproError as error:
        print(f"typed-error {type(error).__name__}")
        return 3
    except RecursionError:
        print("RecursionError")
        return 4
    except Exception as error:  # noqa: BLE001 - the probe reports any crash
        print(f"exception {type(error).__name__}")
        return 5
    print("deterministic" if pattern.is_deterministic else "non-deterministic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
