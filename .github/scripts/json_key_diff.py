"""Say where two JSON documents differ, key path by key path.

Usage::

    python3 .github/scripts/json_key_diff.py EXPECTED ACTUAL

Prints the first 20 key paths at which the documents differ, each
with the expected and the actual value, then how many differ in all.
Exits 1 when any differs, and 0 when the two parse to the same JSON
value, in which case the bytes differ only in layout.
The CI byte pins run it after a failed ``cmp`` and fail either way.
"""

import json
import sys

#: How many differing key paths to print.
LIMIT = 20

#: Stands in for a key or list item one document does not have.
_MISSING = object()


def _show(value) -> str:
    return "(missing)" if value is _MISSING else json.dumps(value)


def _same(expected, actual) -> bool:
    # 1, 1.0 and True compare equal in Python but not as bytes.
    return type(expected) is type(actual) and expected == actual


def differences(expected, actual, path="$"):
    """Yield ``(path, expected, actual)`` for every differing leaf."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            yield from differences(
                expected.get(key, _MISSING), actual.get(key, _MISSING),
                f"{path}[{json.dumps(key)}]",
            )
    elif isinstance(expected, list) and isinstance(actual, list):
        for index in range(max(len(expected), len(actual))):
            yield from differences(
                expected[index] if index < len(expected) else _MISSING,
                actual[index] if index < len(actual) else _MISSING,
                f"{path}[{index}]",
            )
    elif not _same(expected, actual):
        yield path, expected, actual


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        expected = json.load(handle)
    with open(argv[2]) as handle:
        actual = json.load(handle)
    found = 0
    for path, want, got in differences(expected, actual):
        found += 1
        if found <= LIMIT:
            print(f"{path}: expected {_show(want)}, got {_show(got)}")
    if found:
        print(f"{found} key path(s) differ between {argv[1]} and {argv[2]}")
        return 1
    print(f"{argv[1]} and {argv[2]} parse to the same JSON: any byte "
          "difference is layout only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
