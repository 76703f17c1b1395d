"""Regenerate src/lietriple/catalog_data.py with literal expected fingerprints."""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lietriple.catalog import _definitions  # noqa: E402
from lietriple.classify import fingerprint  # noqa: E402
from lietriple.lie import KillingSignature  # noqa: E402

HEADER = '''"""Expected invariant fingerprints of the catalog entries, frozen.

Generated by tools/freeze_fingerprints.py; the test suite recomputes every
fingerprint and compares against this table.
"""

from .classify import Fingerprint
from .lie import KillingSignature

EXPECTED_FINGERPRINTS = {
'''


OUT = Path(__file__).resolve().parents[1] / "src" / "lietriple" / "catalog_data.py"


def render() -> str:
    """The text of catalog_data.py for the current catalog definitions."""
    lines = [HEADER]
    for label, system, _ref, _notes in _definitions():
        fp = fingerprint(system)
        lines.append(f'    "{label}": Fingerprint(\n')
        for field in dataclasses.fields(fp):
            value = getattr(fp, field.name)
            text = f"KillingSignature{value.as_tuple()}" if isinstance(value, KillingSignature) else repr(value)
            lines.append(f"        {field.name}={text},\n")
        lines.append("    ),\n")
    lines.append("}\n")
    return "".join(lines)


def main():
    OUT.write_text(render())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
