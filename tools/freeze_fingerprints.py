"""Regenerate src/lietriple/catalog_data.py with literal expected fingerprints."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lietriple.catalog import _definitions  # noqa: E402
from lietriple.classify import fingerprint  # noqa: E402

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
        ks = fp.g_killing
        lines.append(f'    "{label}": Fingerprint(\n')
        lines.append(f"        dim_m={fp.dim_m},\n")
        lines.append(f"        m_derived_dims={fp.m_derived_dims!r},\n")
        lines.append(f"        m_center_dim={fp.m_center_dim},\n")
        lines.append(f"        lts_radical_dim={fp.lts_radical_dim},\n")
        lines.append(f"        h_dim={fp.h_dim},\n")
        lines.append(f"        g_dim={fp.g_dim},\n")
        lines.append(f"        g_derived_dims={fp.g_derived_dims!r},\n")
        lines.append(f"        g_lcs_dims={fp.g_lcs_dims!r},\n")
        lines.append(
            f"        g_killing=KillingSignature({ks.positive}, {ks.negative}, {ks.zero}),\n"
        )
        lines.append(f"        g_radical_dim={fp.g_radical_dim},\n")
        lines.append(f"        g_center_dim={fp.g_center_dim},\n")
        lines.append(f"        canonical={fp.canonical},\n")
        lines.append("    ),\n")
    lines.append("}\n")
    return "".join(lines)


def main():
    OUT.write_text(render())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
