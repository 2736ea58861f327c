"""Result digests: a hash of a query's rows, insensitive to row order.

Floats are written with 10 significant digits, so a different summation
order (parallel scans, a CF/VM plan split) cannot change a digest while a
wrong value still does.
"""

from __future__ import annotations

import hashlib
import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_digests.json")


def _cell(value: object) -> str:
    if value is None:
        return "\x00null"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def rows_digest(rows: list[tuple]) -> str:
    lines = sorted("\x1f".join(_cell(value) for value in row) for row in rows)
    return hashlib.sha256("\x1e".join(lines).encode("utf-8")).hexdigest()[:16]


def text_key(text: str) -> str:
    """Short stable key of a SQL text or NL question."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class DigestCheck:
    """Compares result digests with the committed expectations."""

    def __init__(self, expected: dict[str, str]) -> None:
        self._expected = expected
        self.mismatches: list[str] = []

    def check(self, text: str, rows: list[tuple]) -> bool:
        want = self._expected.get(text_key(text))
        got = rows_digest(rows)
        if got == want:
            return True
        reason = "no expected digest" if want is None else f"digest {got} != {want}"
        self.mismatches.append(f"{reason}: {text[:120]}")
        return False
