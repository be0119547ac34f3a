"""The Z search's outcomes, pinned: for n = 1..20 and omega in {0, 1/4, 1/2,
1, 2} with whole candidates, and n = 1..12 with rational candidates, the
chosen alpha_n (exactly), the scaled flag and gamma_n, or the exception type
and message. gamma_n is compared to 1e-13 relative, not bit for bit, since
LAPACK's last bits may differ between CPUs; for the same reason the value an
endpoint-zero refusal quotes, the associated function at t = 1 (rounding
noise of about 1e-9), is left out of the message comparison.

Regenerate the table with `PYTHONPATH=src python tests/test_z_golden.py`.
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from altpoly import zfun

TABLE = Path(__file__).parent / "golden" / "z_search_outcomes.json"
OMEGAS = ("0", "1/4", "1/2", "1", "2")
CANDIDATES = {"whole": (20, lambda: zfun.whole_candidates(64)),
              "rational": (12, lambda: zfun.rational_candidates(64))}


def _cases():
    for kind, (nmax, _) in CANDIDATES.items():
        for n in range(1, nmax + 1):
            for omega in OMEGAS:
                yield kind, n, omega


def _outcome(kind, n, omega) -> dict:
    entry = {"candidates": kind, "n": n, "omega": omega}
    try:
        spec = zfun.z_build(n, Fraction(omega), CANDIDATES[kind][1]())
    except Exception as exc:
        return entry | {"error": type(exc).__name__, "message": str(exc)}
    return entry | {"alpha_n": str(spec.alpha_n), "scaled": spec.scaled,
                    "gamma_n": spec.gamma_n}


def _table() -> dict:
    return {(e["candidates"], e["n"], e["omega"]): e
            for e in json.loads(TABLE.read_text())}


def _portable(entry: dict) -> dict:
    """The entry with the endpoint value of its message, if any, blanked."""
    if "message" in entry:
        entry["message"] = re.sub(r"condition: \S+$", "condition: <value>", entry["message"])
    return entry


def test_table_covers_every_case():
    assert sorted(_table()) == sorted(_cases())


@pytest.mark.parametrize("kind", list(CANDIDATES))
def test_z_build_outcomes_match_the_table(kind):
    table = _table()
    for case in _cases():
        if case[0] != kind:
            continue
        want, got = table[case], _outcome(*case)
        want_gamma, got_gamma = want.pop("gamma_n", None), got.pop("gamma_n", None)
        assert _portable(got) == _portable(want), case
        if want_gamma is not None:
            assert math.isclose(got_gamma, want_gamma, rel_tol=1e-13, abs_tol=0), case


if __name__ == "__main__":
    TABLE.write_text(json.dumps([_outcome(*case) for case in _cases()], indent=1) + "\n")
