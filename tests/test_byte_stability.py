"""The canonical reports stay byte-identical: calls replayed from the
benchmark's digest table, run in-process through ``cli.main``.  Every call
but ``verify`` is replayed, on the packaged fixtures and on the rank-3
models, which resolve through ``CKS_FIXTURES``; of ``verify``, one call per
model at seed 0.

``bench/digests.json`` maps each call (``"<verb> <model> <args...>"``) to
the first 16 hex digits of the SHA-256 of its standard output.  It is only
read here; ``python3 bench/make_digests.py`` regenerates it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
from importlib import resources

import pytest

from ckstab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
PACKAGED = {p.name[:-len(".json")]
            for p in (resources.files("ckstab") / "fixtures").iterdir()
            if p.name.endswith(".json")}


def _digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]


@pytest.fixture(autouse=True)
def packaged_fixtures(monkeypatch):
    # bare model names must resolve to the packaged corpus
    monkeypatch.delenv("CKS_FIXTURES", raising=False)


# the packaged calls of each verb replayed here, and their number
PACKAGED_CALLS = {"ding": 132, "destabilize": 8, "reduced-jnorm": 1030,
                  "lct": 396, "delta": 8, "reduced-delta": 46, "jnorm": 140,
                  "futaki": 8}
# the same for the calls on the rank-3 benchmark models
RANK3_CALLS = {"delta": 3, "destabilize": 2, "futaki": 2, "jnorm": 24,
               "lct": 32, "reduced-jnorm": 64}


@pytest.mark.parametrize("verb", sorted(PACKAGED_CALLS))
def test_packaged_reports_match_digests(verb):
    calls = [key for key in DIGESTS
             if key.split()[0] == verb and key.split()[1] in PACKAGED]
    assert len(calls) == PACKAGED_CALLS[verb]
    changed = [key for key in calls if _digest(key.split()) != DIGESTS[key]]
    assert changed == []


@pytest.mark.parametrize("verb", sorted(RANK3_CALLS))
def test_rank3_reports_match_digests(verb, rank3_dir, monkeypatch):
    monkeypatch.setenv("CKS_FIXTURES", str(rank3_dir))
    calls = [key for key in DIGESTS
             if key.split()[0] == verb and key.split()[1] not in PACKAGED]
    assert len(calls) == RANK3_CALLS[verb]
    changed = [key for key in calls if _digest(key.split()) != DIGESTS[key]]
    assert changed == []


@pytest.mark.parametrize("model", ["p2_steps", "bl1p2_halves"])
def test_verify_report_matches_digest(model):
    key = f"verify {model} --samples=100 --seed=0"
    assert _digest(key.split()) == DIGESTS[key]
