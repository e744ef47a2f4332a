#!/usr/bin/env python3
"""Regenerate src/npsurf/data/examples.json from closed-form formulas.

Deliberately independent of the npsurf package: every pinned number below is
written out from the closed-form expressions for each family, so the fixture
file can catch regressions in the lattice arithmetic rather than echo them.

Provenance tags: [PAPER] = stated in the source table for the family,
[DERIVED] = follows from the stated data by a short computation,
[TRIVIAL] = definitional bookkeeping.
"""

from __future__ import annotations

import json
import pathlib

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "npsurf" / \
    "data" / "examples.json"


def inst(params: dict, claims: dict, status: str, p: int | None,
         ample: bool | None, annotations: dict | None = None) -> dict:
    entry = {"params": params, "claims": claims,
             "np": {"status": status, "p": p}, "ample": ample}
    if annotations:
        entry["annotations"] = annotations
    return entry


def key_of(params: dict) -> str:
    if not params:
        return "-"
    return ",".join(f"{k}={v}" for k, v in params.items())


def family(instances: list[dict], provenance: dict) -> dict:
    return {"instances": {key_of(i["params"]): i for i in instances},
            "provenance": provenance}


def build() -> dict:
    families: dict[str, dict] = {}

    families["1.11"] = family(
        [inst({}, {"K2": 9, "A2": 1, "-K.A": 3, "residual(K + 3A)": 0},
              "ExactMax", 0, True)],
        {"K2": "[TRIVIAL]", "A2": "[PAPER]", "-K.A": "[PAPER]",
         "residual(K + 3A)": "[PAPER]", "np": "[PAPER]",
         "ample": "[DERIVED]"})

    families["1.12"] = family(
        [inst({"e": e},
              {"K2": 8, "A2": e + 2, "-K.A": e + 4,
               "residual(K + 2A - e*fiber)": 0, "oracle_min(K + 2A)": 0},
              "ExactMax", e + 1, True)
         for e in range(0, 9)],
        {"K2": "[TRIVIAL]", "A2": "[PAPER]", "-K.A": "[PAPER]",
         "residual(K + 2A - e*fiber)": "[PAPER]",
         "oracle_min(K + 2A)": "[DERIVED]", "np": "[PAPER]",
         "ample": "[DERIVED]"})

    families["1.13"] = family(
        [inst({"l": l},
              {"K2": 9 - l, "A2": 9 - l, "-K.A": 9 - l, "residual(K + A)": 0},
              "ExactMax", 6 - l, None)
         for l in range(2, 7)],
        {"K2": "[TRIVIAL]", "A2": "[TRIVIAL]", "-K.A": "[TRIVIAL]",
         "residual(K + A)": "[TRIVIAL]", "np": "[PAPER]", "ample": "[PAPER]"})

    families["1.14"] = family(
        [inst({}, {"K2": 2, "A2": 2, "-K.A": 2, "residual(K + 2A - (-K))": 0},
              "NotN0", None, None)],
        {"K2": "[TRIVIAL]", "A2": "[TRIVIAL]", "-K.A": "[TRIVIAL]",
         "residual(K + 2A - (-K))": "[TRIVIAL]", "np": "[PAPER]",
         "ample": "[PAPER]"})

    families["1.15"] = family(
        [inst({}, {"K2": 1, "A2": 1, "-K.A": 1,
                   "residual(K + 3A - (-2K))": 0},
              "NotN0", None, None)],
        {"K2": "[TRIVIAL]", "A2": "[TRIVIAL]", "-K.A": "[TRIVIAL]",
         "residual(K + 3A - (-2K))": "[TRIVIAL]", "np": "[PAPER]",
         "ample": "[PAPER]"})

    families["1.16"] = family(
        [inst({"e": e, "n": n},
              {"K2": n, "A2": n + 4, "-K.A": n + 2,
               "residual(K + A - pullback(fiber))": 0, "(K+A)^2": 0},
              *(("ExactMax", n - 1) if n >= 1 else ("NotN0", None)), True)
         for e in range(0, 3) for n in range(-1, 9)],
        {"K2": "[PAPER]", "A2": "[PAPER]", "-K.A": "[PAPER]",
         "residual(K + A - pullback(fiber))": "[PAPER]",
         "(K+A)^2": "[DERIVED]", "np": "[PAPER]", "ample": "[DERIVED]"})

    families["1.17"] = family(
        [inst({"l": l},
              {"K2": 8 - l, "A2": 15 - l, "-K.A": 11 - l,
               "residual(K + A - pullback(C0 + fiber))": 0, "-K.(K+A)": 3},
              *(("ExactMax", 8 - l) if l <= 8 else ("NotN0", None)), True)
         for l in range(0, 11)],
        {"K2": "[PAPER]", "A2": "[PAPER]", "-K.A": "[PAPER]",
         "residual(K + A - pullback(C0 + fiber))": "[PAPER]",
         "-K.(K+A)": "[DERIVED]", "np": "[PAPER]", "ample": "[DERIVED]"})

    families["1.18"] = family(
        [inst({}, {"K2": 0, "A2": 3, "-K.A": 1,
                   "residual(K + 2A - (2*section + 3*fiber))": 0,
                   "(K+2A).fiber": 2},
              "NotN0", None, True)],
        {"K2": "[PAPER]", "A2": "[PAPER]", "-K.A": "[PAPER]",
         "residual(K + 2A - (2*section + 3*fiber))": "[PAPER]",
         "(K+2A).fiber": "[DERIVED]", "np": "[PAPER]", "ample": "[DERIVED]"})

    families["1.19"] = family(
        [inst({"n": n},
              {"K2": n, "A2": 2 - n, "-K.A": 1,
               "residual(K + A - pullback((k-2)*fiber2))": 0, "(K+A)^2": 0},
              "NotN0", None, True)
         for n in range(-1, -20, -2)],
        {"K2": "[PAPER]", "A2": "[PAPER]", "-K.A": "[PAPER]",
         "residual(K + A - pullback((k-2)*fiber2))": "[PAPER]",
         "(K+A)^2": "[DERIVED]", "np": "[PAPER]", "ample": "[DERIVED]"})

    families["1.20"] = family(
        [inst({"n": n},
              {"K2": n, "A2": 1 - 2 * n, "-K.A": 1,
               "residual(K + A - (pullback(fiber1 + (k-2)*fiber2) - E1))": 0,
               "(K+A).(fiber2 through first point)": 0},
              "NotN0", None, True)
         for n in range(-2, -21, -2)],
        {"K2": "[PAPER]", "A2": "[PAPER]", "-K.A": "[PAPER]",
         "residual(K + A - (pullback(fiber1 + (k-2)*fiber2) - E1))":
             "[PAPER]",
         "(K+A).(fiber2 through first point)": "[DERIVED]", "np": "[PAPER]",
         "ample": "[DERIVED]"})

    families["Obs1.4"] = family(
        [inst({"n": n},
              {"K2": -1, "-K.L": 2 * n - 5, "chi(-K - L)": 3 - n,
               "residual(-K - L - pullback((2-n)*fiber2))": 0},
              "AtLeast", 2 * n - 8, None,
              annotations={"h0(-K)": 0, "h1(-K)": 1, "h1(-K - L)": n - 3})
         for n in range(4, 13)],
        {"K2": "[TRIVIAL]", "-K.L": "[PAPER]", "chi(-K - L)": "[DERIVED]",
         "residual(-K - L - pullback((2-n)*fiber2))": "[DERIVED]",
         "np": "[PAPER]", "ample": "[PAPER]", "annotations": "[PAPER]"})

    return {"version": 1, "generated_by": "tools/make_fixtures.py",
            "families": families}


def main() -> None:
    table = build()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    total = sum(len(f["instances"]) for f in table["families"].values())
    print(f"wrote {OUT} ({total} instances)")


if __name__ == "__main__":
    main()
