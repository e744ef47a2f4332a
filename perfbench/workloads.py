"""The benchmark's workloads: seeded inputs, the timed call, and the checks.

Every workload is a closed loop with one caller: the next request is sent
only after the previous one returns.  Inputs come in batches drawn from a
stream that depends only on the seed, so batch ``i`` of a seed is the same on
every run and on every commit.  ``check`` is the correctness gate for one
output; ``digest_item`` gives the bytes that the committed per-segment digests
(``expected.json``) are taken over.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from npsurf import api, families, fano, selftest


@dataclass
class Request:
    payload: object          # what the timed call receives
    meta: dict               # what the checks need to know about it


class Workload:
    name: str
    # arguments after ``python -m npsurf`` for the cold launch, and its stdin
    setup_argv: tuple[str, ...]
    setup_stdin: str | None = None
    # batches in each phase of a traced run (fixed, so counts repeat exactly)
    trace_batches: int
    # batches per committed digest segment, or None when outputs are not pinned
    digest_every: int | None = None

    def stream(self, seed: int):
        """Yield the seed's batches, each a list of ``Request``."""
        raise NotImplementedError

    def call(self, payload):
        return api.evaluate(payload)

    def check(self, req: Request, out) -> bool:
        raise NotImplementedError

    def check_setup(self, out: dict) -> bool:
        raise NotImplementedError

    def digest_item(self, out) -> bytes:
        raise NotImplementedError


# --- verify-sweep ------------------------------------------------------------


def _sweep_instances() -> list[tuple[str, dict]]:
    return [(fid, dict(params)) for fid in families.FAMILY_IDS
            for params in families.FAMILY_SWEEPS[fid]]


class VerifySweep(Workload):
    """Passes over all 88 family instances through ``verify_example``."""

    name = "verify-sweep"
    setup_argv = ("--json", "example", "verify", "1.17", "--param", "l=4")
    trace_batches = 20

    def __init__(self):
        self.instances = _sweep_instances()

    def stream(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            order = list(self.instances)
            rng.shuffle(order)
            yield [Request({"op": "verify_example",
                            "args": {"id": fid, "params": params,
                                     "strict": False}},
                           {"id": fid, "params": params})
                   for fid, params in order]

    def check(self, req, out) -> bool:
        v = out["verdict"]
        return (v["passed"] is True and v["family"] == req.meta["id"]
                and v["params"] == req.meta["params"])

    def check_setup(self, out) -> bool:
        return out["verdict"]["passed"] is True


# --- oracle-wide -------------------------------------------------------------

PERTURBED_FAMILIES = ("1.16", "1.17", "1.19", "1.20")
UNPERTURBED_FAMILIES = ("1.11", "1.12", "1.18")
BOX_BANDS = ((24, 33), (34, 43), (44, 53), (54, 64))


def _dealer(rng: random.Random, items):
    """Yield ``items`` forever, in a fresh seeded order on every pass."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


class OracleWide(Workload):
    """Distinct ``ample_oracle`` requests on divisor JSON, boxes 24..64.

    Each batch holds one perturbed request per (family, box band) plus one
    unperturbed request per band.  A perturbation moves one or two
    exceptional coefficients by +-1, as ``mutate_polarization`` does.

    An oracle call costs about box^2 times a rank term, so the instance of
    each family and the box of each band are dealt from shuffled cycles
    that are the same for every seed, rather than drawn independently:
    every run covers ranks and boxes evenly, and its latency quantiles do
    not hinge on a lucky draw.  The seed draws the perturbations, and
    perturbed requests never repeat within a seed.  The 451 unperturbed
    (instance, box) pairs are dealt the same way, so they repeat only after
    all have been sent.
    """

    name = "oracle-wide"
    setup_argv = ("--json", "--eval-file", "-")
    trace_batches = 6
    digest_every = 1

    def __init__(self):
        self.perturbed = {
            fid: [ex for ex in (families.build_example(fid, p)
                                for p in families.FAMILY_SWEEPS[fid])
                  if (ex.surface.l or 0) >= 1]
            for fid in PERTURBED_FAMILIES}
        self.unperturbed = [
            families.build_example(fid, p) for fid in UNPERTURBED_FAMILIES
            for p in families.FAMILY_SWEEPS[fid]]
        ex = families.mutate_polarization(
            families.build_example("1.20", {"n": -20}), 0, -1)
        self.setup_stdin = json.dumps(
            {"op": "ample_oracle",
             "args": {"divisor": ex.A.to_json(), "box": 40}})

    @staticmethod
    def _request(ex, box: int, perturbed: bool) -> Request:
        cert_valid = families.nakai_certificate(ex).valid
        return Request({"op": "ample_oracle",
                        "args": {"divisor": ex.A.to_json(), "box": box}},
                       {"box": box, "perturbed": perturbed,
                        "cert_valid": cert_valid})

    @staticmethod
    def _perturb(rng: random.Random, ex):
        fid, l = ex.id, ex.surface.l
        moves = sorted(rng.sample(range(l), min(l, rng.choice((1, 2)))))
        key = [fid, ex.params]
        for i in moves:
            delta = rng.choice((1, -1))
            ex = families.mutate_polarization(ex, i, delta)
            key.append((i, delta))
        return ex, tuple(key)

    def stream(self, seed: int):
        # the design is the same for every seed; the seed picks perturbations
        design = random.Random(self.name)
        instances = {fid: _dealer(design, pool)
                     for fid, pool in self.perturbed.items()}
        boxes = {band: _dealer(design, range(band[0], band[1] + 1))
                 for band in BOX_BANDS}
        plain = _dealer(design, [(ex, box) for ex in self.unperturbed
                                 for box in range(BOX_BANDS[0][0],
                                                  BOX_BANDS[-1][1] + 1)])
        rng = random.Random(f"{self.name}/{seed}")
        seen: set = set()
        while True:
            batch = []
            for band in BOX_BANDS:
                for fid in PERTURBED_FAMILIES:
                    for attempt in itertools.count():
                        if attempt % 8 == 0:
                            # this instance and box may have no fresh
                            # perturbation left: deal the next ones
                            ex, box = next(instances[fid]), next(boxes[band])
                        mutant, key = self._perturb(rng, ex)
                        if (key, box) not in seen:
                            seen.add((key, box))
                            break
                    batch.append(self._request(mutant, box, True))
                ex, box = next(plain)
                batch.append(self._request(ex, box, False))
            rng.shuffle(batch)
            yield batch

    def check(self, req, out) -> bool:
        v = out["verdict"]
        if v["box"] != req.meta["box"] or v["candidates"] < 1:
            return False
        ample = v["min_value"] >= 1
        if req.meta["perturbed"]:
            # the certificate is conservative for the oracle's model
            return ample or not req.meta["cert_valid"]
        return ample == req.meta["cert_valid"]

    def check_setup(self, out) -> bool:
        return out["verdict"]["box"] == 40

    def digest_item(self, out) -> bytes:
        v = out["verdict"]
        return json.dumps([v["min_value"], v["argmin"], v["candidates"]],
                          separators=(",", ":")).encode()


# --- criteria-grid -----------------------------------------------------------

SUMMAND_TAGS = ("minus_k", "minus_2k", "minus_3k", "other")
EXCLUDE_TAGS = ("minus_k", "minus_2k", "minus_3k", "conic_fibration")
# the keys verdicts carry at the seed commit; digests ignore keys added later
DIGEST_KEYS = frozenset({
    "status", "p", "justification", "assumed", "reason", "value", "case",
    "bound", "exception", "exact", "n", "direction", "boundary", "m_min",
    "m_max", "ksq", "triple_equivalence", "np_iff_ample", "minus_k_exact_max",
    "needed",
})


def _pick_ksq(rng: random.Random) -> int:
    """K^2 with each regime of the tables equally likely: 9, 8, 1..7, 0, -1
    and -30..-2."""
    return rng.choice([9, 8, 0, -1, rng.randint(1, 7), rng.randint(-30, -2)])


def _pairing(kind: str, e: int, a, b) -> int:
    """Intersection pairing in the standard basis, computed independently."""
    if kind == "P2":
        total, br = a[0] * b[0], 1
    else:
        total, br = -e * a[0] * b[0] + a[0] * b[1] + a[1] * b[0], 2
    return total - sum(x * y for x, y in zip(a[br:], b[br:]))


def _canonical(kind: str, e: int, rank: int) -> list[int]:
    base = [-3] if kind == "P2" else [-2, -(e + 2)]
    return base + [1] * (rank - len(base))


def _minus_k_degree(divisor: dict) -> int:
    kind, e, coeffs = divisor["kind"], divisor.get("e", 0), divisor["coeffs"]
    return -_pairing(kind, e, _canonical(kind, e, len(coeffs)), coeffs)


def _np_reference(t: int, flags: dict) -> tuple:
    """Thm 1.3 (anticanonical, an equivalence) and Thm 1.2 (bpf)."""
    if flags.get("anticanonical"):
        return ("ExactMax", t - 3) if t >= 3 else ("NotN0", None)
    if flags.get("bpf") and t >= 3:
        return ("AtLeast", t - 3)
    return ("NotApplicable", None)


def _curve_reference(genus: int, degree: int) -> tuple:
    if genus == 1:
        return ("ExactMax", degree - 3) if degree >= 3 else ("NotN0", None)
    if degree >= 2 * genus + 1:
        return ("AtLeast", degree - 2 * genus - 1)
    return ("NotApplicable", None)


def _project(value):
    if isinstance(value, dict):
        return {k: _project(v) for k, v in value.items() if k in DIGEST_KEYS}
    return value


class CriteriaGrid(Workload):
    """Uniform over the non-search ops, all in-domain, through ``evaluate``."""

    name = "criteria-grid"
    setup_argv = ("--json", "classify", "--t", "7", "--ample",
                  "--anticanonical")
    trace_batches = 100
    digest_every = 10
    rounds = 20            # each batch sends every op this many times

    def __init__(self):
        self.polarizations = []
        for fid, params in _sweep_instances():
            ex = families.build_example(fid, params)
            self.polarizations.append((ex.A.to_json(), dict(ex.np_flags)))
        self.ops = {
            "adjoint_very_ample": self._adjoint_very_ample,
            "min_kA_bound": self._min_kA_bound,
            "adjoint_np_min_n": self._adjoint_np_min_n,
            "reider_np": self._reider_np,
            "lemma_125_bound": self._lemma_125_bound,
            "verify_inequality_chain": self._verify_inequality_chain,
            "ampleness_termination": self._ampleness_termination,
            "thm_121_equivalence": self._thm_121_equivalence,
            "curve_np_reference": self._curve_np_reference,
            "np_classify": self._np_classify,
            "bpf_check": self._bpf_check,
            "primitive_np": self._primitive_np,
            "multiples_np_surface": self._multiples_np_surface,
            "multiples_np_fano": self._multiples_np_fano,
            "index_nm3_n0": self._index_nm3_n0,
            "index_nm3_np": self._index_nm3_np,
            "intersect": self._intersect,
            "k_squared": self._k_squared,
            "euler_characteristic": self._euler_characteristic,
            "sectional_genus": self._sectional_genus,
            "signature": self._signature,
        }

    def stream(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        names = sorted(self.ops)
        while True:
            batch = []
            for _ in range(self.rounds):
                for op in names:
                    args, meta = self.ops[op](rng)
                    meta["op"] = op
                    batch.append(Request({"op": op, "args": args}, meta))
            rng.shuffle(batch)
            yield batch

    # --- argument generators: each returns (args, meta) -------------------

    @staticmethod
    def _adjoint_very_ample(rng):
        tags = [rng.choice(SUMMAND_TAGS) for _ in range(rng.randint(1, 6))]
        return {"ksq": _pick_ksq(rng), "summands": tags}, {}

    @staticmethod
    def _min_kA_bound(rng):
        ksq = _pick_ksq(rng)
        args = {"ksq": ksq, "summand": rng.choice(SUMMAND_TAGS),
                "conic_fibration": rng.random() < 0.5}
        if ksq == 8 and rng.random() < 0.5:
            args["e"] = rng.randint(0, 100)
        return args, {}

    @staticmethod
    def _adjoint_np_min_n(rng):
        ksq = _pick_ksq(rng)
        args = {"ksq": ksq, "p": rng.randint(0, 100)}
        if ksq == 8 and rng.random() < 0.5:
            args["e"] = rng.randint(0, 100)
        if 1 <= ksq <= 7:
            args["exclude"] = [t for t in EXCLUDE_TAGS if rng.random() < 0.5]
        return args, {}

    @staticmethod
    def _reider_np(rng):
        ksq = _pick_ksq(rng)
        p = rng.randint(0, 100)
        cond1 = rng.random() < 0.7
        args = {"ksq": ksq, "p": p, "cond1_attested": cond1,
                "adjoint_very_ample": not cond1 or rng.random() < 0.5}
        if ksq >= 1 and rng.random() < 0.25:
            # L = m(-K): L^2 = m^2 K^2 and -K.L = m K^2
            m = rng.randint(1, 60)
            args.update(Lsq=m * m * ksq, multiple_of_minus_k=True)
        else:
            args.update(Lsq=max(1, (p + 3) ** 2 + rng.randint(-3, 3)),
                        multiple_of_minus_k=False)
        if ksq <= 0:
            args["minus_k_dot_L"] = rng.randint(1, p + 6)
        return args, {}

    @staticmethod
    def _lemma_125_bound(rng):
        ksq = rng.randint(1, 8)
        p = rng.randint(2 if ksq == 8 else 1, 100)
        args = {"ksq": ksq, "p": p, "adjoint_effective": True}
        if ksq != 1 and rng.random() < 0.25:
            m = rng.randint(1, 120)
            args.update(Lsq=m * m * ksq, multiple_of_minus_k=True)
        else:
            args.update(Lsq=max(1, (p + 3) ** 2 - 1 + rng.randint(-3, 3)),
                        multiple_of_minus_k=False)
        fires = args["Lsq"] >= (p + 3) ** 2 - 1
        return args, {"expect_value": p + 3 + ksq if fires else None}

    @staticmethod
    def _verify_inequality_chain(rng):
        ksq = rng.randint(1, 8)
        p = rng.randint(2 if ksq == 8 else 1, 100)
        m = rng.randint(2, 100)
        d = p - m
        return {"ksq": ksq, "p": p, "m": m}, {"expect_value": [
            p * p + 3 * p + 3 - ksq >= 0,
            d * d + 5 * d + 6 >= 0,
            p * p + (5 - 2 * m) * p + (2 * m * m - 6 * m + 4) > 0]}

    @staticmethod
    def _ampleness_termination(rng):
        ksq = 0
        while ksq == 0:
            ksq = _pick_ksq(rng)
        args = {"ksq": ksq, "np_sharp_attested": True,
                "multiple_of_minus_k": False}
        if 1 <= ksq <= 7 and rng.random() < 0.5:
            # L = m(-K) with -K.L = p + 3
            m = rng.randint(-(-3 // ksq), 100)
            args.update(p=m * ksq - 3, multiple_of_minus_k=True)
        else:
            args["p"] = rng.randint(0, 100)
        if ksq == 8:
            args["e"] = rng.randint(0, 100)
        return args, {}

    @staticmethod
    def _thm_121_equivalence(rng):
        ksq = rng.randint(2, 9)
        if ksq == 8:
            return {"ksq": 8, "summand": "other",
                    "e": rng.randint(0, 100)}, {}
        return {"ksq": ksq,
                "summand": rng.choice(("minus_k", "other"))}, {}

    @staticmethod
    def _curve_np_reference(rng):
        genus = 1 if rng.random() < 0.3 else rng.randint(0, 100)
        degree = max(1, 2 * genus + 1 + rng.randint(-5, 5))
        if rng.random() < 0.5:
            degree = rng.randint(1, 300)
        return {"genus": genus, "degree": degree}, {
            "expect": _curve_reference(genus, degree)}

    def _scaled_polarization(self, rng, anticanonical_only: bool):
        while True:
            divisor, flags = rng.choice(self.polarizations)
            if flags.get("anticanonical") or not anticanonical_only:
                break
        k = rng.randint(1, 100)
        return {**divisor, "coeffs": [k * c for c in divisor["coeffs"]]}, flags

    def _np_classify(self, rng):
        divisor, flags = self._scaled_polarization(rng, False)
        t = _minus_k_degree(divisor)
        return {"divisor": divisor, "flags": flags}, {
            "expect": _np_reference(t, flags)}

    def _bpf_check(self, rng):
        divisor, _ = self._scaled_polarization(rng, True)
        return {"divisor": divisor,
                "flags": {"nef": True, "anticanonical": True}}, {
            "expect_value": _minus_k_degree(divisor) >= 2}

    @staticmethod
    def _fano_profile(rng, n: int, m: int, Hn: int) -> dict:
        args = {"n": n, "m": m, "Hn": Hn}
        if rng.random() < 0.5:
            args["h0H"] = rng.randint(n + 1, n + 100)
        if rng.random() < 0.5:
            args["morphism"] = rng.choice(fano.MORPHISM_KINDS)
        return args

    def _primitive_np(self, rng):
        n = rng.randint(2, 20)
        Hn = rng.randint(1, 9 if n == 2 else 8)
        return self._fano_profile(rng, n, n - 1, Hn), {}

    @staticmethod
    def _multiples_np_surface(rng):
        if rng.random() < 0.2:
            profile = {"minusK_dot_B": 3, "is_P2_O1": True}
        else:
            profile = {"minusK_dot_B": rng.randint(1, 100)}
        p = rng.randint(1, 100)
        return {"profile": profile, "l": max(0, p + rng.randint(-3, 3)),
                "p": p}, {}

    def _multiples_np_fano(self, rng):
        n = rng.randint(2, 20)
        m = rng.choice((n - 1, n, n + 1))
        Hn = {n + 1: 1, n: 2}.get(m) or rng.randint(1, 9 if n == 2 else 8)
        args = self._fano_profile(rng, n, m, Hn)
        p = rng.randint(1, 100)
        args.update(l=max(0, p + rng.randint(-3, 3)), p=p)
        return args, {}

    def _index_nm3_n0(self, rng):
        n = rng.randint(4, 20)
        args = self._fano_profile(rng, n, n - 3, rng.randint(1, 100))
        args["k"] = rng.randint(1, 100)
        return args, {}

    def _index_nm3_np(self, rng):
        n = rng.randint(4, 20)
        args = self._fano_profile(rng, n, n - 3, rng.randint(1, 100))
        args["h0H"] = rng.randint(n + 1, n + 50)
        p = rng.randint(1, 100)
        args.update(k=max(1, p + 2 + rng.randint(-3, 3)), p=p)
        return args, {}

    # lattice ops: P2 or F_e, bare or blown up at up to 8 points (rank <= 10)
    @staticmethod
    def _surface(rng) -> dict:
        if rng.random() < 0.5:
            surface = {"kind": "P2"}
        else:
            surface = {"kind": "Fe", "e": rng.randint(0, 100)}
        if rng.random() < 0.8:
            l = rng.randint(0, 8)
            general = surface["kind"] == "P2" and rng.random() < 0.5
            surface.update(l=l, config={"general_position": True}
                           if general else {})
        return surface

    @staticmethod
    def _rank(surface: dict) -> int:
        return (1 if surface["kind"] == "P2" else 2) + surface.get("l", 0)

    def _divisor(self, rng, surface: dict) -> dict:
        return {**surface, "coeffs": [rng.randint(-50, 50)
                                      for _ in range(self._rank(surface))]}

    def _intersect(self, rng):
        s = self._surface(rng)
        d1, d2 = self._divisor(rng, s), self._divisor(rng, s)
        return {"d1": d1, "d2": d2}, {"expect_value": _pairing(
            s["kind"], s.get("e", 0), d1["coeffs"], d2["coeffs"])}

    def _k_squared(self, rng):
        s = self._surface(rng)
        base = 9 if s["kind"] == "P2" else 8
        return {"surface": s}, {"expect_value": base - s.get("l", 0)}

    def _signature(self, rng):
        s = self._surface(rng)
        return {"surface": s}, {"expect_value": [1, self._rank(s) - 1, 0]}

    def _chi_and_genus(self, rng, sign: int):
        s = self._surface(rng)
        d = self._divisor(rng, s)
        kind, e, c = s["kind"], s.get("e", 0), d["coeffs"]
        dd = _pairing(kind, e, c, c)
        dk = _pairing(kind, e, c, _canonical(kind, e, len(c)))
        return {"divisor": d}, {"expect_value": 1 + (dd + sign * dk) // 2}

    def _euler_characteristic(self, rng):
        return self._chi_and_genus(rng, -1)

    def _sectional_genus(self, rng):
        return self._chi_and_genus(rng, 1)

    # --- checks -------------------------------------------------------------

    def check(self, req, out) -> bool:
        meta = req.meta
        if out.get("op") != meta["op"]:
            return False
        if not (isinstance(out.get("justification"), str)
                and out["justification"]):
            return False
        v = out["verdict"]
        if "expect_value" in meta:
            got = v["value"] if isinstance(v, dict) else v
            return got == meta["expect_value"]
        if "expect" in meta:
            return (v["status"], v.get("p")) == meta["expect"]
        return bool(v["justification"])

    def check_setup(self, out) -> bool:
        v = out["verdict"]
        return (v["status"], v["p"]) == ("ExactMax", 4)

    def digest_item(self, out) -> bytes:
        item = [out["op"], _project(out["verdict"]), out["justification"]]
        return json.dumps(item, sort_keys=True, separators=(",", ":")).encode()


# --- selftest ------------------------------------------------------------------


class Selftest(Workload):
    """In-process ``selftest.run_all()``; each request is one full pass.

    The checks take no outside input (the suite fixes its own seed), so the
    seed changes nothing here.
    """

    name = "selftest"
    setup_argv = ("--json", "classify", "--t", "7", "--ample",
                  "--anticanonical")
    trace_batches = 1

    def stream(self, seed: int):
        while True:
            yield [Request(None, {})]

    def call(self, payload):
        return selftest.run_all()

    def check(self, req, out) -> bool:
        return (len(out) == len(selftest.CHECKS) == 8
                and all(r.passed for r in out))

    check_setup = CriteriaGrid.check_setup


WORKLOADS = {w.name: w for w in (VerifySweep, OracleWide, CriteriaGrid,
                                 Selftest)}
