"""Seeded job lists for the three benchmark workloads.

A workload is an endless sequence of rounds.  Round ``r`` of workload
``w`` under seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{r}")``,
so the same seed always gives the same jobs, and a run consumes whole
rounds until its time is up.

Each round is a fixed list of slots.  A slot names a pool of inputs of
similar cost and the seed draws one input from it.  Stratifying this
way keeps the cost of a round, and hence the end-to-end figures, close
across seeds while every seed still sees different rings and codes.

Jobs are plain dicts so they can be written to JSON and handed to a
worker process:

* ``{"kind": "cli", "argv": [...], "check": {...}}`` runs
  ``frobcode.cli.main(argv)``;
* ``{"kind": "oracle", "ring": spec}`` runs ``solve_weight_axioms``;
* ``{"kind": "sweep", "ring": spec, "rows": [...], "pick": u, "x": [...]}``
  runs the library soundness pipeline on one generator matrix.
"""

from __future__ import annotations

import random

WORKLOADS = ("ring-tables", "code-families", "sweep")

# ---------------------------------------------------------------------------
# Ring specs, described structurally so the checks need not parse them
# ---------------------------------------------------------------------------
#
# A ring is a nested tuple: ("Z", m) | ("GF", p, k) | ("M", n, ring) |
# ("CHAIN", p, k) | ("X", left, right).  ``spec_text`` renders the
# canonical name that frobcode prints for it.


def spec_text(ring) -> str:
    kind = ring[0]
    if kind == "Z":
        return f"Z{ring[1]}"
    if kind == "GF":
        return f"GF({ring[1] ** ring[2]})"
    if kind == "M":
        return f"M{ring[1]}({spec_text(ring[2])})"
    if kind == "CHAIN":
        return f"CHAIN({ring[1] ** ring[2]})"
    if kind == "X":
        return f"{spec_text(ring[1])}x{spec_text(ring[2])}"
    raise ValueError(f"unknown ring {ring!r}")


def ring_size(ring) -> int:
    kind = ring[0]
    if kind == "Z":
        return ring[1]
    if kind == "GF":
        return ring[1] ** ring[2]
    if kind == "M":
        return ring_size(ring[2]) ** (ring[1] * ring[1])
    if kind == "CHAIN":
        return (ring[1] ** ring[2]) ** 2
    return ring_size(ring[1]) * ring_size(ring[2])


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _prime_power(q: int) -> tuple[int, int] | None:
    for p in _primes(2, q):
        k, r = 0, q
        while r % p == 0:
            r //= p
            k += 1
        if k:
            return (p, k) if r == 1 else None
    return None


def _gf(q: int):
    p, k = _prime_power(q)
    return ("GF", p, k)


def _chain(q: int):
    p, k = _prime_power(q)
    return ("CHAIN", p, k)


# Factors for product rings: small enough that a product of two or three
# stays cheap to build, and covering every constructor.
_FACTORS = (
    [("Z", m) for m in (2, 3, 4, 5, 6, 8, 9, 16, 32)]
    + [_gf(q) for q in (2, 3, 4, 5, 7, 8, 16)]
    + [_chain(q) for q in (2, 3, 4)]
    + [("M", 2, ("GF", 2, 1))]
)


def _products(lo: int, hi: int) -> list:
    out = []
    for a in _FACTORS:
        for b in _FACTORS:
            if lo <= ring_size(a) * ring_size(b) <= hi:
                out.append(("X", a, b))
            for c in _FACTORS[:9]:
                if lo <= ring_size(a) * ring_size(b) * ring_size(c) <= hi:
                    out.append(("X", ("X", a, b), c))
    return out


def _by_size(rings) -> list:
    return sorted(rings, key=lambda ring: (ring_size(ring), spec_text(ring)))


def _spread(rng: random.Random, pool: list, k: int) -> list:
    """One pick from each of ``k`` equal strata of ``pool``.

    Pools are sorted by size, a proxy for cost, so every seed gets other
    inputs but the same spread of sizes.  Each stratum draws on its own,
    so a pick at the top of one stratum tends to meet a pick lower in
    another: the cost of a round, and the order statistics of its
    latencies, then vary little between seeds.
    """
    return [pool[int((i + rng.random()) * len(pool) / k)] for i in range(k)]


# ---------------------------------------------------------------------------
# ring-tables
# ---------------------------------------------------------------------------

# The cap-size rows of the ROADMAP baseline table, in every round.
CAP_ROWS = (("GF", 2, 9), ("M", 3, ("GF", 2, 1)), ("Z", 512), ("X", ("Z", 2), ("GF", 2, 8)))

# (slot name, commands, pool): rings of 64..512 elements.  Pools are cut
# so that one slot's candidates cost within a few times each other: the
# weight table of Zm above 255 elements costs 0.2-2 s depending on how m
# factors, so those moduli get `ring info` only, and GF(p) above 257 or
# GF(243..343) would each swing a round by a second.
TABLE_SLOTS = (
    ("zm-weight", ("weight",), [("Z", m) for m in range(64, 256)]),
    ("zm-info", ("ring info",), [("Z", m) for m in range(256, 512)]),
    ("gf-prime", ("ring info", "weight"), [("GF", p, 1) for p in _primes(64, 257)]),
    ("gf-power", ("ring info", "weight"), [_gf(q) for q in (64, 81, 125, 128)]),
    ("matrix", ("ring info", "weight"), [("M", 2, _gf(3)), ("M", 2, _gf(4))]),
    ("chain", ("ring info", "weight"), [_chain(q) for q in (8, 9, 11, 13, 16, 17, 19)]),
    ("product-small", ("ring info", "weight"), _by_size(_products(64, 256))),
    ("product-large", ("ring info", "weight"), _by_size(_products(257, 512))),
)
TABLE_DRAWS_PER_SLOT = 12

# Oracle rings of 16..49 elements, two per constructor group and size
# band, so the many products do not crowd out the other constructors.
# The dense elimination grows with the cube of |R|: above 49 elements it
# takes 0.5-3 s (CHAIN(9), Z59, GF(53)..GF(81)), up to ten times the
# rest, so one of them would swing a round.
ORACLE_POOLS = (
    [("Z", m) for m in range(16, 33)],
    [_gf(q) for q in (16, 17, 19, 23, 25, 27, 29, 31, 32)],
    [("M", 2, ("GF", 2, 1)), _chain(4), _chain(5)],
    _by_size(_products(16, 32)),
    [("Z", m) for m in range(33, 50)],
    [_gf(q) for q in _primes(37, 49) + [49]],
    [_chain(7)],
    _by_size(_products(33, 49)),
)


def _ring_tables_round(rng: random.Random) -> list[dict]:
    jobs = [_table_job("cap", "weight", ring) for ring in CAP_ROWS]
    for slot, commands, pool in TABLE_SLOTS:
        # each pair of neighbouring strata gets one job of each command,
        # in an order drawn per pair, so neither command sits on the
        # larger rings of every pair
        flips = [rng.randrange(len(commands)) for _ in range(TABLE_DRAWS_PER_SLOT // 2)]
        for i, ring in enumerate(_spread(rng, pool, TABLE_DRAWS_PER_SLOT)):
            jobs.append(_table_job(slot, commands[(i + flips[i // 2]) % len(commands)], ring))
    for pool in ORACLE_POOLS:
        slot = "oracle-small" if ring_size(pool[0]) <= 32 else "oracle-large"
        for ring in _spread(rng, pool, 2):
            jobs.append({"kind": "oracle", "slot": slot, "ring": ring})
    return jobs


def _table_job(slot: str, command: str, ring) -> dict:
    return {
        "kind": "cli",
        "slot": slot,
        "argv": command.split() + ["--ring", spec_text(ring)],
        "check": {"type": command.replace(" ", "-"), "ring": ring},
    }


# ---------------------------------------------------------------------------
# code-families
# ---------------------------------------------------------------------------

GOLDEN_DIR = "tests/golden"
# The golden CLI cases pinned by tests/test_acceptance.py (criterion 8).
GOLDEN_CASES = (
    ("bounds_octacode.json", ["bounds", "check", "--ring", "Z4", "--gen", "octacode.gen", "--json"]),
    ("bounds_simplex_z4_2.json", ["bounds", "check", "--ring", "Z4", "--gen", "simplex_z4_2.gen", "--json"]),
    ("bounds_hjelmslev_z4.json", ["bounds", "check", "--ring", "Z4", "--gen", "hjelmslev_z4.gen", "--json"]),
    ("chain_octacode.json", ["chain", "--ring", "Z4", "--gen", "octacode.gen", "--json"]),
    ("chain_simplex_z4_2.json", ["chain", "--ring", "Z4", "--gen", "simplex_z4_2.gen", "--json"]),
    ("chain_hjelmslev_z4.json", ["chain", "--ring", "Z4", "--gen", "hjelmslev_z4.gen", "--json"]),
    ("bounds_simplex_m2f2_1.json", ["bounds", "check", "--ring", "M2(GF(2))", "--gen", "simplex_m2f2_1.gen", "--json"]),
    ("family_hjelmslev_z4.json", ["family", "hjelmslev", "--ring", "Z4", "--json"]),
)

# Rings for drawn simplex codes.  Codes with m = 1 over 64- or 81-element
# rings are left out: they cost 3-5 times the rest of their band.
_SIMPLEX_RINGS = (
    [("Z", m) for m in (2, 3, 4, 5, 6, 8, 9, 16)]
    + [_gf(q) for q in (2, 3, 4, 5, 7, 8, 9, 16)]
    + [_chain(q) for q in (2, 3, 4)]
    + [("M", 2, ("GF", 2, 1)), ("X", ("Z", 2), ("Z", 3)), ("X", ("Z", 2), ("Z", 4))]
)


def _simplex_classes(lo: int, hi: int) -> list[list[tuple]]:
    """(ring, m) with lo <= |R|^m <= hi, grouped into cost classes.

    Every pick of a class has the same |R| and m, so the same n and M,
    and costs about the same to build and scan.
    """
    classes: dict[tuple[int, int], list] = {}
    for ring in _SIMPLEX_RINGS:
        for m in range(1, 11):
            if lo <= ring_size(ring) ** m <= hi:
                classes.setdefault((ring_size(ring), m), []).append((ring, m))
    return [classes[key] for key in sorted(classes)]


# Hjelmslev lines by residue field size q = 2..5, over CHAIN(q) or Z(q^2).
# CHAIN(7) and CHAIN(8) take 2.6 s and 7 s with their chain job, which
# would swing a round by up to a third, so they are not drawn; CHAIN(9)
# is in every round.
HJELMSLEV_CLASSES = [[(_chain(q), None)] + ([(("Z", q * q), None)] if _prime_power(q)[1] == 1 else [])
                     for q in (2, 3, 4, 5)]
# (slot, cost classes, picks per class).  Every round takes the same
# number of codes from each class, so its mix of code sizes is the same
# for every seed; the seed deals out the rings inside each class.  The
# cap codes take about 22 s of a 37 s round, so the drawn codes are many
# cheap ones: order statistics then fall inside large groups of like
# jobs.  The 90 simplex-small jobs (64..81 words, 10-60 ms) hold the
# median of a 186-job round, and the 60 simplex-large jobs (200..256
# words, 100-300 ms) hold its p90 tail, about a quarter of the way down
# from the top of that group.
CODE_SLOTS = (
    ("hjelmslev", HJELMSLEV_CLASSES, 3),
    ("simplex-small", _simplex_classes(64, 81), 9),
    ("simplex-large", _simplex_classes(200, 256), 6),
)


def _deal(rng: random.Random, candidates: list, k: int) -> list:
    """``k`` picks that use every candidate ``k // c`` or ``k // c + 1`` times.

    Within a class one ring can still cost a third more than another
    (`Z4` against `GF(4)` with m=4), so drawing with replacement would
    let the mix of a class, and with it the tail of a round, swing from
    seed to seed.  Dealing from seeded shuffles keeps the mix even; the
    seed decides the order and which rings get the extra picks.
    """
    picks = []
    while len(picks) < k:
        batch = list(candidates)
        rng.shuffle(batch)
        picks += batch
    return picks[:k]


def _code_families_round(rng: random.Random, r: int, gen_dir: str) -> list[list[dict]]:
    """Units of the round: a golden job, or a family job and the chain job after it."""
    units = []
    for fixture, argv in GOLDEN_CASES:
        argv = [f"{GOLDEN_DIR}/{a}" if a.endswith(".gen") else a for a in argv]
        units.append([{"kind": "cli", "slot": "golden", "argv": argv,
                       "check": {"type": "golden", "expected": f"{GOLDEN_DIR}/{fixture}"}}])
    picks = [("hjelmslev-cap", _chain(9), None), ("simplex-cap", _gf(2), 10)]
    for slot, classes, draws in CODE_SLOTS:
        for cls in classes:
            picks += [(slot, *pick) for pick in _deal(rng, cls, draws)]
    for index, (slot, ring, m) in enumerate(picks):
        gen = f"{gen_dir}/r{r}-{index}.gen"
        text = spec_text(ring)
        if m is None:
            argv = ["family", "hjelmslev", "--ring", text]
        else:
            argv = ["family", "simplex", "--ring", text, "-m", str(m)]
        family = {"type": "family", "ring": ring, "m": m, "gen": gen}
        units.append([
            {"kind": "cli", "slot": slot, "argv": argv + ["--json", "--emit-gen", gen],
             "check": family},
            {"kind": "cli", "slot": slot + "-chain",
             "argv": ["chain", "--ring", text, "--gen", gen, "--json"],
             "check": {"type": "chain", "ring": ring, "family": family}},
        ])
    return units


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_RINGS = (
    ("Z", 4), ("GF", 2, 2), ("CHAIN", 2, 1), ("M", 2, ("GF", 2, 1)),
    ("Z", 6), ("X", ("Z", 2), ("Z", 3)), ("Z", 8), ("Z", 9),
)
SWEEP_MAX_K, SWEEP_MAX_N, SWEEP_MAX_MESSAGES = 3, 6, 1024
# Each (k, n) shape appears this often per ring in every round.  A code's
# cost depends mostly on its ring and shape, so a fixed set of shapes keeps
# the latency distribution, and the group its p95 falls in, the same for
# every seed; the seed draws the matrix entries, the codeword and x.
SWEEP_JOBS_PER_SHAPE = 2


def _sweep_round(rng: random.Random) -> list[dict]:
    jobs = []
    for ring in SWEEP_RINGS:
        size = ring_size(ring)
        k_max = max(k for k in range(1, SWEEP_MAX_K + 1) if size**k <= SWEEP_MAX_MESSAGES)
        for k in range(1, k_max + 1):
            for n in range(1, SWEEP_MAX_N + 1):
                for _ in range(SWEEP_JOBS_PER_SHAPE):
                    jobs.append({
                        "kind": "sweep",
                        "slot": spec_text(ring),
                        "ring": ring,
                        "rows": [[rng.randrange(size) for _ in range(n)] for _ in range(k)],
                        "pick": rng.random(),
                        "x": [rng.randrange(size) for _ in range(n)],
                    })
    return jobs


# ---------------------------------------------------------------------------


def round_jobs(workload: str, seed: int, r: int, gen_dir: str = "gen") -> list[dict]:
    """The jobs of round ``r``; ids are ``"<round>.<index>"``.

    ``gen_dir`` is where `family --emit-gen` writes generator files for
    the `chain` jobs that read them back.
    """
    rng = random.Random(f"{workload}:{seed}:{r}")
    if workload == "ring-tables":
        units = [[job] for job in _ring_tables_round(rng)]
    elif workload == "code-families":
        units = _code_families_round(rng, r, gen_dir)
    elif workload == "sweep":
        units = [[job] for job in _sweep_round(rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # One fixed interleaving for every seed and round.  Jobs of one kind
    # are spread over the round, so a burst of machine noise hits few of
    # them; and each job follows the same kind of job under every seed,
    # since the time of a small job can depend on the job that ran before.
    random.Random(f"order:{workload}").shuffle(units)
    jobs = [job for unit in units for job in unit]
    for index, job in enumerate(jobs):
        job["id"] = f"{r}.{index}"
    return jobs


def setup_rings(workload: str) -> tuple:
    """Rings the workload builds once at set-up (only ``sweep`` has any)."""
    return SWEEP_RINGS if workload == "sweep" else ()

