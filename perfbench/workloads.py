"""Seeded study configs for the three benchmark workloads.

Each workload is a list of `Study` records: a CLI config (the only thing
the program sees) plus what the output checks expect of its reports.  The
same seed always yields the same configs.  The seed moves corpus seeds, node
offsets, the band-target shift and, on dense_zeros, the rotation and the
measure; inputs whose amount of work moved with the seed are pinned
(SIEVE_CORPUS_SEED, DENSE_LAYOUT_SEED).

Work counts come from the configs alone:
  norms  - certified L^p norms: ||f||_p and ||f'||_p per Bernstein item, one
           grid norm per sieve item, one L^2 normalisation per generated
           function (corpus member or reconstruction target);
  terms  - node x query kernel terms summed by the reconstructions,
           sum over reconstructions of (2K + 1) * x_count.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("certify", "sampling", "dense_zeros")

# test-fixture specs, as in tests/conftest.py
SPEC_PW = {"tau": 0.0, "c": 2.0, "zeros": []}
SPEC_ONE = {"tau": 0.0, "c": 1.0, "zeros": [{"re": 0.0, "im": 1.0}]}
SPEC_TWO = {"tau": 0.0, "c": 1.0, "zeros": [{"re": 0.0, "im": 1.0}, {"re": 2.0, "im": 0.5}]}
# the 2-atom and 2-piece fixture measures, merged into one
FIXTURE_MEASURE = {
    "atoms": [{"x": 0.0, "mass": 1.0}, {"x": 0.6, "mass": 1.0}],
    "pieces": [{"l": 0.0, "r": 1.0, "h": 1.0}, {"l": 2.0, "r": 2.5, "h": 1.0}],
}

# Sup-error ceilings for the reconstruction reports.  Each sits about two
# decades above the worst error the current code reaches on these configs
# (clark 3.6e-7, model_oversample 8.7e-15, shannon 8.1e-4, pw_oversample
# 8.7e-8 at seed 1), so a loss of accuracy trips it and last-bit changes do not.
SUP_ERROR_LIMIT = {"clark": 1e-4, "model_oversample": 1e-10, "shannon": 5e-2,
                   "pw_oversample": 1e-5}


@dataclass
class Study:
    name: str
    config: dict
    # report file -> expected data rows
    reports: dict = field(default_factory=dict)
    norms: int = 0
    terms: int = 0

    @property
    def command(self) -> str:
        return self.config["command"]


def _corpus_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 20)


def _gamma(rng: random.Random) -> float:
    return round(2.0 * math.pi * rng.random(), 6)


def _bernstein(name, inner, p, size, seed) -> Study:
    cfg = {"command": "certify-bernstein", "inner": inner,
           "params": {"p": p, "size": size, "count": 5, "seed": seed}}
    return Study(name, cfg,
                 {"certify_bernstein.csv": len(p), "certify_bernstein_manifest.json": None},
                 norms=size * (2 * len(p) + 1))


def _clark_probe(name, inner, rng) -> Study:
    """README-sized Clark reconstruction: K = 150, 101 queries on [-3, 3]."""
    cfg = {"command": "reconstruct", "inner": inner,
           "params": {"method": "clark", "window": 150, "seed": _corpus_seed(rng),
                      "gamma": _gamma(rng)}}
    return Study(name, cfg, {"reconstruct_clark.csv": 101}, norms=1, terms=301 * 101)


# The sieve corpus is pinned: certify-sieve keeps all 20 grid functions of a p
# alive at once, so its grid sizes set the workload's peak RSS, and a seeded
# corpus moved that peak by +-20 % between seeds.
SIEVE_CORPUS_SEED = 1


def certify(seed: int) -> list[Study]:
    rng = random.Random(seed)
    p3 = [1, 2, 4]
    deltas = [0.1, 0.5, 1, 2]
    sieve_p = [1, 2]
    sieve = Study(
        "certify_sieve_one",
        {"command": "certify-sieve", "inner": SPEC_ONE, "measure": FIXTURE_MEASURE,
         "params": {"deltas": deltas, "p": sieve_p, "size": 20, "count": 5,
                    "seed": SIEVE_CORPUS_SEED}},
        {**{f"certify_sieve_p{p}.csv": len(deltas) for p in sieve_p},
         "certify_sieve_manifest.json": None},
        norms=20 * (len(sieve_p) + 1))
    return [
        _bernstein("bernstein_two", SPEC_TWO, p3, 20, _corpus_seed(rng)),
        _bernstein("bernstein_pw", SPEC_PW, p3, 20, _corpus_seed(rng)),
        sieve,
        Study("lemma_checks",
              {"command": "lemma-checks",
               "params": {"seed": _corpus_seed(rng), "pairs": 50, "m_pairs": 20}},
              {"lemma_checks.csv": 2}),
        _clark_probe("clark_probe", SPEC_TWO, rng),
    ]


def sampling(seed: int) -> list[Study]:
    rng = random.Random(seed)
    x_count = 1001
    nodes = Study("nodes_two",
                  {"command": "nodes", "inner": SPEC_TWO,
                   "params": {"gamma": _gamma(rng), "n_min": -30000, "n_max": 30000}},
                  {"nodes.csv": 60001})
    k_model = 4000
    model = Study("reconstruct_model",
                  {"command": "reconstruct", "inner": SPEC_TWO,
                   "params": {"method": "model_oversample", "window": k_model,
                              "x_min": -50.0, "x_max": 50.0, "x_count": x_count,
                              "over_c": 1.0, "m": 2, "seed": _corpus_seed(rng),
                              "gamma": _gamma(rng)}},
                  {"reconstruct_model_oversample.csv": x_count},
                  norms=1, terms=(2 * k_model + 1) * x_count)
    clark_windows = [250, 500, 1000, 2000, 4000]
    clark = Study("decay_clark",
                  {"command": "decay", "inner": SPEC_ONE,
                   "params": {"methods": ["clark"], "windows": clark_windows,
                              "x_count": x_count, "seed": _corpus_seed(rng),
                              "gamma": _gamma(rng)}},
                  {"decay_clark.csv": len(clark_windows)},
                  norms=len(clark_windows),
                  terms=sum(2 * k + 1 for k in clark_windows) * x_count)
    band_windows = [100, 200, 400, 800, 1600]
    band = Study("decay_band",
                 {"command": "decay", "inner": SPEC_PW,
                  "params": {"methods": ["shannon", "pw_oversample"],
                             "windows": band_windows, "x_count": x_count,
                             "shift": round(0.2 + 0.6 * rng.random(), 6)}},
                 {"decay_shannon.csv": len(band_windows),
                  "decay_pw_oversample.csv": len(band_windows)},
                 terms=2 * sum(2 * k + 1 for k in band_windows) * x_count)
    return [nodes, model, clark, band]


def _dense_spec(rng: random.Random, count: int = 32) -> dict:
    """Zeros on a Latin hypercube over Re in [-100, 100], Im in [0.25, 2]:
    one zero per real-part stratum and per height stratum."""
    heights = list(range(count))
    rng.shuffle(heights)
    zeros = []
    for k in range(count):
        re = -100.0 + 200.0 * (k + rng.random()) / count
        im = 0.25 + 1.75 * (heights[k] + rng.random()) / count
        zeros.append({"re": round(re, 6), "im": round(im, 6)})
    return {"tau": 0.0, "c": 1.0, "zeros": zeros}


def _dense_measure(rng: random.Random, atoms: int = 64, pieces: int = 25) -> dict:
    """Atoms uniform over [-100, 100]; one density piece per slot of width 8,
    so pieces never overlap.  The piece lengths are a shuffled fixed ladder
    from 0.56 to 3.44: d_mu_theta scans with a step of the shortest piece / 8,
    so a random shortest piece would move the scan cost with the seed."""
    out_atoms = [{"x": round(-100.0 + 200.0 * rng.random(), 6),
                  "mass": round(0.1 + 1.9 * rng.random(), 6)} for _ in range(atoms)]
    width = 200.0 / pieces
    ladder = list(range(pieces))
    rng.shuffle(ladder)
    out_pieces = []
    for k in range(pieces):
        left = -100.0 + width * k + 0.4 * width * rng.random()
        length = 0.5 + 3.0 * (ladder[k] + 0.5) / pieces
        out_pieces.append({"l": round(left, 6), "r": round(left + length, 6),
                           "h": round(0.1 + 1.9 * rng.random(), 6)})
    return {"atoms": out_atoms, "pieces": out_pieces}


# The zeros and the Bernstein corpus of dense_zeros are pinned to this layout
# seed.  With both seeded, 5 to 10 of the 12 p = 1 certifications escalated
# to R = 32000 depending on the seed, and wall_s spread 25 % over ten seeds.
# The seed still moves the rotation tau (which leaves every corpus function
# unchanged but moves the phase, so the nodes), the measure, the node offset
# and the Clark probe.
DENSE_LAYOUT_SEED = 1


def dense_zeros(seed: int) -> list[Study]:
    rng = random.Random(seed)
    layout = random.Random(DENSE_LAYOUT_SEED)
    spec = _dense_spec(layout)
    spec["tau"] = _gamma(rng)
    measure = _dense_measure(rng)
    deltas = [0.25, 0.5, 1, 2, 4, 8]
    return [
        _bernstein("bernstein_dense", spec, [1, 2], 6, _corpus_seed(layout)),
        Study("density_adapted",
              {"command": "density", "inner": spec, "measure": measure,
               "params": {"deltas": deltas, "adapted": True}},
              {"density.csv": len(deltas)}),
        Study("nodes_dense",
              {"command": "nodes", "inner": spec,
               "params": {"gamma": _gamma(rng), "n_min": -5000, "n_max": 5000}},
              {"nodes.csv": 10001}),
        _clark_probe("clark_probe", spec, rng),
    ]


def studies(workload: str, seed: int) -> list[Study]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return {"certify": certify, "sampling": sampling, "dense_zeros": dense_zeros}[workload](seed)
