"""Solvated peptide end to end (paper Fig. 12c, scaled down).

The complete QF-RAMAN workflow on a protein-plus-water system:

1. build + optimize a peptide,
2. solvate it (waters at liquid density, clash-filtered),
3. decompose: capped peptide fragments + water fragments + the
   residue-water and water-water two-body pieces within λ = 4 Å,
4. per-piece DFPT responses (cached to disk — re-running resumes),
5. assemble Eq. (1), solve the spectrum both dense and Lanczos+GAGQ,
6. compare against the named water/protein bands,
7. replay the same decomposition on the simulated ORISE to estimate
   what the run would cost at the paper's scale.

Run:  python examples/solvated_peptide.py   (~15-25 min on one core;
      instant on re-runs thanks to the response cache)
"""

import time

import numpy as np

from repro import QFRamanPipeline, build_polypeptide
from repro.analysis import PROTEIN_BANDS, WATER_BANDS, band_assignment
from repro.analysis.reference import RHF_STO3G_FREQUENCY_SCALE
from repro.geometry import solvate
from repro.hpc import ORISE, simulate_qf_run
from repro.hpc.costmodel import paper_calibrated_cost_model
from repro.scf.optimize import optimize_geometry


def main() -> None:
    geom, residues = build_polypeptide(["GLY"])
    opt = optimize_geometry(geom, eri_mode="df")
    waters = solvate(opt.geometry, margin=3.0, clash_distance=2.4, seed=1)[:3]
    print(f"peptide ({opt.geometry.natoms} atoms) + {len(waters)} waters")

    pipe = QFRamanPipeline(
        protein=opt.geometry, residues=residues, waters=waters,
        relax_waters=True, run_store=".qf_cache", verbose=True,
    )
    omega = np.linspace(200, 5200, 1000)
    t0 = time.time()
    result = pipe.run(omega_cm1=omega, sigma_cm1=20.0, solver="dense")
    print(f"\nresponses + spectrum in {time.time() - t0:.0f}s; "
          f"pieces: {result.decomposition.counts} "
          f"(unique QM: {result.unique_pieces})")

    sp = result.spectrum.normalized()
    scale = RHF_STO3G_FREQUENCY_SCALE
    print("\nband assignment (water + protein bands):")
    for bands in (WATER_BANDS, PROTEIN_BANDS):
        for name, info in band_assignment(sp.omega_cm1, sp.intensity, bands,
                                          frequency_scale=scale).items():
            found = info["found_cm1"]
            print(f"  {name:<20} expect {info['expected_cm1']:6.0f}  "
                  + (f"found {found:6.0f}" if found else "not found"))

    # what would this decomposition cost on ORISE?
    sizes = pipe.workload_sizes(result.decomposition)
    big = np.tile(sizes, 4000)   # pretend the paper-scale piece count
    cm = paper_calibrated_cost_model("protein", "ORISE")
    rep = simulate_qf_run(ORISE, 750, big, cm, seed=0)
    print(f"\nsimulated ORISE run of {big.size:,} such pieces on 750 nodes: "
          f"{rep.makespan / 60:.1f} virtual minutes "
          f"({rep.throughput:.0f} pieces/s)")


if __name__ == "__main__":
    main()
