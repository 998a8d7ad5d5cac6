//! The live pipeline against the seed reference pipeline
//! ([`run_machine_reference`]: `CoreRef` with seed-exact memory, rescan
//! OoO select, broadcast LDT wakeup and allocating Ballerino issue).
//! Every machine kind must report the same full `SimResult` on both,
//! apart from the host-throughput fields.

use ballerino_bench::{normalized, KIND_REGISTRY};
use ballerino_sim::{run_machine, run_machine_reference, MachineKind, Width};
use ballerino_workloads::{cached_workload, workload_names};

const SEED: u64 = 42;

/// Stepped (not fast-forwarded) live cycles over the N=5000 Fig. 11
/// shape. A work counter, not a timing: it rises only when the skip
/// engine stops skipping spans it used to skip. Lower it whenever a
/// change lowers the sum.
const FIG11_STEPPED_CYCLE_CEILING: u64 = 651_762;

#[test]
fn every_kind_matches_the_reference_pipeline() {
    let registry: Vec<MachineKind> = KIND_REGISTRY.iter().map(|info| info.kind).collect();
    // Every registered kind at both widths on short traces, then the
    // Fig. 11 matrix on longer ones.
    let shapes: [(&[MachineKind], &[Width], usize); 2] = [
        (&registry, &[Width::Four, Width::Eight], 2000),
        (&MachineKind::FIG11, &[Width::Eight], 5000),
    ];
    let mut cells = 0;
    let mut expected_cells = 0;
    let mut stepped = [0u64; 2];
    let mut mismatches = Vec::new();
    for (shape, (kinds, widths, n)) in shapes.into_iter().enumerate() {
        expected_cells += kinds.len() * widths.len() * workload_names().len();
        for &kind in kinds {
            for &width in widths {
                for name in workload_names() {
                    let trace = cached_workload(name, n, SEED);
                    let live = run_machine(kind, width, &trace);
                    stepped[shape] += live.cycles - live.cycles_skipped;
                    let reference = run_machine_reference(kind, width, &trace);
                    if normalized(&live) != normalized(&reference) {
                        mismatches.push(format!("{} {width:?} {name} N={n}", kind.label()));
                    }
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, expected_cells);
    assert!(
        mismatches.is_empty(),
        "{} of {cells} cells differ from the reference pipeline: {mismatches:?}",
        mismatches.len()
    );
    assert!(
        stepped[1] <= FIG11_STEPPED_CYCLE_CEILING,
        "every cell matches the reference, but the live side stepped {} cycles on \
         the Fig. 11 shape, above the ceiling of {FIG11_STEPPED_CYCLE_CEILING}: \
         the skip engine lost spans",
        stepped[1]
    );
}
