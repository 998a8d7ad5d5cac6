//! The live pipeline against the seed reference pipeline
//! ([`run_machine_reference`]: `CoreRef` with seed-exact memory, rescan
//! OoO select, broadcast LDT wakeup and allocating Ballerino issue).
//! Every registered machine kind must report the same full `SimResult`
//! on both, apart from the host-throughput fields.

use ballerino_bench::{normalized, KIND_REGISTRY};
use ballerino_sim::{run_machine, run_machine_reference, Width};
use ballerino_workloads::{cached_workload, workload_names};

const N: usize = 2000;
const SEED: u64 = 42;

#[test]
fn every_kind_matches_the_reference_pipeline() {
    let mut cells = 0;
    let mut mismatches = Vec::new();
    for info in KIND_REGISTRY {
        for width in [Width::Four, Width::Eight] {
            for name in workload_names() {
                let trace = cached_workload(name, N, SEED);
                let live = normalized(&run_machine(info.kind, width, &trace));
                let reference = normalized(&run_machine_reference(info.kind, width, &trace));
                if live != reference {
                    mismatches.push(format!("{} {width:?} {name}", info.name));
                }
                cells += 1;
            }
        }
    }
    assert_eq!(cells, KIND_REGISTRY.len() * 2 * workload_names().len());
    assert!(
        mismatches.is_empty(),
        "{} of {cells} cells differ from the reference pipeline: {mismatches:?}",
        mismatches.len()
    );
}
