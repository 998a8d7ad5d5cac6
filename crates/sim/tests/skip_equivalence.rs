//! The event-horizon engine against the reference core, which never
//! skips.
//!
//! The engine may only fast-forward cycles it can prove are pure
//! bookkeeping, and must replay that bookkeeping in closed form — so
//! every reported statistic (cycles, IPC, stall counters, energy
//! micro-events, head states, steering outcomes, ...) must be
//! byte-identical to the stepping reference pipeline
//! ([`run_machine_reference`]), for every scheduler. The comparison goes
//! through `format!("{result:?}")` on the full [`SimResult`] after
//! zeroing the two fields that are *allowed* to differ: `host_wall_s`
//! (host time) and `cycles_skipped` (how many of the cycles were
//! fast-forwarded rather than stepped). Every run also checks that
//! accounting: skipped cycles are a subset of all cycles.

use ballerino_isa::rng::Rng64;
use ballerino_sched::SchedEnergyEvents;
use ballerino_sim::{run_machine, run_machine_reference, MachineKind, SimResult, Width};
use ballerino_workloads::{workload, workload_names};

const ALL_KINDS: [MachineKind; 18] = [
    MachineKind::InOrder,
    MachineKind::OutOfOrder,
    MachineKind::OutOfOrderOldestFirst,
    MachineKind::OutOfOrderNoMdp,
    MachineKind::Ces,
    MachineKind::CesMda,
    MachineKind::Casino,
    MachineKind::Fxa,
    MachineKind::BallerinoStep1,
    MachineKind::BallerinoStep2,
    MachineKind::Ballerino,
    MachineKind::BallerinoIdeal,
    MachineKind::Ballerino12,
    MachineKind::BallerinoN(4),
    MachineKind::LoadSliceCore,
    MachineKind::DelayAndBypass,
    MachineKind::Ldt,
    MachineKind::BallerinoLdt,
];

/// Checks a run's skipped-cycle accounting and returns the normalized
/// result rendering, the skipped-cycle count, and the typed scheduler
/// energy micro-events.
fn normalized(mut r: SimResult, what: &str) -> (String, u64, SchedEnergyEvents) {
    let skipped = r.cycles_skipped;
    assert!(
        skipped <= r.cycles,
        "{what} skipped {skipped} of {} cycles",
        r.cycles
    );
    let sched_energy = r.energy.sched;
    r.host_wall_s = 0.0;
    r.cycles_skipped = 0;
    (format!("{r:?}"), skipped, sched_energy)
}

#[test]
fn every_machine_is_skip_invariant_on_randomized_workloads() {
    let names = workload_names();
    let mut rng = Rng64::new(0xBA11_E51A);
    for kind in ALL_KINDS {
        // Several random (workload, seed, width) draws per machine.
        for _ in 0..3 {
            let name = names[rng.index(names.len())];
            let seed = rng.next_u64();
            let width = [Width::Two, Width::Four, Width::Eight][rng.index(3)];
            let n = 300 + rng.index(200);
            let trace = workload(name, n, seed);
            let what = format!("{kind:?} {width:?} ({name}, seed {seed:#x}, n {n})");
            let (reference, _, e_ref) =
                normalized(run_machine_reference(kind, width, &trace), &what);
            let (live, _, e_live) = normalized(run_machine(kind, width, &trace), &what);
            // Typed comparison first: a `Debug` rendering change can never
            // mask a drifting scheduler energy counter.
            assert_eq!(
                e_ref, e_live,
                "{what}: scheduler energy events diverge from the reference"
            );
            assert_eq!(reference, live, "{what}: diverges from the reference");
        }
    }
}

#[test]
fn skipping_engages_on_memory_bound_workloads() {
    // The engine must actually fire where it matters: long-latency misses
    // with a quiesced scheduler. A pointer chase at 8-wide OoO spends most
    // of its cycles waiting on DRAM.
    let trace = workload("pointer_chase", 2_000, 7);
    let (kind, width) = (MachineKind::OutOfOrder, Width::Eight);
    let (_, skipped, _) = normalized(run_machine(kind, width, &trace), "OoO pointer_chase");
    assert!(
        skipped > 0,
        "event-horizon engine never fired on pointer_chase"
    );
}
