//! Property tests over every scheduler implementation: issue soundness
//! (never issue a non-ready μop), conservation (dispatched = issued +
//! resident), and flush correctness — under randomized dependence
//! graphs generated by the in-repo deterministic [`Rng64`].

use ballerino_isa::rng::Rng64;
use ballerino_isa::{OpClass, PhysReg, PortId};
use ballerino_sched::{
    Casino, CasinoConfig, Ces, CesConfig, DispatchOutcome, FuBusy, HeldSet, InOrderIq,
    InOrderIqConfig, Ldt, LdtConfig, OooIq, OooIqConfig, PortAlloc, ReadyCtx, SchedUop, Scheduler,
    Scoreboard,
};
use std::collections::HashSet;

/// One random μop stream: (source index into earlier ops or None, port).
fn arb_stream(rng: &mut Rng64) -> Vec<(Option<usize>, u8)> {
    let n = rng.index(63) + 1;
    (0..n)
        .map(|_| {
            let src = if rng.chance(0.5) {
                Some(rng.index(64))
            } else {
                None
            };
            (src, rng.below(8) as u8)
        })
        .collect()
}

fn mk_sched(which: usize) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(InOrderIq::new(InOrderIqConfig::default())),
        1 => Box::new(OooIq::new(OooIqConfig::default())),
        2 => Box::new(OooIq::new(OooIqConfig {
            oldest_first: true,
            ..Default::default()
        })),
        3 => Box::new(Ces::new(CesConfig::default())),
        4 => Box::new(Casino::new(CasinoConfig::default())),
        _ => Box::new(Ldt::new(LdtConfig::default())),
    }
}

/// Drive each scheduler for up to 400 cycles on a random dependence
/// stream: every μop issues exactly once, only when its sources are
/// ready, and everything eventually drains.
#[test]
fn schedulers_issue_soundly_and_drain() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0x5C_0001 + case);
        let stream = arb_stream(&mut rng);
        let which = rng.index(6);
        let mut sched = mk_sched(which);
        let mut scb = Scoreboard::new(512);
        let held = HeldSet::new();
        let busy = FuBusy::new();

        // Build μops: op i writes preg 100+i, reads the dst of an earlier
        // op (if any).
        let uops: Vec<SchedUop> = stream
            .iter()
            .enumerate()
            .map(|(i, (src, port))| {
                let src_preg = src.and_then(|s| {
                    if s < i {
                        Some(PhysReg(100 + s as u32))
                    } else {
                        None
                    }
                });
                SchedUop {
                    seq: i as u64 + 1,
                    pc: i as u64 * 4,
                    class: OpClass::IntAlu,
                    port: PortId(*port),
                    srcs: [src_preg, None],
                    dst: Some(PhysReg(100 + i as u32)),
                    ssid: None,
                    mdp_wait: None,
                    load_dep: false,
                }
            })
            .collect();
        for u in &uops {
            scb.allocate(u.dst.unwrap());
        }

        let mut issued = HashSet::new();
        let mut next = 0usize;
        for cycle in 0..400u64 {
            // Issue.
            let mut out = Vec::new();
            {
                let ctx = ReadyCtx {
                    cycle,
                    scb: &scb,
                    held: &held,
                };
                let mut pa = PortAlloc::new(8, 8, &busy, cycle);
                sched.issue(&ctx, &mut pa, &mut out);
            }
            for seq in out {
                assert!(issued.insert(seq), "double issue of {seq}");
                let u = &uops[(seq - 1) as usize];
                // Soundness: sources were ready.
                assert!(
                    scb.srcs_ready(&u.srcs, cycle),
                    "issued {seq} with unready sources at {cycle}"
                );
                scb.set_ready_at(u.dst.unwrap(), cycle + 1);
            }
            // Completions (1-cycle ops complete next cycle; notify now so
            // location tables clear).
            // Dispatch up to 4.
            for _ in 0..4 {
                if next >= uops.len() {
                    break;
                }
                let ctx = ReadyCtx {
                    cycle,
                    scb: &scb,
                    held: &held,
                };
                match sched.try_dispatch(uops[next], &ctx) {
                    DispatchOutcome::Accepted => next += 1,
                    DispatchOutcome::AcceptedIssued => {
                        assert!(issued.insert(uops[next].seq));
                        scb.set_ready_at(uops[next].dst.unwrap(), cycle + 1);
                        next += 1;
                    }
                    DispatchOutcome::Stall(_) => break,
                }
            }
            // Wakeup notifications for anything that became ready.
            for u in &uops {
                if issued.contains(&u.seq) && scb.ready_cycle(u.dst.unwrap()) == cycle + 1 {
                    sched.on_complete(u.dst.unwrap());
                }
            }
            if issued.len() == uops.len() {
                break;
            }
        }
        assert_eq!(issued.len(), uops.len(), "{} failed to drain", sched.name());
        assert_eq!(sched.occupancy(), 0);
    }
}

/// Flush removes exactly the younger μops from the window.
#[test]
fn flush_is_exact() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0x5C_0002 + case);
        let n = rng.index(39) + 1;
        let flush_at = rng.below(39) + 1;
        let which = rng.index(6);

        let mut sched = mk_sched(which);
        let mut scb = Scoreboard::new(512);
        let held = HeldSet::new();
        // All blocked on one never-ready register so nothing issues.
        scb.allocate(PhysReg(0));
        let mut accepted = Vec::new();
        for i in 0..n {
            let u = SchedUop {
                seq: i as u64 + 1,
                srcs: [Some(PhysReg(0)), None],
                dst: Some(PhysReg(100 + i as u32)),
                port: PortId((i % 8) as u8),
                ..SchedUop::test_op(i as u64 + 1)
            };
            let ctx = ReadyCtx {
                cycle: 0,
                scb: &scb,
                held: &held,
            };
            if sched.try_dispatch(u, &ctx) == DispatchOutcome::Accepted {
                accepted.push(u.seq);
            } else {
                break;
            }
        }
        let dests: Vec<PhysReg> = accepted
            .iter()
            .filter(|&&s| s > flush_at)
            .map(|&s| PhysReg(100 + (s - 1) as u32))
            .collect();
        sched.flush_after(flush_at, &dests);
        let expect = accepted.iter().filter(|&&s| s <= flush_at).count();
        assert_eq!(sched.occupancy(), expect);
    }
}

/// The fabric-driven OoO wakeup path and the reference pipeline's
/// rescan select ([`OooIq::with_reference_select`]) must make identical
/// grant decisions, charge identical energy, and agree on the quiesce
/// horizon across random dependence streams with a mid-run flush.
#[test]
fn ooo_fabric_matches_broadcast_wakeup() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0x5C_0003 + case);
        let stream = arb_stream(&mut rng);
        let oldest = rng.chance(0.5);
        let mut fab = OooIq::new(OooIqConfig {
            oldest_first: oldest,
            ..Default::default()
        });
        let mut bro = OooIq::new(OooIqConfig {
            oldest_first: oldest,
            ..Default::default()
        })
        .with_reference_select();
        let mut scb = Scoreboard::new(512);
        let held = HeldSet::new();
        let busy = FuBusy::new();
        let uops: Vec<SchedUop> = stream
            .iter()
            .enumerate()
            .map(|(i, (src, port))| {
                let src_preg = src.and_then(|s| {
                    if s < i {
                        Some(PhysReg(100 + s as u32))
                    } else {
                        None
                    }
                });
                SchedUop {
                    seq: i as u64 + 1,
                    port: PortId(*port),
                    srcs: [src_preg, None],
                    dst: Some(PhysReg(100 + i as u32)),
                    ..SchedUop::test_op(i as u64 + 1)
                }
            })
            .collect();
        for u in &uops {
            scb.allocate(u.dst.unwrap());
        }

        let flush_cycle = if rng.chance(0.5) {
            Some(1 + rng.below(8))
        } else {
            None
        };
        let mut issued = HashSet::new();
        let mut next = 0usize;
        for cycle in 0..400u64 {
            let mut out_f = Vec::new();
            let mut out_b = Vec::new();
            {
                let ctx = ReadyCtx {
                    cycle,
                    scb: &scb,
                    held: &held,
                };
                let mut pa = PortAlloc::new(8, 8, &busy, cycle);
                fab.issue(&ctx, &mut pa, &mut out_f);
                let mut pb = PortAlloc::new(8, 8, &busy, cycle);
                bro.issue(&ctx, &mut pb, &mut out_b);
            }
            assert_eq!(
                out_f, out_b,
                "case {case} cycle {cycle}: grant decisions diverge"
            );
            for &seq in &out_f {
                assert!(issued.insert(seq));
                scb.set_ready_at(uops[(seq - 1) as usize].dst.unwrap(), cycle + 1);
            }
            for _ in 0..4 {
                if next >= uops.len() {
                    break;
                }
                let ctx = ReadyCtx {
                    cycle,
                    scb: &scb,
                    held: &held,
                };
                let a = fab.try_dispatch(uops[next], &ctx);
                let b = bro.try_dispatch(uops[next], &ctx);
                assert_eq!(a, b, "case {case} cycle {cycle}: dispatch outcomes diverge");
                if a == DispatchOutcome::Accepted {
                    next += 1;
                } else {
                    break;
                }
            }
            if flush_cycle == Some(cycle) {
                // Squash a random tail; the refetched stream is not replayed.
                let f = rng.below(uops.len() as u64) + 1;
                let dests: Vec<PhysReg> = uops
                    .iter()
                    .filter(|u| u.seq > f && !issued.contains(&u.seq))
                    .map(|u| u.dst.unwrap())
                    .collect();
                fab.flush_after(f, &dests);
                bro.flush_after(f, &dests);
                next = uops.len();
            }
            for u in &uops {
                if issued.contains(&u.seq) && scb.ready_cycle(u.dst.unwrap()) == cycle + 1 {
                    fab.on_complete(u.dst.unwrap());
                    bro.on_complete(u.dst.unwrap());
                }
            }
            {
                let ctx = ReadyCtx {
                    cycle: cycle + 1,
                    scb: &scb,
                    held: &held,
                };
                assert_eq!(
                    fab.next_event_cycle(&ctx, None),
                    bro.next_event_cycle(&ctx, None),
                    "case {case} cycle {cycle}: quiesce horizons diverge"
                );
            }
            if next == uops.len() && fab.occupancy() == 0 {
                break;
            }
        }
        assert_eq!(
            fab.occupancy(),
            bro.occupancy(),
            "case {case}: occupancy diverges"
        );
        assert_eq!(fab.occupancy(), 0, "case {case}: failed to drain");
        assert_eq!(
            fab.energy_events(),
            bro.energy_events(),
            "case {case}: energy diverges"
        );
    }
}

/// Same pin for the load-delay-tracking queue: the fabric-driven
/// delay-sorted select and the reference pipeline's broadcast-scan path
/// ([`Ldt::with_broadcast_wakeup`]) must make
/// identical grant decisions, charge identical energy, and agree on the
/// quiesce horizon across random dependence streams with a mid-run
/// flush.
#[test]
fn ldt_fabric_matches_broadcast_wakeup() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0x5C_0004 + case);
        let stream = arb_stream(&mut rng);
        let mut fab = Ldt::new(LdtConfig::default());
        let mut bro = Ldt::new(LdtConfig::default()).with_broadcast_wakeup();
        let mut scb = Scoreboard::new(512);
        let held = HeldSet::new();
        let busy = FuBusy::new();
        let uops: Vec<SchedUop> = stream
            .iter()
            .enumerate()
            .map(|(i, (src, port))| {
                let src_preg = src.and_then(|s| {
                    if s < i {
                        Some(PhysReg(100 + s as u32))
                    } else {
                        None
                    }
                });
                SchedUop {
                    seq: i as u64 + 1,
                    port: PortId(*port),
                    srcs: [src_preg, None],
                    dst: Some(PhysReg(100 + i as u32)),
                    ..SchedUop::test_op(i as u64 + 1)
                }
            })
            .collect();
        for u in &uops {
            scb.allocate(u.dst.unwrap());
        }

        let flush_cycle = if rng.chance(0.5) {
            Some(1 + rng.below(8))
        } else {
            None
        };
        let mut issued = HashSet::new();
        let mut next = 0usize;
        for cycle in 0..400u64 {
            let mut out_f = Vec::new();
            let mut out_b = Vec::new();
            {
                let ctx = ReadyCtx {
                    cycle,
                    scb: &scb,
                    held: &held,
                };
                let mut pa = PortAlloc::new(8, 8, &busy, cycle);
                fab.issue(&ctx, &mut pa, &mut out_f);
                let mut pb = PortAlloc::new(8, 8, &busy, cycle);
                bro.issue(&ctx, &mut pb, &mut out_b);
            }
            assert_eq!(
                out_f, out_b,
                "case {case} cycle {cycle}: grant decisions diverge"
            );
            for &seq in &out_f {
                assert!(issued.insert(seq));
                scb.set_ready_at(uops[(seq - 1) as usize].dst.unwrap(), cycle + 1);
            }
            for _ in 0..4 {
                if next >= uops.len() {
                    break;
                }
                let ctx = ReadyCtx {
                    cycle,
                    scb: &scb,
                    held: &held,
                };
                let a = fab.try_dispatch(uops[next], &ctx);
                let b = bro.try_dispatch(uops[next], &ctx);
                assert_eq!(a, b, "case {case} cycle {cycle}: dispatch outcomes diverge");
                if a == DispatchOutcome::Accepted {
                    next += 1;
                } else {
                    break;
                }
            }
            if flush_cycle == Some(cycle) {
                // Squash a random tail; the refetched stream is not replayed.
                let f = rng.below(uops.len() as u64) + 1;
                let dests: Vec<PhysReg> = uops
                    .iter()
                    .filter(|u| u.seq > f && !issued.contains(&u.seq))
                    .map(|u| u.dst.unwrap())
                    .collect();
                fab.flush_after(f, &dests);
                bro.flush_after(f, &dests);
                next = uops.len();
            }
            for u in &uops {
                if issued.contains(&u.seq) && scb.ready_cycle(u.dst.unwrap()) == cycle + 1 {
                    fab.on_complete(u.dst.unwrap());
                    bro.on_complete(u.dst.unwrap());
                }
            }
            {
                let ctx = ReadyCtx {
                    cycle: cycle + 1,
                    scb: &scb,
                    held: &held,
                };
                assert_eq!(
                    fab.next_event_cycle(&ctx, None),
                    bro.next_event_cycle(&ctx, None),
                    "case {case} cycle {cycle}: quiesce horizons diverge"
                );
            }
            if next == uops.len() && fab.occupancy() == 0 {
                break;
            }
        }
        assert_eq!(
            fab.occupancy(),
            bro.occupancy(),
            "case {case}: occupancy diverges"
        );
        assert_eq!(fab.occupancy(), 0, "case {case}: failed to drain");
        assert_eq!(
            fab.energy_events(),
            bro.energy_events(),
            "case {case}: energy diverges"
        );
    }
}
