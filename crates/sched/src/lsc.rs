//! Load Slice Core (LSC) — a slice-out-of-order design from the paper's
//! related work (§VII, \[8\]), included as an extension baseline.
//!
//! Two in-order queues: the **bypass queue** holds memory accesses and
//! the backward *address-generating slices* of loads; the **main queue**
//! holds everything else. The bypass queue may issue ahead of the main
//! queue, so address computation and cache misses start early (MLP)
//! while execution otherwise stays in order.
//!
//! Slices are learned iteratively with an **instruction slice table
//! (IST)**: when a load dispatches, the instruction that produced its
//! base register is marked; over loop iterations the transitive closure
//! of address producers migrates into the bypass queue.

use crate::ino::issue_ready_prefix;
use crate::ports::PortAlloc;
use crate::stats::{IssueBreakdown, SchedEnergyEvents};
use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
use crate::uop::SchedUop;
use ballerino_isa::PhysReg;
use std::collections::{HashMap, VecDeque};

/// LSC configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LscConfig {
    /// Bypass-queue entries.
    pub bypass_entries: usize,
    /// Main-queue entries.
    pub main_entries: usize,
    /// IST entries (PC-indexed, direct mapped).
    pub ist_entries: usize,
    /// Issue slots per queue per cycle.
    pub ports_per_queue: usize,
}

impl Default for LscConfig {
    fn default() -> Self {
        // Split the baseline 96-entry window between the two queues.
        LscConfig {
            bypass_entries: 32,
            main_entries: 64,
            ist_entries: 1024,
            ports_per_queue: 4,
        }
    }
}

/// The Load Slice Core scheduler.
#[derive(Debug)]
pub struct Lsc {
    cfg: LscConfig,
    bypass: VecDeque<SchedUop>,
    main: VecDeque<SchedUop>,
    ist: Vec<bool>,
    /// PC of the most recent writer of each physical register (for the
    /// iterative backward-slice walk).
    writer_pc: HashMap<u32, u64>,
    energy: SchedEnergyEvents,
    breakdown: IssueBreakdown,
    /// μops routed through the bypass queue.
    pub bypassed: u64,
}

impl Lsc {
    /// Builds an empty LSC scheduler.
    pub fn new(cfg: LscConfig) -> Self {
        let ist = vec![false; cfg.ist_entries];
        Lsc {
            cfg,
            bypass: VecDeque::new(),
            main: VecDeque::new(),
            ist,
            writer_pc: HashMap::new(),
            energy: SchedEnergyEvents::default(),
            breakdown: IssueBreakdown::default(),
            bypassed: 0,
        }
    }

    fn ist_index(&self, pc: u64) -> usize {
        (pc as usize / 4) % self.cfg.ist_entries
    }

    /// Whether the IST marks `pc` as part of a load's address slice.
    pub fn in_slice(&self, pc: u64) -> bool {
        self.ist[self.ist_index(pc)]
    }
}

impl Scheduler for Lsc {
    fn name(&self) -> &str {
        "lsc"
    }

    fn try_dispatch(&mut self, uop: SchedUop, _ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        // Iterative slice learning: a load's base-register producer joins
        // the slice (it will route to the bypass queue on its next
        // dynamic instance).
        if uop.is_load() {
            for src in uop.srcs.iter().flatten() {
                if let Some(&pc) = self.writer_pc.get(&src.raw()) {
                    let idx = self.ist_index(pc);
                    self.ist[idx] = true;
                    self.energy.loc_writes += 1;
                }
            }
        }
        let to_bypass = uop.is_load() || uop.is_store() || self.in_slice(uop.pc);
        self.energy.loc_reads += 1; // IST lookup at dispatch

        // A slice instruction's own producers are walked one level per
        // iteration: if this μop is in the slice, mark its producers too
        // (transitive closure over iterations, as in the LSC paper).
        if to_bypass && !uop.is_store() {
            for src in uop.srcs.iter().flatten() {
                if let Some(&pc) = self.writer_pc.get(&src.raw()) {
                    let idx = self.ist_index(pc);
                    self.ist[idx] = true;
                }
            }
        }
        if let Some(d) = uop.dst {
            self.writer_pc.insert(d.raw(), uop.pc);
        }

        let (q, cap) = if to_bypass {
            (&mut self.bypass, self.cfg.bypass_entries)
        } else {
            (&mut self.main, self.cfg.main_entries)
        };
        if q.len() >= cap {
            return DispatchOutcome::Stall(StallReason::Full);
        }
        if to_bypass {
            self.bypassed += 1;
        }
        self.energy.queue_writes += 1;
        q.push_back(uop);
        DispatchOutcome::Accepted
    }

    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>) {
        // Bypass queue first: that is the whole point of the design.
        let b = issue_ready_prefix(
            &mut self.bypass,
            self.cfg.ports_per_queue,
            ctx,
            ports,
            &mut self.energy,
            out,
        );
        let m = issue_ready_prefix(
            &mut self.main,
            self.cfg.ports_per_queue,
            ctx,
            ports,
            &mut self.energy,
            out,
        );
        self.breakdown.from_siq += b; // bypass issues reported as S-IQ-like
        self.breakdown.from_inorder += m;
        if b + m > 0 {
            self.energy.select_inputs += (2 * self.cfg.ports_per_queue) as u64;
        }
    }

    fn flush_after(&mut self, seq: u64, _flushed_dests: &[PhysReg]) {
        for q in [&mut self.bypass, &mut self.main] {
            while q.back().map(|u| u.seq > seq).unwrap_or(false) {
                q.pop_back();
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.bypass.len() + self.main.len()
    }

    fn capacity(&self) -> usize {
        self.cfg.bypass_entries + self.cfg.main_entries
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        self.energy
    }

    fn issue_breakdown(&self) -> IssueBreakdown {
        self.breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::held::HeldSet;
    use crate::ports::FuBusy;
    use crate::scoreboard::Scoreboard;
    use ballerino_isa::{OpClass, PortId};

    fn op(seq: u64, pc: u64, class: OpClass, dst: Option<u32>, src: Option<u32>) -> SchedUop {
        SchedUop {
            seq,
            pc,
            class,
            port: PortId(if class == OpClass::Load { 2 } else { 0 }),
            srcs: [src.map(PhysReg), None],
            dst: dst.map(PhysReg),
            ssid: None,
            mdp_wait: None,
            load_dep: false,
        }
    }

    fn issue_once(l: &mut Lsc, scb: &Scoreboard, cycle: u64) -> Vec<u64> {
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle,
            scb,
            held: &held,
        };
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, cycle);
        let mut out = Vec::new();
        l.issue(&ctx, &mut pa, &mut out);
        out
    }

    #[test]
    fn loads_always_take_the_bypass_queue() {
        let mut l = Lsc::new(LscConfig::default());
        let scb = Scoreboard::new(64);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        l.try_dispatch(op(1, 0x400, OpClass::Load, Some(10), None), &ctx);
        assert_eq!(l.bypassed, 1);
    }

    #[test]
    fn address_producers_join_the_slice_over_iterations() {
        let mut l = Lsc::new(LscConfig::default());
        let scb = Scoreboard::new(64);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        // Iteration 1: ALU at 0x400 produces p10; load at 0x404 uses it.
        l.try_dispatch(op(1, 0x400, OpClass::IntAlu, Some(10), None), &ctx);
        assert_eq!(l.bypassed, 0, "first instance not yet known to be a slice");
        l.try_dispatch(op(2, 0x404, OpClass::Load, Some(11), Some(10)), &ctx);
        assert!(l.in_slice(0x400), "producer PC must be marked in the IST");
        // Iteration 2: the same static ALU now routes to the bypass queue.
        l.try_dispatch(op(3, 0x400, OpClass::IntAlu, Some(12), None), &ctx);
        assert_eq!(l.bypassed, 2);
    }

    #[test]
    fn bypass_queue_issues_ahead_of_blocked_main_queue() {
        let mut l = Lsc::new(LscConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(20)); // main-queue head depends on this
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        l.try_dispatch(op(1, 0x500, OpClass::IntAlu, Some(21), Some(20)), &ctx); // main, blocked
        l.try_dispatch(op(2, 0x504, OpClass::Load, Some(22), None), &ctx); // bypass, ready
        let out = issue_once(&mut l, &scb, 0);
        assert_eq!(out, vec![2], "the load must bypass the stalled main queue");
    }

    #[test]
    fn each_queue_is_strictly_in_order() {
        let mut l = Lsc::new(LscConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(20));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        // Two bypass loads; the first blocked on its base register.
        l.try_dispatch(op(1, 0x500, OpClass::Load, Some(21), Some(20)), &ctx);
        l.try_dispatch(op(2, 0x504, OpClass::Load, Some(22), None), &ctx);
        let out = issue_once(&mut l, &scb, 0);
        assert!(
            out.is_empty(),
            "in-order bypass queue must stall behind its head"
        );
    }

    #[test]
    fn flush_trims_both_queues() {
        let mut l = Lsc::new(LscConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(20));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        l.try_dispatch(op(1, 0x500, OpClass::IntAlu, Some(21), Some(20)), &ctx);
        l.try_dispatch(op(2, 0x504, OpClass::Load, Some(22), Some(20)), &ctx);
        l.try_dispatch(op(3, 0x508, OpClass::Load, Some(23), Some(20)), &ctx);
        l.flush_after(1, &[]);
        assert_eq!(l.occupancy(), 1);
    }

    #[test]
    fn full_queues_stall_dispatch() {
        let mut l = Lsc::new(LscConfig {
            bypass_entries: 1,
            ..LscConfig::default()
        });
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(20));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        assert_eq!(
            l.try_dispatch(op(1, 0x500, OpClass::Load, Some(21), Some(20)), &ctx),
            DispatchOutcome::Accepted
        );
        assert_eq!(
            l.try_dispatch(op(2, 0x504, OpClass::Load, Some(22), Some(20)), &ctx),
            DispatchOutcome::Stall(StallReason::Full)
        );
    }
}
