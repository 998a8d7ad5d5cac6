//! CASINO: cascaded speculative in-order scheduling windows \[2\].
//!
//! A chain of S-IQs in front of a conventional in-order IQ (Table II at
//! 8-wide: 8-entry S-IQ0 → 40-entry S-IQ1 → 40-entry S-IQ2 → 8-entry
//! in-order IQ). Each cycle every S-IQ examines a window at its head:
//! ready μops issue immediately (speculative issue); the preceding
//! non-ready μops are *passed* to the next queue (an explicit copy
//! operation, charged to the energy model exactly as §VI-D discusses).
//! The final IQ issues its contiguous ready prefix in program order.

use crate::ino::issue_ready_prefix;
use crate::ports::PortAlloc;
use crate::stats::{IssueBreakdown, SchedEnergyEvents};
use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
use crate::uop::SchedUop;
use ballerino_isa::PhysReg;
use std::collections::VecDeque;

/// Geometry of one cascade stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageConfig {
    /// Queue entries.
    pub entries: usize,
    /// Window examined / passed per cycle (read and write ports).
    pub ports: usize,
}

/// CASINO configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CasinoConfig {
    /// The speculative S-IQs, front to back.
    pub siqs: Vec<StageConfig>,
    /// The final in-order IQ.
    pub final_iq: StageConfig,
}

impl Default for CasinoConfig {
    fn default() -> Self {
        Self::eight_wide()
    }
}

impl CasinoConfig {
    /// Table II, 8-wide: 8-entry S-IQ0, 40-entry S-IQ1, 40-entry S-IQ2,
    /// 8-entry in-order IQ, all 4r4w.
    pub fn eight_wide() -> Self {
        CasinoConfig {
            siqs: vec![
                StageConfig {
                    entries: 8,
                    ports: 4,
                },
                StageConfig {
                    entries: 40,
                    ports: 4,
                },
                StageConfig {
                    entries: 40,
                    ports: 4,
                },
            ],
            final_iq: StageConfig {
                entries: 8,
                ports: 4,
            },
        }
    }

    /// Table II, 4-wide: 6-entry S-IQ0, 52-entry S-IQ1, 6-entry IQ (3r3w).
    pub fn four_wide() -> Self {
        CasinoConfig {
            siqs: vec![
                StageConfig {
                    entries: 6,
                    ports: 3,
                },
                StageConfig {
                    entries: 52,
                    ports: 3,
                },
            ],
            final_iq: StageConfig {
                entries: 6,
                ports: 3,
            },
        }
    }

    /// Table II, 2-wide: 4-entry S-IQ0, 28-entry IQ (2r2w).
    pub fn two_wide() -> Self {
        CasinoConfig {
            siqs: vec![StageConfig {
                entries: 4,
                ports: 2,
            }],
            final_iq: StageConfig {
                entries: 28,
                ports: 2,
            },
        }
    }

    /// Total scheduling-window entries.
    pub fn total_entries(&self) -> usize {
        self.siqs.iter().map(|s| s.entries).sum::<usize>() + self.final_iq.entries
    }
}

/// The CASINO scheduler.
#[derive(Debug)]
pub struct Casino {
    cfg: CasinoConfig,
    name: String,
    siqs: Vec<VecDeque<SchedUop>>,
    final_iq: VecDeque<SchedUop>,
    energy: SchedEnergyEvents,
    breakdown: IssueBreakdown,
}

impl Casino {
    /// Builds an empty CASINO cascade.
    pub fn new(cfg: CasinoConfig) -> Self {
        let siqs: Vec<VecDeque<SchedUop>> = cfg.siqs.iter().map(|_| VecDeque::new()).collect();
        let name = format!("casino{}", siqs.len());
        Casino {
            cfg,
            name,
            siqs,
            final_iq: VecDeque::new(),
            energy: SchedEnergyEvents::default(),
            breakdown: IssueBreakdown::default(),
        }
    }

    /// Occupancy of S-IQ `i` (tests/diagnostics).
    pub fn siq_len(&self, i: usize) -> usize {
        self.siqs[i].len()
    }

    /// Occupancy of the final in-order IQ.
    pub fn final_len(&self) -> usize {
        self.final_iq.len()
    }

    /// Space left in the queue after stage `i` (the next S-IQ or final IQ).
    fn next_space(&self, i: usize) -> usize {
        if i + 1 < self.siqs.len() {
            self.cfg.siqs[i + 1].entries - self.siqs[i + 1].len()
        } else {
            self.cfg.final_iq.entries - self.final_iq.len()
        }
    }
}

impl Scheduler for Casino {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, uop: SchedUop, _ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        if self.siqs[0].len() >= self.cfg.siqs[0].entries {
            return DispatchOutcome::Stall(StallReason::Full);
        }
        self.energy.queue_writes += 1;
        self.siqs[0].push_back(uop);
        DispatchOutcome::Accepted
    }

    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>) {
        // 1. Final in-order IQ: contiguous ready prefix, oldest first.
        self.breakdown.from_inorder += issue_ready_prefix(
            &mut self.final_iq,
            self.cfg.final_iq.ports,
            ctx,
            ports,
            &mut self.energy,
            out,
        );

        // 2. S-IQs from the back of the cascade to the front, so a μop
        //    moves at most one stage per cycle.
        for i in (0..self.siqs.len()).rev() {
            let window = self.cfg.siqs[i].ports.min(self.siqs[i].len());
            // Issued window indices as a bitmask (windows are the S-IQ
            // port count, well under 64).
            debug_assert!(window <= 64);
            let mut issued_mask: u64 = 0;
            for k in 0..window {
                let u = &self.siqs[i][k];
                self.energy.head_examinations += 1;
                if ctx.is_ready(u) && ports.try_claim(u.port, u.class) {
                    issued_mask |= 1 << k;
                }
            }
            // Remove issued (back to front to keep indices valid).
            for k in (0..window).rev() {
                if issued_mask & (1 << k) == 0 {
                    continue;
                }
                let u = self.siqs[i].remove(k).expect("indexed");
                self.energy.queue_reads += 1;
                self.breakdown.from_siq += 1;
                out.push(u.seq);
            }
            // Pass the (formerly preceding) non-ready μops to the next
            // queue. Issues and passes share the S-IQ's read ports, so a
            // queue that issued k μops can pass at most ports-k more.
            let ports_left = self.cfg.siqs[i]
                .ports
                .saturating_sub(issued_mask.count_ones() as usize);
            let budget = ports_left.min(self.next_space(i));
            let passes = budget.min(self.siqs[i].len());
            for _ in 0..passes {
                // Only pass μops that were inside the examined window and
                // are still non-ready (they sit at the head now).
                let Some(front) = self.siqs[i].front() else {
                    break;
                };
                if ctx.is_ready(front) {
                    break; // became issuable; keep it for next cycle
                }
                let u = self.siqs[i].pop_front().expect("head");
                self.energy.copies += 1;
                self.energy.queue_writes += 1;
                if i + 1 < self.siqs.len() {
                    self.siqs[i + 1].push_back(u);
                } else {
                    self.final_iq.push_back(u);
                }
            }
        }

        let active = self.occupancy() > 0;
        if active {
            let inputs: usize =
                self.cfg.siqs.iter().map(|s| s.ports).sum::<usize>() + self.cfg.final_iq.ports;
            self.energy.select_inputs += inputs as u64;
        }
    }

    fn flush_after(&mut self, seq: u64, _flushed_dests: &[PhysReg]) {
        for q in self
            .siqs
            .iter_mut()
            .chain(std::iter::once(&mut self.final_iq))
        {
            q.retain(|u| u.seq <= seq);
        }
    }

    fn occupancy(&self) -> usize {
        self.siqs.iter().map(|q| q.len()).sum::<usize>() + self.final_iq.len()
    }

    fn capacity(&self) -> usize {
        self.cfg.total_entries()
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        self.energy
    }

    fn issue_breakdown(&self) -> IssueBreakdown {
        self.breakdown
    }

    fn next_event_cycle(&self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>) -> Option<u64> {
        if pending.is_some() && self.siqs[0].len() < self.cfg.siqs[0].entries {
            return None; // dispatch would be accepted this cycle
        }
        let mut horizon = u64::MAX;
        if let Some(head) = self.final_iq.front() {
            let wake = ctx.wake_cycle(head);
            if wake <= ctx.cycle {
                return None;
            }
            horizon = horizon.min(wake);
        }
        for (i, q) in self.siqs.iter().enumerate() {
            // Cascade-drain requirement: a non-empty stage with space
            // behind it passes μops downstream every cycle.
            if !q.is_empty() && self.next_space(i) > 0 {
                return None;
            }
            let window = self.cfg.siqs[i].ports.min(q.len());
            for u in q.iter().take(window) {
                let wake = ctx.wake_cycle(u);
                if wake <= ctx.cycle {
                    return None; // in-window entry issues speculatively now
                }
                horizon = horizon.min(wake);
            }
        }
        Some(horizon)
    }

    fn note_idle_cycles(&mut self, _ctx: &ReadyCtx<'_>, _pending: Option<&SchedUop>, k: u64) {
        // A stalled final head is examined once per cycle; each S-IQ
        // examines its full head window; an occupied cascade drives the
        // selector every cycle regardless of requests.
        if !self.final_iq.is_empty() {
            self.energy.head_examinations += k;
        }
        let window_sum: u64 = self
            .siqs
            .iter()
            .enumerate()
            .map(|(i, q)| self.cfg.siqs[i].ports.min(q.len()) as u64)
            .sum();
        self.energy.head_examinations += k * window_sum;
        if self.occupancy() > 0 {
            let inputs: usize =
                self.cfg.siqs.iter().map(|s| s.ports).sum::<usize>() + self.cfg.final_iq.ports;
            self.energy.select_inputs += k * inputs as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::held::HeldSet;
    use crate::ports::FuBusy;
    use crate::scoreboard::Scoreboard;
    use ballerino_isa::PortId;

    fn op(seq: u64, port: u8, src: Option<u32>) -> SchedUop {
        SchedUop {
            port: PortId(port),
            srcs: [src.map(PhysReg), None],
            ..SchedUop::test_op(seq)
        }
    }

    fn issue_once(c: &mut Casino, scb: &Scoreboard, cycle: u64) -> Vec<u64> {
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle,
            scb,
            held: &held,
        };
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, cycle);
        let mut out = Vec::new();
        c.issue(&ctx, &mut pa, &mut out);
        out
    }

    #[test]
    fn ready_ops_issue_speculatively_from_siq0() {
        let mut c = Casino::new(CasinoConfig::eight_wide());
        let scb = Scoreboard::new(16);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        for i in 0..4 {
            c.try_dispatch(op(i, i as u8, None), &ctx);
        }
        let out = issue_once(&mut c, &scb, 0);
        assert_eq!(out.len(), 4);
        assert_eq!(c.issue_breakdown().from_siq, 4);
    }

    #[test]
    fn non_ready_ops_cascade_toward_final_iq() {
        let mut c = Casino::new(CasinoConfig::eight_wide());
        let mut scb = Scoreboard::new(16);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        for i in 0..4 {
            c.try_dispatch(op(i, i as u8, Some(1)), &ctx);
        }
        // Cycle 1: S-IQ0 passes up to 4 non-ready μops into S-IQ1.
        let out = issue_once(&mut c, &scb, 0);
        assert!(out.is_empty());
        assert_eq!(c.siq_len(0), 0);
        assert_eq!(c.siq_len(1), 4);
        // Next cycles they ripple into S-IQ2 and then the final IQ.
        let _ = issue_once(&mut c, &scb, 1);
        assert_eq!(c.siq_len(2), 4);
        let _ = issue_once(&mut c, &scb, 2);
        assert_eq!(c.final_len(), 4);
    }

    #[test]
    fn final_iq_issues_in_order_only() {
        let mut c = Casino::new(CasinoConfig::eight_wide());
        let mut scb = Scoreboard::new(16);
        scb.allocate(PhysReg(1));
        scb.allocate(PhysReg(2));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        c.try_dispatch(op(0, 0, Some(1)), &ctx);
        c.try_dispatch(op(1, 1, Some(2)), &ctx);
        // Ripple to final IQ.
        for t in 0..3 {
            let _ = issue_once(&mut c, &scb, t);
        }
        assert_eq!(c.final_len(), 2);
        // Make the *younger* one ready: in-order final IQ must not issue it.
        scb.set_ready_at(PhysReg(2), 3);
        let out = issue_once(&mut c, &scb, 3);
        assert!(
            out.is_empty(),
            "younger op must wait behind stalled head, got {out:?}"
        );
        // Now the older becomes ready: both drain in order.
        scb.set_ready_at(PhysReg(1), 4);
        let out = issue_once(&mut c, &scb, 4);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn becomes_ready_mid_cascade_and_issues_from_middle_siq() {
        let mut c = Casino::new(CasinoConfig::eight_wide());
        let mut scb = Scoreboard::new(16);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        c.try_dispatch(op(0, 0, Some(1)), &ctx);
        let _ = issue_once(&mut c, &scb, 0); // moved to S-IQ1
        assert_eq!(c.siq_len(1), 1);
        scb.set_ready_at(PhysReg(1), 1);
        let out = issue_once(&mut c, &scb, 1);
        assert_eq!(out, vec![0]);
        assert_eq!(c.issue_breakdown().from_siq, 1);
    }

    #[test]
    fn passes_are_charged_as_copies() {
        let mut c = Casino::new(CasinoConfig::eight_wide());
        let mut scb = Scoreboard::new(16);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        c.try_dispatch(op(0, 0, Some(1)), &ctx);
        let _ = issue_once(&mut c, &scb, 0);
        assert_eq!(c.energy_events().copies, 1);
    }

    #[test]
    fn full_siq0_stalls_dispatch() {
        let mut c = Casino::new(CasinoConfig::eight_wide());
        let mut scb = Scoreboard::new(16);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        for i in 0..8 {
            assert_eq!(
                c.try_dispatch(op(i, 0, Some(1)), &ctx),
                DispatchOutcome::Accepted
            );
        }
        assert_eq!(
            c.try_dispatch(op(8, 0, Some(1)), &ctx),
            DispatchOutcome::Stall(StallReason::Full)
        );
    }

    #[test]
    fn full_final_iq_backpressures_cascade() {
        let mut c = Casino::new(CasinoConfig {
            siqs: vec![StageConfig {
                entries: 8,
                ports: 4,
            }],
            final_iq: StageConfig {
                entries: 2,
                ports: 4,
            },
        });
        let mut scb = Scoreboard::new(16);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        for i in 0..6 {
            c.try_dispatch(op(i, 0, Some(1)), &ctx);
        }
        let _ = issue_once(&mut c, &scb, 0);
        assert_eq!(c.final_len(), 2); // only 2 fit
        assert_eq!(c.siq_len(0), 4);
        let _ = issue_once(&mut c, &scb, 1);
        assert_eq!(c.final_len(), 2, "no space, no passes");
        assert_eq!(c.siq_len(0), 4);
    }

    #[test]
    fn flush_clears_younger_across_all_queues() {
        let mut c = Casino::new(CasinoConfig::eight_wide());
        let mut scb = Scoreboard::new(16);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        for i in 0..4 {
            c.try_dispatch(op(i, 0, Some(1)), &ctx);
        }
        let _ = issue_once(&mut c, &scb, 0); // all in S-IQ1
        for i in 4..8 {
            c.try_dispatch(op(i, 0, Some(1)), &ctx);
        }
        c.flush_after(1, &[]);
        assert_eq!(c.occupancy(), 2);
    }
}
