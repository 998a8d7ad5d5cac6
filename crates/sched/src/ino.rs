//! The in-order issue queue (`InO` baseline).
//!
//! A single FIFO (Table II: 96 entries, 8r4w at 8-wide). Each cycle the
//! contiguous *ready prefix* at the head issues, up to the machine width:
//! classic stall-on-use in-order scheduling — the first non-ready μop
//! blocks everything behind it.

use crate::ports::PortAlloc;
use crate::stats::{IssueBreakdown, SchedEnergyEvents};
use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
use crate::uop::SchedUop;
use ballerino_isa::PhysReg;
use std::collections::VecDeque;

/// Configuration of the in-order IQ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InOrderIqConfig {
    /// Queue entries (Table II: 96/64/32 by width).
    pub entries: usize,
    /// Head slots examined per cycle (read ports).
    pub read_ports: usize,
}

impl Default for InOrderIqConfig {
    fn default() -> Self {
        InOrderIqConfig {
            entries: 96,
            read_ports: 8,
        }
    }
}

/// Issues the ready prefix of the in-order queue `q`: examines at most
/// `window` heads, oldest first, and stops at the first one that is not
/// ready or loses its port claim (a port conflict also blocks, since
/// order must be kept). Charges a head examination per head looked at
/// and a queue read per issue; returns how many issued.
pub(crate) fn issue_ready_prefix(
    q: &mut VecDeque<SchedUop>,
    window: usize,
    ctx: &ReadyCtx<'_>,
    ports: &mut PortAlloc<'_>,
    energy: &mut SchedEnergyEvents,
    out: &mut Vec<u64>,
) -> u64 {
    let mut issued = 0;
    for _ in 0..window {
        let Some(head) = q.front() else { break };
        energy.head_examinations += 1;
        if !ctx.is_ready(head) || !ports.try_claim(head.port, head.class) {
            break;
        }
        let u = q.pop_front().expect("head");
        energy.queue_reads += 1;
        out.push(u.seq);
        issued += 1;
    }
    issued
}

/// The in-order issue queue.
#[derive(Debug)]
pub struct InOrderIq {
    cfg: InOrderIqConfig,
    q: VecDeque<SchedUop>,
    energy: SchedEnergyEvents,
    breakdown: IssueBreakdown,
}

impl InOrderIq {
    /// Builds an empty queue.
    pub fn new(cfg: InOrderIqConfig) -> Self {
        InOrderIq {
            cfg,
            q: VecDeque::new(),
            energy: SchedEnergyEvents::default(),
            breakdown: IssueBreakdown::default(),
        }
    }
}

impl Scheduler for InOrderIq {
    fn name(&self) -> &str {
        "ino"
    }

    fn try_dispatch(&mut self, uop: SchedUop, _ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        if self.q.len() >= self.cfg.entries {
            return DispatchOutcome::Stall(StallReason::Full);
        }
        self.energy.queue_writes += 1;
        self.q.push_back(uop);
        DispatchOutcome::Accepted
    }

    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>) {
        let issued = issue_ready_prefix(
            &mut self.q,
            self.cfg.read_ports,
            ctx,
            ports,
            &mut self.energy,
            out,
        );
        self.breakdown.from_inorder += issued;
        if issued > 0 || !self.q.is_empty() {
            self.energy.select_inputs += self.cfg.read_ports as u64;
        }
    }

    fn flush_after(&mut self, seq: u64, _flushed_dests: &[PhysReg]) {
        while let Some(back) = self.q.back() {
            if back.seq > seq {
                self.q.pop_back();
            } else {
                break;
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.q.len()
    }

    fn capacity(&self) -> usize {
        self.cfg.entries
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        self.energy
    }

    fn issue_breakdown(&self) -> IssueBreakdown {
        self.breakdown
    }

    fn next_event_cycle(&self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>) -> Option<u64> {
        if pending.is_some() && self.q.len() < self.cfg.entries {
            return None; // dispatch would be accepted this cycle
        }
        match self.q.front() {
            None => Some(u64::MAX),
            Some(head) => {
                let wake = ctx.wake_cycle(head);
                // A ready head issues (or fights for a port) right now.
                if wake <= ctx.cycle {
                    None
                } else {
                    Some(wake)
                }
            }
        }
    }

    fn note_idle_cycles(&mut self, _ctx: &ReadyCtx<'_>, _pending: Option<&SchedUop>, k: u64) {
        // Each idle `issue` examines the stalled head once and still
        // drives the selector; an empty queue touches nothing.
        if !self.q.is_empty() {
            self.energy.head_examinations += k;
            self.energy.select_inputs += k * self.cfg.read_ports as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::held::HeldSet;
    use crate::ports::FuBusy;
    use crate::scoreboard::Scoreboard;
    use ballerino_isa::{OpClass, PortId};

    fn ctx<'a>(scb: &'a Scoreboard, held: &'a HeldSet, cycle: u64) -> ReadyCtx<'a> {
        ReadyCtx { cycle, scb, held }
    }

    fn op(seq: u64, port: u8, src: Option<PhysReg>) -> SchedUop {
        SchedUop {
            port: PortId(port),
            srcs: [src, None],
            ..SchedUop::test_op(seq)
        }
    }

    #[test]
    fn issues_ready_prefix_in_order() {
        let mut iq = InOrderIq::new(InOrderIqConfig::default());
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let c = ctx(&scb, &held, 0);
        for i in 0..4 {
            assert_eq!(
                iq.try_dispatch(op(i, i as u8, None), &c),
                DispatchOutcome::Accepted
            );
        }
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, 0);
        let mut out = Vec::new();
        iq.issue(&c, &mut pa, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(iq.occupancy(), 0);
    }

    #[test]
    fn non_ready_head_blocks_younger_ready_ops() {
        let mut iq = InOrderIq::new(InOrderIqConfig::default());
        let mut scb = Scoreboard::new(8);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let c = ctx(&scb, &held, 0);
        iq.try_dispatch(op(0, 0, Some(PhysReg(1))), &c); // not ready
        iq.try_dispatch(op(1, 1, None), &c); // ready but behind
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, 0);
        let mut out = Vec::new();
        iq.issue(&c, &mut pa, &mut out);
        assert!(out.is_empty());
        assert_eq!(iq.occupancy(), 2);
    }

    #[test]
    fn port_conflict_blocks_in_order() {
        let mut iq = InOrderIq::new(InOrderIqConfig::default());
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let c = ctx(&scb, &held, 0);
        iq.try_dispatch(op(0, 0, None), &c);
        iq.try_dispatch(op(1, 0, None), &c); // same port
        iq.try_dispatch(op(2, 1, None), &c);
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, 0);
        let mut out = Vec::new();
        iq.issue(&c, &mut pa, &mut out);
        // seq 1 loses port 0 → blocks seq 2 despite port 1 being free.
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn capacity_stalls_dispatch() {
        let mut iq = InOrderIq::new(InOrderIqConfig {
            entries: 2,
            read_ports: 2,
        });
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let c = ctx(&scb, &held, 0);
        assert_eq!(
            iq.try_dispatch(op(0, 0, None), &c),
            DispatchOutcome::Accepted
        );
        assert_eq!(
            iq.try_dispatch(op(1, 0, None), &c),
            DispatchOutcome::Accepted
        );
        assert_eq!(
            iq.try_dispatch(op(2, 0, None), &c),
            DispatchOutcome::Stall(StallReason::Full)
        );
    }

    #[test]
    fn flush_removes_younger_entries() {
        let mut iq = InOrderIq::new(InOrderIqConfig::default());
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let c = ctx(&scb, &held, 0);
        for i in 0..5 {
            iq.try_dispatch(op(i, 0, None), &c);
        }
        iq.flush_after(2, &[]);
        assert_eq!(iq.occupancy(), 3);
    }

    #[test]
    fn mdp_hold_blocks_head() {
        let mut iq = InOrderIq::new(InOrderIqConfig::default());
        let scb = Scoreboard::new(8);
        let mut held = HeldSet::new();
        held.insert(0u64);
        let c = ctx(&scb, &held, 0);
        iq.try_dispatch(op(0, 0, None), &c);
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, 0);
        let mut out = Vec::new();
        iq.issue(&c, &mut pa, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn issue_width_bounded_by_read_ports() {
        let mut iq = InOrderIq::new(InOrderIqConfig {
            entries: 96,
            read_ports: 2,
        });
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let c = ctx(&scb, &held, 0);
        for i in 0..6 {
            iq.try_dispatch(op(i, i as u8, None), &c);
        }
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, 0);
        let mut out = Vec::new();
        iq.issue(&c, &mut pa, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unpipelined_div_stalls_port() {
        let mut iq = InOrderIq::new(InOrderIqConfig::default());
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let c = ctx(&scb, &held, 10);
        let div = SchedUop {
            class: OpClass::IntDiv,
            ..op(0, 0, None)
        };
        iq.try_dispatch(div, &c);
        let mut busy = FuBusy::new();
        busy.reserve(PortId(0), OpClass::IntDiv, 30);
        let mut pa = PortAlloc::new(8, 8, &busy, 10);
        let mut out = Vec::new();
        iq.issue(&c, &mut pa, &mut out);
        assert!(out.is_empty());
    }
}
