//! Complexity-Effective Superscalar (CES) clustered P-IQs \[3\].
//!
//! Dependence-based steering: each dependence chain (DC) is steered into
//! one in-order P-IQ; only the heads of the P-IQs are examined for issue.
//! The steering heuristic (§II-B1) allocates a new P-IQ when
//!
//! 1. none of the μop's producers wait in a P-IQ (ready or executing),
//! 2. the μop is a chain split (its producer already has a steered
//!    consumer — the `Reserved` flag), or
//! 3. the target P-IQ is full,
//!
//! and stalls dispatch when no empty P-IQ exists. The optional
//! **M-dependence-aware (MDA) steering** extension (§III-B, evaluated on
//! CES in Fig. 13) steers a predicted M-dependent load behind its producer
//! store, overriding register-dependence steering.

use crate::fabric::{WakeFabric, WakeState};
use crate::loc::LocTable;
use crate::ports::PortAlloc;
use crate::stats::{
    HeadState, HeadStateStats, IssueBreakdown, SchedEnergyEvents, SteerEvent, SteerStats,
};
use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
use crate::uop::SchedUop;
use ballerino_isa::PhysReg;
use std::collections::VecDeque;

/// Configuration of the CES scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CesConfig {
    /// Number of parallel in-order queues (Table II: 8/4/2 by width).
    pub num_piqs: usize,
    /// Entries per P-IQ (Table II: 12/16/16).
    pub piq_entries: usize,
    /// Number of physical registers (producer-location table size).
    pub num_phys_regs: usize,
    /// Enable M-dependence-aware steering (the Fig. 13 "CES + MDA" bar).
    pub mda_steering: bool,
    /// Number of distinct store-set ids (LFST-steer table size).
    pub num_ssids: usize,
}

impl Default for CesConfig {
    fn default() -> Self {
        CesConfig {
            num_piqs: 8,
            piq_entries: 12,
            num_phys_regs: 348,
            mda_steering: false,
            num_ssids: 128,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct LfstSteer {
    piq: u16,
    reserved: bool,
    store_seq: u64,
}

/// Where `try_dispatch` places a μop.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// Behind its predicted producer store (MDA steering), reserving the
    /// store set's LFST-steer entry.
    Mda(usize, usize),
    /// Behind a register producer, reserving that source's P-SCB entry.
    Rdep(usize, PhysReg),
    /// A new dependence head in an empty P-IQ.
    Alloc(usize),
}

/// A dispatch decision plus the table reads its steering walk makes,
/// which are charged whether or not a queue accepts the μop.
#[derive(Debug, Clone, Copy, Default)]
struct DispatchPlan {
    /// `None`: dispatch stalls for want of a free P-IQ.
    target: Option<Target>,
    /// LFST-steer read (MDA steering, only when an entry exists).
    lfst_reads: u64,
    /// P-SCB reads (one per source on the dependence walk).
    loc_reads: u64,
}

/// The CES scheduler.
#[derive(Debug)]
pub struct Ces {
    cfg: CesConfig,
    name: String,
    piqs: Vec<VecDeque<SchedUop>>,
    loc: LocTable,
    lfst_steer: Vec<Option<LfstSteer>>,
    fabric: WakeFabric,
    energy: SchedEnergyEvents,
    steer: SteerStats,
    heads: HeadStateStats,
    breakdown: IssueBreakdown,
}

impl Ces {
    /// Builds an empty CES scheduler.
    pub fn new(cfg: CesConfig) -> Self {
        let piqs = (0..cfg.num_piqs).map(|_| VecDeque::new()).collect();
        let loc = LocTable::new(cfg.num_phys_regs);
        let lfst_steer = vec![None; cfg.num_ssids];
        let name = if cfg.mda_steering {
            format!("ces{}-mda", cfg.num_piqs)
        } else {
            format!("ces{}", cfg.num_piqs)
        };
        Ces {
            cfg,
            name,
            piqs,
            loc,
            lfst_steer,
            fabric: WakeFabric::new(),
            energy: SchedEnergyEvents::default(),
            steer: SteerStats::default(),
            heads: HeadStateStats::default(),
            breakdown: IssueBreakdown::default(),
        }
    }

    /// Occupancy of one P-IQ (tests and diagnostics).
    pub fn piq_len(&self, i: usize) -> usize {
        self.piqs[i].len()
    }

    fn push_and_track(&mut self, piq: usize, uop: SchedUop, ctx: &ReadyCtx<'_>) {
        if let Some(d) = uop.dst {
            self.loc.set_location(d, piq as u16);
        }
        self.energy.queue_writes += 1;
        self.fabric.insert(&uop, piq as u32, ctx);
        self.piqs[piq].push_back(uop);
    }

    /// MDA steering target, if applicable: the P-IQ whose tail is the
    /// μop's predicted producer store.
    fn mda_target(&self, uop: &SchedUop, plan: &mut DispatchPlan) -> Option<Target> {
        if !self.cfg.mda_steering {
            return None;
        }
        let ssid = uop.ssid?.0 as usize;
        if !(uop.is_load() || uop.is_store()) {
            return None;
        }
        let entry = self.lfst_steer[ssid]?;
        plan.lfst_reads += 1;
        if entry.reserved {
            return None;
        }
        let k = entry.piq as usize;
        // The producer store must still sit at the tail of that P-IQ.
        let at_tail = self.piqs[k]
            .back()
            .map(|b| b.seq == entry.store_seq)
            .unwrap_or(false);
        (at_tail && self.piqs[k].len() < self.cfg.piq_entries).then_some(Target::Mda(k, ssid))
    }

    /// Register-dependence steering target: the P-IQ holding the producer
    /// of one of the μop's sources at its tail (an empty queue counts, its
    /// tail taken as seq 0). With two candidates, the one holding the
    /// *younger* producer wins (relative order, §IV-C). The winner is the
    /// first unreserved source pointing at its queue: an earlier such
    /// source would tie and win.
    fn rdep_target(&self, uop: &SchedUop, plan: &mut DispatchPlan) -> Option<Target> {
        let mut best: Option<(usize, PhysReg, u64)> = None;
        for src in uop.srcs.iter().flatten() {
            plan.loc_reads += 1;
            let e = self.loc.peek(*src);
            let Some(k) = e.iq_index else { continue };
            if e.reserved {
                continue; // chain split: producer already has a consumer
            }
            let k = k as usize;
            if self.piqs[k].len() >= self.cfg.piq_entries {
                continue; // case 3: full target
            }
            let tail_seq = self.piqs[k].back().map(|b| b.seq).unwrap_or(0);
            if best.map(|(_, _, s)| tail_seq > s).unwrap_or(true) {
                best = Some((k, *src, tail_seq));
            }
        }
        best.map(|(k, src, _)| Target::Rdep(k, src))
    }

    /// The dispatch decision: MDA steering (which overrides register
    /// dependences, §III-B), then register-dependence steering, then an
    /// empty P-IQ, else a stall. Both the live `try_dispatch` and the
    /// quiesce probes use it.
    fn plan(&self, uop: &SchedUop) -> DispatchPlan {
        let mut plan = DispatchPlan::default();
        plan.target = self.mda_target(uop, &mut plan);
        if plan.target.is_none() {
            plan.target = self.rdep_target(uop, &mut plan);
        }
        if plan.target.is_none() {
            plan.target = self
                .piqs
                .iter()
                .position(|q| q.is_empty())
                .map(Target::Alloc);
        }
        plan
    }

    /// Charges `times` dispatch attempts that each make `plan`'s walk.
    fn charge(&mut self, plan: &DispatchPlan, times: u64) {
        self.energy.steer_ops += times;
        self.energy.loc_reads += times * plan.lfst_reads;
        self.loc.reads += times * plan.loc_reads;
    }

    fn record_store_lfst(&mut self, uop: &SchedUop, piq: usize) {
        if self.cfg.mda_steering && uop.is_store() {
            if let Some(ssid) = uop.ssid {
                self.lfst_steer[ssid.0 as usize] = Some(LfstSteer {
                    piq: piq as u16,
                    reserved: false,
                    store_seq: uop.seq,
                });
                self.energy.loc_writes += 1;
            }
        }
    }
}

impl Scheduler for Ces {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, uop: SchedUop, ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        let plan = self.plan(&uop);
        self.charge(&plan, 1);
        let ready = ctx.is_ready(&uop);
        let k = match plan.target {
            None => {
                self.steer.record(if ready {
                    SteerEvent::StallReady
                } else {
                    SteerEvent::StallNonReady
                });
                return DispatchOutcome::Stall(StallReason::NoFreeQueue);
            }
            Some(Target::Mda(k, ssid)) => {
                self.lfst_steer[ssid].as_mut().expect("planned").reserved = true;
                self.energy.loc_writes += 1;
                self.steer.record(SteerEvent::SteerDc);
                k
            }
            Some(Target::Rdep(k, src)) => {
                self.loc.reserve(src);
                self.steer.record(SteerEvent::SteerDc);
                k
            }
            Some(Target::Alloc(k)) => {
                self.steer.record(if ready {
                    SteerEvent::AllocReady
                } else {
                    SteerEvent::AllocNonReady
                });
                k
            }
        };
        self.record_store_lfst(&uop, k);
        self.push_and_track(k, uop, ctx);
        DispatchOutcome::Accepted
    }

    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>) {
        self.fabric.poll(ctx);
        let mut any_candidate = false;
        for i in 0..self.piqs.len() {
            let state = match self.piqs[i].front() {
                None => HeadState::Empty,
                Some(head) => {
                    self.energy.head_examinations += 1;
                    match self.fabric.state(head.seq) {
                        WakeState::Ready => {
                            any_candidate = true;
                            if ports.try_claim(head.port, head.class) {
                                HeadState::Issuing
                            } else {
                                HeadState::StallPortConflict
                            }
                        }
                        WakeState::Held => HeadState::StallMdepLoad,
                        WakeState::Waiting => HeadState::StallNonReady,
                    }
                }
            };
            self.heads.record(state);
            if state == HeadState::Issuing {
                let u = self.piqs[i].pop_front().expect("head present");
                self.fabric.remove(u.seq);
                self.energy.queue_reads += 1;
                self.breakdown.from_piq += 1;
                // A store's issue releases its LFST-steer entry.
                if self.cfg.mda_steering && u.is_store() {
                    if let Some(ssid) = u.ssid {
                        if let Some(e) = self.lfst_steer[ssid.0 as usize] {
                            if e.store_seq == u.seq {
                                self.lfst_steer[ssid.0 as usize] = None;
                            }
                        }
                    }
                }
                out.push(u.seq);
            }
        }
        if any_candidate {
            // Per-port prefix-sum over the P-IQ heads.
            self.energy.select_inputs += (self.cfg.num_piqs * 8.min(self.cfg.num_piqs)) as u64;
        }
    }

    fn on_complete(&mut self, dst: PhysReg) {
        self.loc.clear(dst);
        self.fabric.on_complete(dst);
    }

    fn flush_after(&mut self, seq: u64, flushed_dests: &[PhysReg]) {
        for q in &mut self.piqs {
            while let Some(back) = q.back() {
                if back.seq > seq {
                    q.pop_back();
                } else {
                    break;
                }
            }
        }
        self.fabric.flush_after(seq);
        for d in flushed_dests {
            self.loc.clear(*d);
        }
        for e in &mut self.lfst_steer {
            if e.map(|s| s.store_seq > seq).unwrap_or(false) {
                *e = None;
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.piqs.iter().map(|q| q.len()).sum()
    }

    fn capacity(&self) -> usize {
        self.cfg.num_piqs * self.cfg.piq_entries
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        let mut e = self.energy;
        e.loc_reads += self.loc.reads;
        e.loc_writes += self.loc.writes;
        e
    }

    fn issue_breakdown(&self) -> IssueBreakdown {
        self.breakdown
    }

    fn steer_stats(&self) -> SteerStats {
        self.steer
    }

    fn head_stats(&self) -> HeadStateStats {
        self.heads
    }

    fn next_event_cycle(&self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>) -> Option<u64> {
        let mut horizon = u64::MAX;
        for q in &self.piqs {
            let Some(head) = q.front() else { continue };
            let rc = ctx.scb.srcs_ready_cycle(&head.srcs);
            if rc <= ctx.cycle {
                if !ctx.held.contains(head.seq) {
                    return None; // ready head: selects this cycle
                }
                // MDP-blocked head: stable StallMdepLoad until a store
                // issues, which cannot happen while we are quiesced.
            } else {
                // The recorded state flips (StallNonReady → issue/MdepLoad)
                // when the sources arrive, held or not.
                horizon = horizon.min(rc);
            }
        }
        if let Some(p) = pending {
            if self.plan(p).target.is_some() {
                return None;
            }
            // Refusal persists (steering state is frozen while idle), but
            // the recorded stall flavor flips when `p` becomes ready.
            let wake = ctx.wake_cycle(p);
            if wake > ctx.cycle {
                horizon = horizon.min(wake);
            }
        }
        Some(horizon)
    }

    fn note_idle_cycles(&mut self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>, k: u64) {
        // `issue` side: every head is examined and records its (stable)
        // stall state; no candidate requests, so select stays dark.
        for i in 0..self.piqs.len() {
            let state = match self.piqs[i].front() {
                None => HeadState::Empty,
                Some(head) => {
                    self.energy.head_examinations += k;
                    if ctx.is_mdp_blocked(head) {
                        HeadState::StallMdepLoad
                    } else {
                        HeadState::StallNonReady
                    }
                }
            };
            self.heads.record_n(state, k);
        }
        // `try_dispatch` side: each refused retry makes the same steering
        // walk and records the same stall.
        if let Some(p) = pending {
            let plan = self.plan(p);
            debug_assert!(plan.target.is_none(), "idle dispatch would be accepted");
            self.charge(&plan, k);
            let stall = if ctx.is_ready(p) {
                SteerEvent::StallReady
            } else {
                SteerEvent::StallNonReady
            };
            self.steer.record_n(stall, k);
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
    use ballerino_mem::SsId;

    fn op(seq: u64, dst: Option<u32>, srcs: [Option<u32>; 2]) -> SchedUop {
        SchedUop {
            port: PortId((seq % 4) as u8),
            srcs: [srcs[0].map(PhysReg), srcs[1].map(PhysReg)],
            dst: dst.map(PhysReg),
            ..SchedUop::test_op(seq)
        }
    }

    fn issue_once(ces: &mut Ces, scb: &Scoreboard, cycle: u64) -> Vec<u64> {
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle,
            scb,
            held: &held,
        };
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, cycle);
        let mut out = Vec::new();
        ces.issue(&ctx, &mut pa, &mut out);
        out
    }

    #[test]
    fn chain_is_steered_into_one_piq() {
        let mut ces = Ces::new(CesConfig::default());
        let mut scb = Scoreboard::new(348);
        for p in [10, 11, 12] {
            scb.allocate(PhysReg(p));
        }
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        // chain: 0 -> 1 -> 2 via regs 10, 11; all non-ready (src 9 missing? no:
        // op0 reads nothing but writes 10, and 10 is allocated → not ready for
        // consumers until complete).
        ces.try_dispatch(op(0, Some(10), [None, None]), &ctx);
        ces.try_dispatch(op(1, Some(11), [Some(10), None]), &ctx);
        ces.try_dispatch(op(2, Some(12), [Some(11), None]), &ctx);
        assert_eq!(ces.piq_len(0), 3);
        assert_eq!(ces.steer_stats().steer_dc, 2);
        assert_eq!(ces.steer_stats().alloc_ready, 1); // op0 is ready
    }

    #[test]
    fn chain_split_allocates_new_piq() {
        let mut ces = Ces::new(CesConfig::default());
        let mut scb = Scoreboard::new(348);
        scb.allocate(PhysReg(10));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        ces.try_dispatch(op(0, Some(10), [None, None]), &ctx);
        ces.try_dispatch(op(1, Some(11), [Some(10), None]), &ctx); // consumer 1
        ces.try_dispatch(op(2, Some(12), [Some(10), None]), &ctx); // split!
        assert_eq!(ces.piq_len(0), 2);
        assert_eq!(ces.piq_len(1), 1);
    }

    #[test]
    fn ready_ops_allocate_their_own_piqs_until_stall() {
        let mut ces = Ces::new(CesConfig {
            num_piqs: 2,
            ..CesConfig::default()
        });
        let scb = Scoreboard::new(348);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        assert_eq!(
            ces.try_dispatch(op(0, None, [None, None]), &ctx),
            DispatchOutcome::Accepted
        );
        assert_eq!(
            ces.try_dispatch(op(1, None, [None, None]), &ctx),
            DispatchOutcome::Accepted
        );
        assert_eq!(
            ces.try_dispatch(op(2, None, [None, None]), &ctx),
            DispatchOutcome::Stall(StallReason::NoFreeQueue)
        );
        assert_eq!(ces.steer_stats().alloc_ready, 2);
        assert_eq!(ces.steer_stats().stall_ready, 1);
    }

    #[test]
    fn heads_issue_out_of_order_across_piqs() {
        let mut ces = Ces::new(CesConfig::default());
        let mut scb = Scoreboard::new(348);
        scb.allocate(PhysReg(10)); // chain 0 blocked
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        ces.try_dispatch(op(0, Some(11), [Some(10), None]), &ctx); // blocked chain
        ces.try_dispatch(op(1, None, [None, None]), &ctx); // ready chain
        let out = issue_once(&mut ces, &scb, 0);
        assert_eq!(out, vec![1]);
        // Unblock chain 0 (writeback edge paired with the scoreboard write).
        scb.set_ready_at(PhysReg(10), 5);
        ces.on_complete(PhysReg(10));
        let out2 = issue_once(&mut ces, &scb, 5);
        assert_eq!(out2, vec![0]);
    }

    #[test]
    fn full_piq_redirects_consumer_to_new_queue() {
        let mut ces = Ces::new(CesConfig {
            piq_entries: 2,
            ..CesConfig::default()
        });
        let mut scb = Scoreboard::new(348);
        for p in 10..16 {
            scb.allocate(PhysReg(p));
        }
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        ces.try_dispatch(op(0, Some(10), [None, None]), &ctx);
        ces.try_dispatch(op(1, Some(11), [Some(10), None]), &ctx);
        // P-IQ 0 now full (2 entries); consumer of 11 must go elsewhere.
        ces.try_dispatch(op(2, Some(12), [Some(11), None]), &ctx);
        assert_eq!(ces.piq_len(0), 2);
        assert_eq!(ces.piq_len(1), 1);
    }

    #[test]
    fn completion_clears_location_so_consumers_allocate() {
        let mut ces = Ces::new(CesConfig::default());
        let mut scb = Scoreboard::new(348);
        scb.allocate(PhysReg(10));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        ces.try_dispatch(op(0, Some(10), [None, None]), &ctx);
        let _ = issue_once(&mut ces, &scb, 0);
        scb.set_ready_at(PhysReg(10), 1);
        ces.on_complete(PhysReg(10));
        // Consumer arrives after completion: producer not in any P-IQ.
        let ctx1 = ReadyCtx {
            cycle: 1,
            scb: &scb,
            held: &held,
        };
        ces.try_dispatch(op(1, Some(11), [Some(10), None]), &ctx1);
        assert_eq!(ces.steer_stats().alloc_ready, 2); // both allocations
    }

    #[test]
    fn mda_steers_load_behind_producer_store() {
        let mut ces = Ces::new(CesConfig {
            mda_steering: true,
            ..CesConfig::default()
        });
        let mut scb = Scoreboard::new(348);
        scb.allocate(PhysReg(20));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        // Store in a chain (non-ready), with ssid 5.
        let mut st = op(0, None, [Some(20), None]);
        st.class = OpClass::Store;
        st.ssid = Some(SsId(5));
        ces.try_dispatch(st, &ctx);
        // M-dependent load (register-ready!) with same ssid.
        let mut ld = op(1, Some(30), [None, None]);
        ld.class = OpClass::Load;
        ld.ssid = Some(SsId(5));
        ld.mdp_wait = Some(0);
        ces.try_dispatch(ld, &ctx);
        assert_eq!(ces.piq_len(0), 2, "load must share the store's P-IQ");
        // A second load of the set must NOT pile in (reserved).
        let mut ld2 = op(2, Some(31), [None, None]);
        ld2.class = OpClass::Load;
        ld2.ssid = Some(SsId(5));
        ces.try_dispatch(ld2, &ctx);
        assert_eq!(ces.piq_len(0), 2);
        assert_eq!(ces.piq_len(1), 1);
    }

    #[test]
    fn without_mda_load_takes_separate_piq() {
        let mut ces = Ces::new(CesConfig::default());
        let mut scb = Scoreboard::new(348);
        scb.allocate(PhysReg(20));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        let mut st = op(0, None, [Some(20), None]);
        st.class = OpClass::Store;
        st.ssid = Some(SsId(5));
        ces.try_dispatch(st, &ctx);
        let mut ld = op(1, Some(30), [None, None]);
        ld.class = OpClass::Load;
        ld.ssid = Some(SsId(5));
        ces.try_dispatch(ld, &ctx);
        assert_eq!(ces.piq_len(0), 1);
        assert_eq!(ces.piq_len(1), 1);
    }

    #[test]
    fn store_issue_releases_lfst_steer() {
        let mut ces = Ces::new(CesConfig {
            mda_steering: true,
            ..CesConfig::default()
        });
        let scb = Scoreboard::new(348);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        let mut st = op(0, None, [None, None]);
        st.class = OpClass::Store;
        st.ssid = Some(SsId(5));
        st.port = PortId(2);
        ces.try_dispatch(st, &ctx);
        let out = issue_once(&mut ces, &scb, 0);
        assert_eq!(out, vec![0]);
        // A later load of the set no longer finds steering info: it must
        // *allocate* (the now-empty P-IQ 0), not steer along a stale entry.
        let mut ld = op(1, Some(30), [None, None]);
        ld.class = OpClass::Load;
        ld.ssid = Some(SsId(5));
        ces.try_dispatch(ld, &ctx);
        assert_eq!(
            ces.steer_stats().steer_dc,
            0,
            "stale LFST info must not steer"
        );
        assert_eq!(
            ces.steer_stats().alloc_ready + ces.steer_stats().alloc_nonready,
            2
        );
    }

    #[test]
    fn head_stats_classify_mdp_blocked_loads() {
        let mut ces = Ces::new(CesConfig::default());
        let scb = Scoreboard::new(348);
        let mut held = HeldSet::new();
        held.insert(0u64);
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        let mut ld = op(0, Some(30), [None, None]);
        ld.class = OpClass::Load;
        ld.port = PortId(2);
        ces.try_dispatch(ld, &ctx);
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, 0);
        let mut out = Vec::new();
        ces.issue(&ctx, &mut pa, &mut out);
        assert!(out.is_empty());
        assert_eq!(ces.head_stats().stall_mdep_load, 1);
    }

    #[test]
    fn flush_restores_queues_and_locations() {
        let mut ces = Ces::new(CesConfig::default());
        let mut scb = Scoreboard::new(348);
        scb.allocate(PhysReg(10));
        scb.allocate(PhysReg(11));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        ces.try_dispatch(op(0, Some(10), [None, None]), &ctx);
        ces.try_dispatch(op(1, Some(11), [Some(10), None]), &ctx);
        ces.flush_after(0, &[PhysReg(11)]);
        assert_eq!(ces.occupancy(), 1);
        // Per §IV-F the Reserved flag set by the squashed consumer is NOT
        // restored: a refetched consumer of 10 allocates a new P-IQ rather
        // than re-steering. Correctness is unaffected.
        ces.try_dispatch(op(2, Some(12), [Some(10), None]), &ctx);
        assert_eq!(ces.piq_len(0), 1);
        assert_eq!(ces.piq_len(1), 1);
    }

    #[test]
    fn issue_breakdown_counts_piq_issues() {
        let mut ces = Ces::new(CesConfig::default());
        let scb = Scoreboard::new(348);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        ces.try_dispatch(op(0, None, [None, None]), &ctx);
        let _ = issue_once(&mut ces, &scb, 0);
        assert_eq!(ces.issue_breakdown().from_piq, 1);
    }
}
