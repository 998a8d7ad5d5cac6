//! The Ballerino scheduler (§IV): S-IQ speculative issue + P-SCB-driven
//! steering + MDA steering + P-IQ sharing, behind the common
//! [`Scheduler`] trait.

use crate::piq::{PartId, Piq};
use ballerino_isa::{PhysReg, MAX_PORTS};
use ballerino_sched::{
    DelayTracker, DispatchOutcome, HeadState, HeadStateStats, IssueBreakdown, LocTable, PortAlloc,
    ReadyCtx, SchedEnergyEvents, SchedUop, Scheduler, StallReason, SteerEvent, SteerStats,
};
use std::collections::VecDeque;

/// Ballerino configuration (Table II plus the step toggles of Fig. 13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallerinoConfig {
    /// S-IQ entries (Table II: 8 at 8-wide — 2× the dispatch width).
    pub siq_entries: usize,
    /// S-IQ slots examined per cycle (the speculative scheduling window;
    /// equals the rename width: 4r4w).
    pub siq_window: usize,
    /// Number of clustered P-IQs (7 for Ballerino, 11 for Ballerino-12).
    pub num_piqs: usize,
    /// Entries per P-IQ (Table II: 12).
    pub piq_entries: usize,
    /// Step 2: steer M-dependent loads behind their producer stores.
    pub mda_steering: bool,
    /// LDT steering: place memory μops behind the P-IQ tail whose
    /// predicted ready cycle (from the tracked load-delay table) best
    /// matches their own, in place of store-set (MDA) steering.
    pub ldt_steering: bool,
    /// Step 3: allow two chains to share one P-IQ.
    pub piq_sharing: bool,
    /// Fig. 13 "w/o constraints": lift the same-half and single-active-
    /// head constraints.
    pub ideal_sharing: bool,
    /// Physical registers tracked by the P-SCB.
    pub num_phys_regs: usize,
    /// Store-set ids tracked by the LFST steering extension.
    pub num_ssids: usize,
    /// How many cycles ahead a source may become ready while its consumer
    /// is allowed to linger in the S-IQ instead of being steered
    /// (captures the intra-group enable logic of Fig. 8: consumers of
    /// just-issued single-cycle producers issue back-to-back from the
    /// S-IQ).
    pub spec_horizon: u64,
}

impl Default for BallerinoConfig {
    fn default() -> Self {
        Self::eight_wide()
    }
}

impl BallerinoConfig {
    /// Ballerino at 8-wide: 8-entry S-IQ + 7×12-entry P-IQs (Table II).
    pub fn eight_wide() -> Self {
        BallerinoConfig {
            siq_entries: 8,
            siq_window: 4,
            num_piqs: 7,
            piq_entries: 12,
            mda_steering: true,
            ldt_steering: false,
            piq_sharing: true,
            ideal_sharing: false,
            num_phys_regs: 348,
            num_ssids: 128,
            spec_horizon: 1,
        }
    }

    /// Ballerino-12: 1 S-IQ + 11 P-IQs (§VI-A).
    pub fn twelve() -> Self {
        BallerinoConfig {
            num_piqs: 11,
            ..Self::eight_wide()
        }
    }

    /// Step 1 of Fig. 13: S-IQ + 7 P-IQs, no MDA steering, no sharing.
    pub fn step1() -> Self {
        BallerinoConfig {
            mda_steering: false,
            piq_sharing: false,
            ..Self::eight_wide()
        }
    }

    /// Step 2 of Fig. 13: Step 1 + MDA steering.
    pub fn step2() -> Self {
        BallerinoConfig {
            piq_sharing: false,
            ..Self::eight_wide()
        }
    }

    /// Ballerino-LDT: store-set steering replaced by tracked-load-delay
    /// steering (the LDT extension kind; see `ballerino_sched::ldt`).
    pub fn ldt() -> Self {
        BallerinoConfig {
            mda_steering: false,
            ldt_steering: true,
            ..Self::eight_wide()
        }
    }

    /// Step 3 without implementation constraints (ideal, Fig. 13).
    pub fn step3_ideal() -> Self {
        BallerinoConfig {
            ideal_sharing: true,
            ..Self::eight_wide()
        }
    }

    /// 4-wide variant (Table II: 8-entry S-IQ, 3×16-entry P-IQs).
    pub fn four_wide() -> Self {
        BallerinoConfig {
            siq_entries: 8,
            siq_window: 4,
            num_piqs: 3,
            piq_entries: 16,
            ..Self::eight_wide()
        }
    }

    /// 2-wide variant (Table II: 4-entry S-IQ, 1×16-entry P-IQ).
    pub fn two_wide() -> Self {
        BallerinoConfig {
            siq_entries: 4,
            siq_window: 2,
            num_piqs: 1,
            piq_entries: 16,
            ..Self::eight_wide()
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct LfstSteer {
    piq: u16,
    part: u8,
    reserved: bool,
    store_seq: u64,
}

/// Location encoding stored in the P-SCB: P-IQ index × partition.
fn encode_loc(piq: usize, part: PartId) -> u16 {
    (piq as u16) * 2 + part.0 as u16
}

fn decode_loc(loc: u16) -> (usize, PartId) {
    ((loc / 2) as usize, PartId((loc % 2) as u8))
}

/// Where `steer` places a μop.
#[derive(Debug, Clone, Copy)]
enum SteerTarget {
    /// Behind the tail of a partition (LDT, MDA or P-SCB dependence
    /// steering), reserving what it joined.
    Chain(usize, PartId, Reserve),
    /// A new dependence head.
    Alloc(AllocTarget),
}

/// What a chain steer reserves.
#[derive(Debug, Clone, Copy)]
enum Reserve {
    /// Nothing (LDT steering).
    Nothing,
    /// The LFST-steer entry of this store set (MDA steering).
    Lfst(usize),
    /// The winning source's P-SCB entry (dependence steering).
    Src(PhysReg),
}

/// Where a new dependence head goes.
#[derive(Debug, Clone, Copy)]
struct AllocTarget {
    piq: usize,
    part: PartId,
    /// The P-IQ enters sharing mode to host it (Step 3).
    share: bool,
}

/// A steering decision plus the table reads its walk makes, which are
/// charged whether or not a target is found.
#[derive(Debug, Clone, Copy, Default)]
struct SteerPlan {
    target: Option<SteerTarget>,
    /// LFST-steer read (MDA steering, only when an entry exists).
    lfst_reads: u64,
    /// P-SCB reads (one per source on the dependence walk).
    loc_reads: u64,
    /// Delay-table reads (LDT steering, one per source).
    dt_reads: u64,
}

/// Per-cycle shape of an idle S-IQ window walk (see
/// `Ballerino::idle_window_shape`).
struct IdleWindow {
    /// Entries that linger in the window (examined, no steer).
    lingerers: usize,
    /// Whether a failed-steer blocker terminates the walk.
    blocker: bool,
    /// First cycle at which the walk's shape changes.
    horizon: u64,
}

/// The Ballerino scheduler.
#[derive(Debug)]
pub struct Ballerino {
    cfg: BallerinoConfig,
    siq: VecDeque<SchedUop>,
    piqs: Vec<Piq>,
    /// P-SCB producer-location extension.
    loc: LocTable,
    lfst_steer: Vec<Option<LfstSteer>>,
    /// Load-delay tracker for LDT steering (only mutated when
    /// `cfg.ldt_steering`; its access counters fold into the P-SCB's).
    delays: DelayTracker,
    energy: SchedEnergyEvents,
    steer: SteerStats,
    heads: HeadStateStats,
    breakdown: IssueBreakdown,
    /// Sharing-mode activations (diagnostics / Fig. 13 analysis).
    pub sharing_activations: u64,
    name: String,
    reference_issue: bool,
}

impl Ballerino {
    /// Builds an empty Ballerino scheduler.
    pub fn new(cfg: BallerinoConfig) -> Self {
        let piqs = (0..cfg.num_piqs)
            .map(|_| Piq::new(cfg.piq_entries, cfg.ideal_sharing))
            .collect();
        let loc = LocTable::new(cfg.num_phys_regs);
        let lfst_steer = vec![None; cfg.num_ssids];
        let delays = DelayTracker::new(cfg.num_phys_regs);
        let mut name = format!("ballerino-{}", cfg.num_piqs + 1);
        if cfg.ldt_steering {
            name.push_str("-ldt");
        } else if !cfg.mda_steering {
            name.push_str("-step1");
        } else if !cfg.piq_sharing {
            name.push_str("-step2");
        } else if cfg.ideal_sharing {
            name.push_str("-ideal");
        }
        Ballerino {
            cfg,
            piqs,
            siq: VecDeque::new(),
            loc,
            lfst_steer,
            delays,
            energy: SchedEnergyEvents::default(),
            steer: SteerStats::default(),
            heads: HeadStateStats::default(),
            breakdown: IssueBreakdown::default(),
            sharing_activations: 0,
            name,
            reference_issue: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BallerinoConfig {
        &self.cfg
    }

    /// Current S-IQ occupancy (tests/diagnostics).
    pub fn siq_len(&self) -> usize {
        self.siq.len()
    }

    /// Occupancy of P-IQ `i` (tests/diagnostics).
    pub fn piq_len(&self, i: usize) -> usize {
        self.piqs[i].len()
    }

    /// Whether P-IQ `i` is in sharing mode.
    pub fn piq_shared(&self, i: usize) -> bool {
        self.piqs[i].is_shared()
    }

    fn push_tracked(&mut self, piq: usize, part: PartId, uop: SchedUop) {
        if let Some(d) = uop.dst {
            self.loc.set_location(d, encode_loc(piq, part));
        }
        if self.cfg.mda_steering && uop.is_store() {
            if let Some(ssid) = uop.ssid {
                self.lfst_steer[ssid.0 as usize] = Some(LfstSteer {
                    piq: piq as u16,
                    part: part.0,
                    reserved: false,
                    store_seq: uop.seq,
                });
                self.energy.loc_writes += 1;
            }
        }
        self.energy.queue_writes += 1;
        self.piqs[piq].push(part, uop);
    }

    /// LDT steering target: the partition whose tail's predicted ready
    /// cycle is the latest one not exceeding the μop's own prediction —
    /// the memory μop queues behind work that should finish no later
    /// than its operands arrive. Replaces store-set (MDA) steering in
    /// LDT mode; only memory μops are considered, mirroring MDA's
    /// applicability.
    ///
    /// Only tails *older* than the μop qualify: dependence-based steering
    /// (MDA, P-SCB) keeps every partition age-sorted for free because
    /// producers precede consumers, and forward progress leans on that —
    /// an unordered FIFO lets the globally oldest unissued μop sit behind
    /// younger entries whose producers wait behind it in another queue
    /// (a cross-queue dependence cycle that live-locks the machine).
    fn ldt_target(&self, uop: &SchedUop, plan: &mut SteerPlan) -> Option<SteerTarget> {
        if !self.cfg.ldt_steering || !(uop.is_load() || uop.is_store()) {
            return None;
        }
        let dt = &self.delays.table;
        let mut pred = 0u64;
        for src in uop.srcs.iter().flatten() {
            plan.dt_reads += 1;
            pred = pred.max(dt.peek(*src));
        }
        let mut best: Option<(u64, usize, PartId)> = None;
        for (k, q) in self.piqs.iter().enumerate() {
            for part in [PartId(0), PartId(1)] {
                if !q.can_push(part) {
                    continue;
                }
                let Some(tail) = q.back(part) else { continue };
                if tail.seq >= uop.seq {
                    continue;
                }
                let Some(d) = tail.dst else { continue };
                let tp = dt.peek(d);
                if tp == 0 || tp > pred {
                    continue;
                }
                // Strict improvement only: first-come wins ties, so the
                // lowest (queue, partition) pair is deterministic.
                if best.map(|(bt, _, _)| tp > bt).unwrap_or(true) {
                    best = Some((tp, k, part));
                }
            }
        }
        best.map(|(_, k, p)| SteerTarget::Chain(k, p, Reserve::Nothing))
    }

    /// Current load-delay estimate (LDT mode; tests/diagnostics).
    pub fn tracked_delay(&self) -> u64 {
        self.delays.delay()
    }

    /// Queues a just-issued load for delay observation (LDT mode).
    fn note_ldt_issue(&mut self, u: &SchedUop, cycle: u64) {
        if self.cfg.ldt_steering {
            self.delays.note_issue(u, cycle);
        }
    }

    /// MDA steering target (§III-B): the partition whose tail is the
    /// μop's predicted producer store. The LFST-steer read is charged
    /// only when an entry exists.
    fn mda_target(&self, uop: &SchedUop, plan: &mut SteerPlan) -> Option<SteerTarget> {
        if !self.cfg.mda_steering || !(uop.is_load() || uop.is_store()) {
            return None;
        }
        let ssid = uop.ssid?.0 as usize;
        let e = self.lfst_steer[ssid]?;
        plan.lfst_reads += 1;
        if e.reserved {
            return None;
        }
        let (k, part) = (e.piq as usize, PartId(e.part));
        let at_tail = self.piqs[k]
            .back(part)
            .map(|b| b.seq == e.store_seq)
            .unwrap_or(false);
        (at_tail && self.piqs[k].can_push(part)).then_some(SteerTarget::Chain(
            k,
            part,
            Reserve::Lfst(ssid),
        ))
    }

    /// R-dependence steering target: the partition holding a producer at
    /// its tail; with two candidates the younger producer's chain wins.
    fn rdep_target(&self, uop: &SchedUop, plan: &mut SteerPlan) -> Option<SteerTarget> {
        let mut best: Option<(usize, PartId, PhysReg, u64)> = None;
        for src in uop.srcs.iter().flatten() {
            plan.loc_reads += 1;
            let e = self.loc.peek(*src);
            let Some(enc) = e.iq_index else { continue };
            if e.reserved {
                continue;
            }
            let (k, part) = decode_loc(enc);
            if !self.piqs[k].can_push(part) {
                continue;
            }
            // The producer must still be resident at that tail.
            let tail_seq = match self.piqs[k].back(part) {
                Some(b) => b.seq,
                None => continue,
            };
            if best.map(|(_, _, _, s)| tail_seq > s).unwrap_or(true) {
                best = Some((k, part, *src, tail_seq));
            }
        }
        best.map(|(k, p, src, _)| SteerTarget::Chain(k, p, Reserve::Src(src)))
    }

    /// Allocation target for a new dependence head: an empty P-IQ, an
    /// empty partition of a shared P-IQ, or (Step 3) a freshly shared
    /// partition of an eligible P-IQ.
    fn alloc_target(&self) -> Option<AllocTarget> {
        let at = |piq, part, share| AllocTarget { piq, part, share };
        if let Some(k) = self
            .piqs
            .iter()
            .position(|q| q.is_empty() && !q.is_shared())
        {
            return Some(at(k, PartId(0), false));
        }
        for (k, q) in self.piqs.iter().enumerate() {
            if let Some(p) = q.empty_partition() {
                return Some(at(k, p, false));
            }
        }
        if self.cfg.piq_sharing {
            if let Some(k) = self.piqs.iter().position(|q| q.shareable()) {
                // Activation hands the new chain partition 1.
                return Some(at(k, PartId(1), true));
            }
        }
        None
    }

    /// The steering decision for one non-ready μop leaving the S-IQ
    /// window: LDT, then MDA, then P-SCB dependence steering, then a new
    /// head, stopping at the first target. Both the live `steer` and the
    /// quiesce probes (`idle_window_shape`, `note_idle_cycles`) use it.
    fn plan_steer(&self, uop: &SchedUop) -> SteerPlan {
        let mut plan = SteerPlan::default();
        plan.target = self.ldt_target(uop, &mut plan);
        if plan.target.is_none() {
            plan.target = self.mda_target(uop, &mut plan);
        }
        if plan.target.is_none() {
            plan.target = self.rdep_target(uop, &mut plan);
        }
        if plan.target.is_none() {
            plan.target = self.alloc_target().map(SteerTarget::Alloc);
        }
        plan
    }

    /// Charges `times` steering attempts that each make `plan`'s walk.
    fn charge(&mut self, plan: &SteerPlan, times: u64) {
        self.energy.steer_ops += times;
        self.energy.loc_reads += times * plan.lfst_reads;
        self.loc.reads += times * plan.loc_reads;
        self.delays.table.reads += times * plan.dt_reads;
    }

    /// Places a new dependence head, activating sharing if planned.
    /// `unshared` is the steer event recorded unless the P-IQ is shared.
    fn push_alloc(&mut self, a: AllocTarget, uop: SchedUop, unshared: SteerEvent) {
        if a.share {
            let part = self.piqs[a.piq].activate_sharing();
            debug_assert_eq!(part, a.part);
            self.sharing_activations += 1;
        }
        self.steer.record(if self.piqs[a.piq].is_shared() {
            SteerEvent::SteerShared
        } else {
            unshared
        });
        self.push_tracked(a.piq, a.part, uop);
    }

    /// Steers one non-ready μop out of the S-IQ window. Returns whether a
    /// P-IQ accepted it.
    fn steer(&mut self, uop: &SchedUop) -> bool {
        let plan = self.plan_steer(uop);
        self.charge(&plan, 1);
        match plan.target {
            None => return false,
            Some(SteerTarget::Chain(k, part, reserve)) => {
                match reserve {
                    Reserve::Nothing => {}
                    Reserve::Lfst(ssid) => {
                        self.lfst_steer[ssid].as_mut().expect("planned").reserved = true;
                        self.energy.loc_writes += 1;
                    }
                    Reserve::Src(src) => self.loc.reserve(src),
                }
                self.steer.record(SteerEvent::SteerDc);
                self.push_tracked(k, part, *uop);
            }
            Some(SteerTarget::Alloc(a)) => self.push_alloc(a, *uop, SteerEvent::AllocNonReady),
        }
        true
    }

    /// Ready but port-denied (§IV-C case 3): steers the μop to a new
    /// P-IQ head, where it is re-examined next cycle. Returns whether a
    /// queue took it; with none free it simply stays in the S-IQ.
    fn steer_port_denied(&mut self, uop: SchedUop) -> bool {
        self.energy.steer_ops += 1;
        let Some(a) = self.alloc_target() else {
            return false;
        };
        self.push_alloc(a, uop, SteerEvent::AllocReady);
        true
    }

    /// Walks the S-IQ window exactly as an issue-free `issue` call would,
    /// without mutating anything. Returns `None` when the walk is not
    /// idle (an entry would issue, fight for a port, or be steered), else
    /// the walk's per-cycle shape: how many entries linger, whether a
    /// failed-steer blocker terminates the walk, and the first cycle at
    /// which the shape itself changes.
    fn idle_window_shape(&self, ctx: &ReadyCtx<'_>) -> Option<IdleWindow> {
        let window = self.cfg.siq_window.min(self.siq.len());
        if window > 16 {
            return None; // conservative: fixed lingering buffer below
        }
        let mut lingering = [PhysReg(0); 16];
        let mut n_linger = 0usize;
        let mut horizon = u64::MAX;
        let mut lingerers = 0usize;
        for i in 0..window {
            let u = &self.siq[i];
            if ctx.is_ready(u) {
                return None; // would issue or contend for a port now
            }
            let held = ctx.held.contains(u.seq);
            if !held {
                let mut far_rc_max = 0u64;
                let mut far = false;
                for s in u.srcs.iter().flatten() {
                    let rc = ctx.scb.ready_cycle(*s);
                    if rc > ctx.cycle + self.cfg.spec_horizon && !lingering[..n_linger].contains(s)
                    {
                        far = true;
                        far_rc_max = far_rc_max.max(rc);
                    }
                }
                if !far {
                    // Lingers for back-to-back issue; wakes (and issues)
                    // once every source is ready.
                    let rc = ctx.scb.srcs_ready_cycle(&u.srcs);
                    if rc != u64::MAX {
                        horizon = horizon.min(rc);
                    }
                    if let Some(d) = u.dst {
                        lingering[n_linger] = d;
                        n_linger += 1;
                    }
                    lingerers += 1;
                    continue;
                }
                // Far blocker: it starts lingering (changing the walk
                // shape) once its farthest source slides inside the
                // speculation horizon.
                if far_rc_max != u64::MAX {
                    horizon = horizon.min(far_rc_max - self.cfg.spec_horizon);
                }
            }
            if self.plan_steer(u).target.is_some() {
                return None; // steering would move it to a P-IQ
            }
            return Some(IdleWindow {
                lingerers,
                blocker: true,
                horizon,
            });
        }
        Some(IdleWindow {
            lingerers,
            blocker: false,
            horizon,
        })
    }

    fn release_store_lfst(&mut self, u: &SchedUop) {
        if self.cfg.mda_steering && u.is_store() {
            if let Some(ssid) = u.ssid {
                if let Some(e) = self.lfst_steer[ssid.0 as usize] {
                    if e.store_seq == u.seq {
                        self.lfst_steer[ssid.0 as usize] = None;
                    }
                }
            }
        }
    }
}

impl Ballerino {
    /// Switches to the seed's per-cycle-allocating issue path (identical
    /// grant decisions); kept for the `perf_smoke` reference baseline.
    pub fn with_reference_issue(mut self) -> Self {
        self.reference_issue = true;
        self
    }

    /// The seed's issue path, frozen verbatim for the `perf_smoke`
    /// reference baseline: allocates its tracking buffers every cycle
    /// and asks each P-IQ for a heap-allocated candidate list. Grant
    /// decisions are identical to [`Scheduler::issue`].
    fn issue_reference(
        &mut self,
        ctx: &ReadyCtx<'_>,
        ports: &mut PortAlloc<'_>,
        out: &mut Vec<u64>,
    ) {
        // Destinations of single-cycle μops issued *this very cycle*: the
        // scoreboard is only updated by the pipeline after this call, so
        // the intra-group enable logic (Fig. 8) must track them here to
        // keep their consumers in the S-IQ for back-to-back issue.
        let mut just_issued: Vec<PhysReg> = Vec::new();
        let note_issue = |u: &SchedUop, v: &mut Vec<PhysReg>| {
            if !u.is_load() && u.class.exec_latency() as u64 <= 1 {
                if let Some(d) = u.dst {
                    v.push(d);
                }
            }
        };

        // ---- 1. P-IQ heads: highest select priority (prefix-sum order,
        //         §IV-E), examined via the active head pointer(s).
        let mut any_candidate = false;
        for k in 0..self.piqs.len() {
            let mut issued_part: Option<PartId> = None;
            let mut recorded = false;
            for part in self.piqs[k].issue_candidates_vec() {
                let state = match self.piqs[k].front(part) {
                    None => HeadState::Empty,
                    Some(head) => {
                        self.energy.head_examinations += 1;
                        ctx.claim_head(head, ports)
                    }
                };
                any_candidate |= matches!(state, HeadState::Issuing | HeadState::StallPortConflict);
                if !recorded {
                    // One observation per queue per cycle.
                    self.heads.record(state);
                    recorded = true;
                }
                if state == HeadState::Issuing {
                    let u = self.piqs[k].pop(part).expect("head present");
                    self.energy.queue_reads += 1;
                    self.breakdown.from_piq += 1;
                    self.release_store_lfst(&u);
                    self.note_ldt_issue(&u, ctx.cycle);
                    note_issue(&u, &mut just_issued);
                    out.push(u.seq);
                    issued_part = Some(part);
                }
            }
            self.piqs[k].end_cycle(issued_part);
        }

        // ---- 2. S-IQ speculative scheduling window: ready μops issue,
        //         far-from-ready μops are steered to the P-IQs.
        let window = self.cfg.siq_window.min(self.siq.len());
        let mut remove: Vec<usize> = Vec::new();
        let mut lingering: Vec<PhysReg> = Vec::new();
        for i in 0..window {
            let u = self.siq[i];
            self.energy.head_examinations += 1;
            if ctx.is_ready(&u) {
                any_candidate = true;
                if ports.try_claim(u.port, u.class) {
                    self.energy.queue_reads += 1;
                    self.breakdown.from_siq += 1;
                    self.steer.record(SteerEvent::SpeculativeIssue);
                    self.release_store_lfst(&u);
                    self.note_ldt_issue(&u, ctx.cycle);
                    note_issue(&u, &mut just_issued);
                    out.push(u.seq);
                    remove.push(i);
                } else if self.steer_port_denied(u) {
                    remove.push(i);
                }
                continue;
            }
            // Held loads must move to the P-IQs (ideally behind their
            // producer store via MDA steering).
            let held = ctx.held.contains(u.seq);
            if !held {
                // Soon-ready consumers linger for back-to-back issue; a
                // source counts as soon-ready when its producer issued
                // within this very cycle with single-cycle latency, or
                // when the producer itself lingers in the window (the
                // intra-group dependence analysis of Fig. 8 keeps whole
                // soon-ready chains in the S-IQ).
                let far = u.srcs.iter().flatten().any(|s| {
                    let rc = ctx.scb.ready_cycle(*s);
                    rc > ctx.cycle + self.cfg.spec_horizon
                        && !just_issued.contains(s)
                        && !lingering.contains(s)
                });
                if !far {
                    if let Some(d) = u.dst {
                        lingering.push(d);
                    }
                    continue;
                }
            }
            if self.steer(&u) {
                remove.push(i);
            } else {
                // Steering stall: the window cannot advance past this μop.
                self.steer.record(SteerEvent::StallNonReady);
                break;
            }
        }
        for &i in remove.iter().rev() {
            self.siq.remove(i);
        }

        if any_candidate {
            // Each port's prefix-sum sees P-IQ head requests above S-IQ
            // slot requests (§IV-E).
            let inputs = self.cfg.num_piqs + self.cfg.siq_window;
            self.energy.select_inputs += inputs as u64;
        }
    }
}

impl Scheduler for Ballerino {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, uop: SchedUop, ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        if self.siq.len() >= self.cfg.siq_entries {
            return DispatchOutcome::Stall(StallReason::Full);
        }
        if self.cfg.ldt_steering {
            // Annotate the dependence chain with predicted ready cycles
            // (after the full-check: refused dispatches touch nothing,
            // which the quiesce replay relies on).
            self.delays.annotate(&uop, ctx.cycle);
        }
        self.energy.queue_writes += 1;
        self.siq.push_back(uop);
        DispatchOutcome::Accepted
    }

    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>) {
        if self.cfg.ldt_steering {
            self.delays.observe(ctx.scb);
        }
        if self.reference_issue {
            return self.issue_reference(ctx, ports, out);
        }
        // Destinations of single-cycle μops issued *this very cycle*: the
        // scoreboard is only updated by the pipeline after this call, so
        // the intra-group enable logic (Fig. 8) must track them here to
        // keep their consumers in the S-IQ for back-to-back issue. Issues
        // are port claims, so MAX_PORTS bounds them per cycle.
        let mut just_issued = [PhysReg(0); MAX_PORTS];
        let mut n_issued = 0usize;
        fn note_issue(u: &SchedUop, v: &mut [PhysReg; MAX_PORTS], n: &mut usize) {
            if !u.is_load() && u.class.exec_latency() as u64 <= 1 {
                if let Some(d) = u.dst {
                    v[*n] = d;
                    *n += 1;
                }
            }
        }

        // ---- 1. P-IQ heads: highest select priority (prefix-sum order,
        //         §IV-E), examined via the active head pointer(s).
        let mut any_candidate = false;
        for k in 0..self.piqs.len() {
            let mut issued_part: Option<PartId> = None;
            let mut recorded = false;
            for part in self.piqs[k].issue_candidates() {
                let state = match self.piqs[k].front(part) {
                    None => HeadState::Empty,
                    Some(head) => {
                        self.energy.head_examinations += 1;
                        ctx.claim_head(head, ports)
                    }
                };
                any_candidate |= matches!(state, HeadState::Issuing | HeadState::StallPortConflict);
                if !recorded {
                    // One observation per queue per cycle.
                    self.heads.record(state);
                    recorded = true;
                }
                if state == HeadState::Issuing {
                    let u = self.piqs[k].pop(part).expect("head present");
                    self.energy.queue_reads += 1;
                    self.breakdown.from_piq += 1;
                    self.release_store_lfst(&u);
                    self.note_ldt_issue(&u, ctx.cycle);
                    note_issue(&u, &mut just_issued, &mut n_issued);
                    out.push(u.seq);
                    issued_part = Some(part);
                }
            }
            self.piqs[k].end_cycle(issued_part);
        }

        // ---- 2. S-IQ speculative scheduling window: ready μops issue,
        //         far-from-ready μops are steered to the P-IQs.
        let window = self.cfg.siq_window.min(self.siq.len());
        debug_assert!(
            window <= 32,
            "S-IQ window wider than the fixed issue buffers"
        );
        let mut remove_mask = 0u32;
        let mut lingering = [PhysReg(0); 32];
        let mut n_linger = 0usize;
        for i in 0..window {
            let u = self.siq[i];
            self.energy.head_examinations += 1;
            if ctx.is_ready(&u) {
                any_candidate = true;
                if ports.try_claim(u.port, u.class) {
                    self.energy.queue_reads += 1;
                    self.breakdown.from_siq += 1;
                    self.steer.record(SteerEvent::SpeculativeIssue);
                    self.release_store_lfst(&u);
                    self.note_ldt_issue(&u, ctx.cycle);
                    note_issue(&u, &mut just_issued, &mut n_issued);
                    out.push(u.seq);
                    remove_mask |= 1 << i;
                } else if self.steer_port_denied(u) {
                    remove_mask |= 1 << i;
                }
                continue;
            }
            // Held loads must move to the P-IQs (ideally behind their
            // producer store via MDA steering).
            let held = ctx.held.contains(u.seq);
            if !held {
                // Soon-ready consumers linger for back-to-back issue; a
                // source counts as soon-ready when its producer issued
                // within this very cycle with single-cycle latency, or
                // when the producer itself lingers in the window (the
                // intra-group dependence analysis of Fig. 8 keeps whole
                // soon-ready chains in the S-IQ).
                let far = u.srcs.iter().flatten().any(|s| {
                    let rc = ctx.scb.ready_cycle(*s);
                    rc > ctx.cycle + self.cfg.spec_horizon
                        && !just_issued[..n_issued].contains(s)
                        && !lingering[..n_linger].contains(s)
                });
                if !far {
                    if let Some(d) = u.dst {
                        lingering[n_linger] = d;
                        n_linger += 1;
                    }
                    continue;
                }
            }
            if self.steer(&u) {
                remove_mask |= 1 << i;
            } else {
                // Steering stall: the window cannot advance past this μop.
                self.steer.record(SteerEvent::StallNonReady);
                break;
            }
        }
        for i in (0..window).rev() {
            if remove_mask & (1 << i) != 0 {
                self.siq.remove(i);
            }
        }

        if any_candidate {
            // Each port's prefix-sum sees P-IQ head requests above S-IQ
            // slot requests (§IV-E).
            let inputs = self.cfg.num_piqs + self.cfg.siq_window;
            self.energy.select_inputs += inputs as u64;
        }
    }

    fn on_complete(&mut self, dst: PhysReg) {
        self.loc.clear(dst);
        if self.cfg.ldt_steering {
            // The value exists: its delay prediction is spent.
            self.delays.table.clear(dst);
        }
    }

    fn flush_after(&mut self, seq: u64, flushed_dests: &[PhysReg]) {
        while self.siq.back().map(|u| u.seq > seq).unwrap_or(false) {
            self.siq.pop_back();
        }
        for q in &mut self.piqs {
            q.flush_after(seq);
        }
        for d in flushed_dests {
            self.loc.clear(*d);
        }
        if self.cfg.ldt_steering {
            self.delays.flush(flushed_dests);
        }
        for e in &mut self.lfst_steer {
            if e.map(|s| s.store_seq > seq).unwrap_or(false) {
                *e = None;
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.siq.len() + self.piqs.iter().map(|q| q.len()).sum::<usize>()
    }

    fn capacity(&self) -> usize {
        self.cfg.siq_entries + self.cfg.num_piqs * self.cfg.piq_entries
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        let mut e = self.energy;
        e.loc_reads += self.loc.reads + self.delays.table.reads;
        e.loc_writes += self.loc.writes + self.delays.table.writes;
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
        if pending.is_some() && self.siq.len() < self.cfg.siq_entries {
            return None; // dispatch would be accepted this cycle
        }
        let mut horizon = u64::MAX;
        // P-IQ heads. The single-active-head toggle visits both partitions
        // of a shared queue across idle cycles, so both heads must hold
        // still and both bound the horizon: a non-held head issues when
        // its sources arrive, and a held head's recorded state flips from
        // StallNonReady to StallMdepLoad at the same point.
        for q in &self.piqs {
            for part in [PartId(0), PartId(1)] {
                let Some(head) = q.front(part) else { continue };
                horizon = horizon.min(ctx.stall_horizon(head)?);
            }
        }
        let shape = self.idle_window_shape(ctx)?;
        Some(horizon.min(shape.horizon))
    }

    fn note_idle_cycles(&mut self, ctx: &ReadyCtx<'_>, _pending: Option<&SchedUop>, k: u64) {
        if k == 0 {
            return;
        }
        if self.cfg.ldt_steering {
            // The first idle `issue` call would have drained the
            // observation queue; it cannot refill during an idle window,
            // so one drain replicates all k.
            self.delays.observe(ctx.scb);
        }
        // ---- 1. P-IQ heads: replay examinations, head-state records and
        //         the active-pointer toggle in closed form.
        for qi in 0..self.piqs.len() {
            // (head examinations, up to two (state, count) records)
            let (exams, rec0, rec1) = {
                let q = &self.piqs[qi];
                if !q.is_shared() {
                    match q.front(PartId(0)) {
                        None => (0, Some((HeadState::Empty, k)), None),
                        Some(h) => (k, Some((ctx.stall_state(h), k)), None),
                    }
                } else if self.cfg.ideal_sharing {
                    // Both heads examined every cycle; the partition-0
                    // head is the one recorded.
                    let mut exams = 0;
                    let s0 = match q.front(PartId(0)) {
                        None => HeadState::Empty,
                        Some(h) => {
                            exams += k;
                            ctx.stall_state(h)
                        }
                    };
                    if q.front(PartId(1)).is_some() {
                        exams += k;
                    }
                    (exams, Some((s0, k)), None)
                } else {
                    let a = q.active_part();
                    let b = PartId(1 - a.0);
                    match (q.front(a), q.front(b)) {
                        (Some(ha), Some(hb)) => {
                            // Period-2 alternation: active head first.
                            (
                                k,
                                Some((ctx.stall_state(ha), k - k / 2)),
                                Some((ctx.stall_state(hb), k / 2)),
                            )
                        }
                        (Some(ha), None) => (k, Some((ctx.stall_state(ha), k)), None),
                        (None, Some(hb)) => {
                            // One Empty observation, then the pointer
                            // leaves the drained partition for good.
                            (
                                k - 1,
                                Some((HeadState::Empty, 1)),
                                Some((ctx.stall_state(hb), k - 1)),
                            )
                        }
                        (None, None) => {
                            debug_assert!(false, "shared P-IQ with both partitions empty");
                            (0, None, None)
                        }
                    }
                }
            };
            self.energy.head_examinations += exams;
            if let Some((s, n)) = rec0 {
                self.heads.record_n(s, n);
            }
            if let Some((s, n)) = rec1 {
                self.heads.record_n(s, n);
            }
            self.piqs[qi].end_idle_cycles(k);
        }
        // ---- 2. S-IQ window: lingering entries cost one examination
        //         each; a failed-steer blocker repeats its refused
        //         steering walk every cycle.
        if let Some(shape) = self.idle_window_shape(ctx) {
            self.energy.head_examinations += k * shape.lingerers as u64;
            if shape.blocker {
                let plan = self.plan_steer(&self.siq[shape.lingerers]);
                debug_assert!(plan.target.is_none(), "idle blocker would steer");
                self.charge(&plan, k);
                self.energy.head_examinations += k;
                self.steer.record_n(SteerEvent::StallNonReady, k);
            }
        }
    }

    fn debug_locate(&self, seq: u64) -> String {
        let mut s = String::new();
        if let Some(i) = self.siq.iter().position(|u| u.seq == seq) {
            s.push_str(&format!(
                "siq[{i}] (window {}, len {}); ",
                self.cfg.siq_window,
                self.siq.len()
            ));
        }
        for (k, q) in self.piqs.iter().enumerate() {
            for (j, u) in q.iter().enumerate() {
                if u.seq == seq {
                    s.push_str(&format!(
                        "piq[{k}][{j}] shared={} active={:?} f0={:?} f1={:?}; ",
                        q.is_shared(),
                        q.active_part(),
                        q.front(PartId(0)).map(|u| u.seq),
                        q.front(PartId(1)).map(|u| u.seq),
                    ));
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballerino_isa::{OpClass, PortId};
    use ballerino_mem::SsId;
    use ballerino_sched::ldt::INITIAL_TRACKED_DELAY;
    use ballerino_sched::{FuBusy, HeldSet, Scoreboard};

    fn op(seq: u64, dst: Option<u32>, srcs: [Option<u32>; 2]) -> SchedUop {
        SchedUop {
            port: PortId((seq % 4) as u8),
            srcs: [srcs[0].map(PhysReg), srcs[1].map(PhysReg)],
            dst: dst.map(PhysReg),
            ..SchedUop::test_op(seq)
        }
    }

    struct Rig {
        b: Ballerino,
        scb: Scoreboard,
        held: HeldSet,
    }

    impl Rig {
        fn new(cfg: BallerinoConfig) -> Self {
            Rig {
                b: Ballerino::new(cfg),
                scb: Scoreboard::new(348),
                held: HeldSet::new(),
            }
        }

        fn dispatch(&mut self, u: SchedUop) -> DispatchOutcome {
            let ctx = ReadyCtx {
                cycle: 0,
                scb: &self.scb,
                held: &self.held,
            };
            self.b.try_dispatch(u, &ctx)
        }

        fn issue(&mut self, cycle: u64) -> Vec<u64> {
            let ctx = ReadyCtx {
                cycle,
                scb: &self.scb,
                held: &self.held,
            };
            let busy = FuBusy::new();
            let mut pa = PortAlloc::new(8, 8, &busy, cycle);
            let mut out = Vec::new();
            self.b.issue(&ctx, &mut pa, &mut out);
            out
        }
    }

    #[test]
    fn ready_ops_issue_speculatively_without_piq_allocation() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        for i in 0..4 {
            assert_eq!(
                r.dispatch(op(i, None, [None, None])),
                DispatchOutcome::Accepted
            );
        }
        let out = r.issue(0);
        assert_eq!(out.len(), 4);
        assert_eq!(r.b.issue_breakdown().from_siq, 4);
        assert_eq!(r.b.piqs.iter().map(|q| q.len()).sum::<usize>(), 0);
    }

    #[test]
    fn far_nonready_ops_are_steered_along_chains() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        for p in [10, 11, 12] {
            r.scb.allocate(PhysReg(p));
        }
        // Producer never issues; chain 10 -> 11 -> 12.
        r.dispatch(op(0, Some(11), [Some(10), None]));
        r.dispatch(op(1, Some(12), [Some(11), None]));
        let out = r.issue(0);
        assert!(out.is_empty());
        assert_eq!(r.b.piq_len(0), 2, "chain shares one P-IQ");
        assert_eq!(r.b.steer_stats().steer_dc, 1);
        assert_eq!(r.b.steer_stats().alloc_nonready, 1);
    }

    #[test]
    fn soon_ready_consumer_lingers_for_back_to_back() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        r.dispatch(op(0, Some(10), [None, None])); // ready producer
        r.dispatch(op(1, Some(11), [Some(10), None])); // consumer
                                                       // Cycle 0: producer issues; consumer is 1 cycle from ready and
                                                       // must NOT be steered.
        let out = r.issue(0);
        assert_eq!(out, vec![0]);
        r.scb.set_ready_at(PhysReg(10), 1); // pipeline would do this at issue
        r.b.on_complete(PhysReg(10)); // ...and deliver this edge at writeback
        assert_eq!(r.b.siq_len(), 1);
        assert_eq!(r.b.piq_len(0), 0);
        // Cycle 1: back-to-back issue from the S-IQ.
        let out = r.issue(1);
        assert_eq!(out, vec![1]);
        assert_eq!(r.b.issue_breakdown().from_siq, 2);
    }

    #[test]
    fn piq_head_issues_when_long_latency_producer_completes() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        r.dispatch(op(1, Some(11), [Some(10), None]));
        let _ = r.issue(0); // steered to P-IQ 0
        assert_eq!(r.b.piq_len(0), 1);
        r.scb.set_ready_at(PhysReg(10), 40);
        r.b.on_complete(PhysReg(10));
        let out = r.issue(40);
        assert_eq!(out, vec![1]);
        assert_eq!(r.b.issue_breakdown().from_piq, 1);
    }

    #[test]
    fn sharing_activates_when_piqs_exhausted() {
        let mut r = Rig::new(BallerinoConfig {
            num_piqs: 2,
            ..BallerinoConfig::eight_wide()
        });
        for p in 10..20 {
            r.scb.allocate(PhysReg(p));
        }
        // Three independent blocked chains; only 2 P-IQs.
        r.dispatch(op(0, Some(15), [Some(10), None]));
        r.dispatch(op(1, Some(16), [Some(11), None]));
        r.dispatch(op(2, Some(17), [Some(12), None]));
        let _ = r.issue(0);
        assert_eq!(r.b.sharing_activations, 1);
        assert!(r.b.piq_shared(0));
        assert_eq!(r.b.piq_len(0), 2);
        assert_eq!(r.b.steer_stats().steer_shared, 1);
    }

    #[test]
    fn sharing_disabled_blocks_third_chain_in_siq() {
        let mut r = Rig::new(BallerinoConfig {
            num_piqs: 2,
            piq_sharing: false,
            ..BallerinoConfig::eight_wide()
        });
        for p in 10..20 {
            r.scb.allocate(PhysReg(p));
        }
        r.dispatch(op(0, Some(15), [Some(10), None]));
        r.dispatch(op(1, Some(16), [Some(11), None]));
        r.dispatch(op(2, Some(17), [Some(12), None]));
        let _ = r.issue(0);
        assert_eq!(r.b.siq_len(), 1, "third chain stalls in S-IQ");
        assert!(r.b.steer_stats().stall_nonready > 0);
    }

    #[test]
    fn steering_stall_blocks_younger_window_entries() {
        let mut r = Rig::new(BallerinoConfig {
            num_piqs: 1,
            piq_sharing: false,
            ..BallerinoConfig::eight_wide()
        });
        for p in 10..20 {
            r.scb.allocate(PhysReg(p));
        }
        r.dispatch(op(0, Some(15), [Some(10), None])); // takes P-IQ 0
        r.dispatch(op(1, Some(16), [Some(11), None])); // stalls: no queue
        r.dispatch(op(2, None, [None, None])); // ready, behind the stall
        let out = r.issue(0);
        assert!(
            out.is_empty(),
            "blocked head must not let younger μops issue: {out:?}"
        );
    }

    #[test]
    fn shared_partition_issues_out_of_order_wrt_other_partition() {
        let mut r = Rig::new(BallerinoConfig {
            num_piqs: 1,
            ..BallerinoConfig::eight_wide()
        });
        for p in 10..20 {
            r.scb.allocate(PhysReg(p));
        }
        r.dispatch(op(0, Some(15), [Some(10), None])); // chain A -> P-IQ 0
        r.dispatch(op(1, Some(16), [Some(11), None])); // chain B -> shared part 1
        let _ = r.issue(0);
        assert!(r.b.piq_shared(0));
        // Chain B's producer completes first.
        r.scb.set_ready_at(PhysReg(11), 10);
        r.b.on_complete(PhysReg(11));
        // The active head starts at partition 0 (blocked); with no issue
        // it toggles, so within two cycles partition 1 must issue.
        let mut issued = Vec::new();
        for t in 10..13 {
            issued.extend(r.issue(t));
        }
        assert_eq!(issued, vec![1], "younger chain must bypass the blocked one");
    }

    #[test]
    fn ideal_sharing_issues_without_toggle_delay() {
        let mut r = Rig::new(BallerinoConfig {
            num_piqs: 1,
            ideal_sharing: true,
            ..BallerinoConfig::eight_wide()
        });
        for p in 10..20 {
            r.scb.allocate(PhysReg(p));
        }
        r.dispatch(op(0, Some(15), [Some(10), None]));
        r.dispatch(op(1, Some(16), [Some(11), None]));
        let _ = r.issue(0);
        r.scb.set_ready_at(PhysReg(11), 10);
        r.b.on_complete(PhysReg(11));
        let out = r.issue(10);
        assert_eq!(out, vec![1], "ideal mode examines both heads every cycle");
    }

    #[test]
    fn mda_steering_places_load_behind_store() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(20));
        let mut st = op(0, None, [Some(20), None]);
        st.class = OpClass::Store;
        st.ssid = Some(SsId(3));
        st.port = PortId(2);
        r.dispatch(st);
        let mut ld = op(1, Some(30), [None, None]);
        ld.class = OpClass::Load;
        ld.ssid = Some(SsId(3));
        ld.mdp_wait = Some(0);
        ld.port = PortId(3);
        r.held.insert(1); // register-ready but MDP-held
        r.dispatch(ld);
        let _ = r.issue(0);
        assert_eq!(
            r.b.piq_len(0),
            2,
            "store and its M-dependent load share P-IQ 0"
        );
        assert_eq!(r.b.steer_stats().steer_dc, 1);
    }

    #[test]
    fn without_mda_held_load_takes_own_piq() {
        let mut r = Rig::new(BallerinoConfig::step1());
        r.scb.allocate(PhysReg(20));
        let mut st = op(0, None, [Some(20), None]);
        st.class = OpClass::Store;
        st.ssid = Some(SsId(3));
        r.dispatch(st);
        let mut ld = op(1, Some(30), [None, None]);
        ld.class = OpClass::Load;
        ld.ssid = Some(SsId(3));
        r.held.insert(1);
        r.dispatch(ld);
        let _ = r.issue(0);
        assert_eq!(r.b.piq_len(0), 1);
        assert_eq!(
            r.b.piq_len(1),
            1,
            "Step 1 wastes a P-IQ on the M-dependent load"
        );
    }

    #[test]
    fn ready_but_port_denied_is_steered_to_new_head() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        // Two ready μops competing for the same port.
        let mut a = op(0, None, [None, None]);
        a.port = PortId(5);
        let mut b = op(1, None, [None, None]);
        b.port = PortId(5);
        r.dispatch(a);
        r.dispatch(b);
        let out = r.issue(0);
        assert_eq!(out, vec![0]);
        assert_eq!(r.b.piq_len(0), 1, "loser steered to a P-IQ head");
        assert_eq!(r.b.steer_stats().alloc_ready, 1);
        // Next cycle it issues from the P-IQ head.
        let out = r.issue(1);
        assert_eq!(out, vec![1]);
        assert_eq!(r.b.issue_breakdown().from_piq, 1);
    }

    #[test]
    fn piq_heads_win_port_arbitration_over_siq() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        let mut old = op(0, Some(15), [Some(10), None]);
        old.port = PortId(5);
        r.dispatch(old);
        let _ = r.issue(0); // steered to P-IQ
                            // Make it ready, then race a younger ready S-IQ μop on the port.
        r.scb.set_ready_at(PhysReg(10), 5);
        r.b.on_complete(PhysReg(10));
        let mut young = op(1, None, [None, None]);
        young.port = PortId(5);
        r.dispatch(young);
        let out = r.issue(5);
        assert_eq!(out, vec![0], "P-IQ head (older) has select priority");
    }

    #[test]
    fn flush_clears_siq_piqs_and_lfst() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        let mut st = op(0, None, [Some(10), None]);
        st.class = OpClass::Store;
        st.ssid = Some(SsId(2));
        r.dispatch(st);
        r.dispatch(op(1, Some(11), [Some(10), None]));
        r.dispatch(op(2, Some(12), [None, None]));
        let _ = r.issue(0); // st and op1 steered (both depend on 10)
        r.b.flush_after(0, &[PhysReg(11), PhysReg(12)]);
        assert_eq!(r.b.occupancy(), 1);
        // LFST steering entry for a younger store would be gone; here the
        // store itself (seq 0) survives.
        assert_eq!(r.b.piqs.iter().map(|q| q.len()).sum::<usize>(), 1);
    }

    #[test]
    fn debug_locate_names_queue_and_index() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        r.scb.allocate(PhysReg(11));
        r.dispatch(op(0, Some(15), [Some(10), None]));
        let _ = r.issue(0); // far from ready: steered to P-IQ 0
        r.dispatch(op(1, Some(16), [Some(11), None])); // parked in the S-IQ
        let piq = r.b.debug_locate(0);
        assert!(piq.starts_with("piq[0][0] "), "{piq}");
        assert!(!piq.contains("siq["), "{piq}");
        let siq = r.b.debug_locate(1);
        assert!(siq.starts_with("siq[0] "), "{siq}");
        assert!(!siq.contains("piq["), "{siq}");
        assert_eq!(r.b.debug_locate(7), "", "non-resident seq");
    }

    #[test]
    fn capacity_counts_siq_plus_piqs() {
        let b = Ballerino::new(BallerinoConfig::eight_wide());
        assert_eq!(b.capacity(), 8 + 7 * 12);
        let b12 = Ballerino::new(BallerinoConfig::twelve());
        assert_eq!(b12.capacity(), 8 + 11 * 12);
    }

    #[test]
    fn siq_full_stalls_dispatch() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        for i in 0..8 {
            assert_eq!(
                r.dispatch(op(i, None, [Some(10), None])),
                DispatchOutcome::Accepted
            );
        }
        assert_eq!(
            r.dispatch(op(8, None, [Some(10), None])),
            DispatchOutcome::Stall(StallReason::Full)
        );
    }

    #[test]
    fn ldt_steering_places_memory_op_behind_predicted_tail() {
        let mut r = Rig::new(BallerinoConfig::ldt());
        r.scb.allocate(PhysReg(10));
        r.scb.allocate(PhysReg(20));
        // Load A annotates dst 10 with the tracked delay and issues.
        let mut a = op(0, Some(10), [None, None]);
        a.class = OpClass::Load;
        r.dispatch(a);
        // Chain head C is steered to a fresh P-IQ; its dst prediction
        // (exec latency) becomes a steering tail candidate.
        r.dispatch(op(1, Some(21), [Some(20), None]));
        // Load D consumes A's dst: its prediction (4) covers C's tail
        // prediction (1), so LDT steering queues it behind C.
        let mut d = op(2, Some(11), [Some(10), None]);
        d.class = OpClass::Load;
        r.dispatch(d);
        let out = r.issue(0);
        assert_eq!(out, vec![0]);
        assert_eq!(r.b.piq_len(0), 2, "D steered behind C's predicted tail");
        assert_eq!(r.b.steer_stats().steer_dc, 1);
        assert_eq!(r.b.steer_stats().alloc_nonready, 1);
        // A's actual delay is observed at the next scheduler activity.
        r.scb.set_ready_at(PhysReg(10), 20);
        let _ = r.issue(1);
        assert_eq!(r.b.tracked_delay(), (3 * INITIAL_TRACKED_DELAY + 20) / 4);
    }

    #[test]
    fn names_encode_steps() {
        assert_eq!(
            Ballerino::new(BallerinoConfig::eight_wide()).name(),
            "ballerino-8"
        );
        assert_eq!(
            Ballerino::new(BallerinoConfig::twelve()).name(),
            "ballerino-12"
        );
        assert_eq!(
            Ballerino::new(BallerinoConfig::step1()).name(),
            "ballerino-8-step1"
        );
        assert_eq!(
            Ballerino::new(BallerinoConfig::step2()).name(),
            "ballerino-8-step2"
        );
        assert_eq!(
            Ballerino::new(BallerinoConfig::step3_ideal()).name(),
            "ballerino-8-ideal"
        );
        assert_eq!(
            Ballerino::new(BallerinoConfig::ldt()).name(),
            "ballerino-8-ldt"
        );
    }
}
