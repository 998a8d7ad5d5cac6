//! Per-layer metrics of the traced run.
//!
//! Two sources: the self time of the spans the benchmark records around
//! its calls into each crate, and layer replays that drive one crate's
//! public API directly with the workload's own traces (the scheduler
//! through the `Scheduler` trait, TAGE, the renamer, the memory
//! hierarchy). Modelled event counts are summed from the simulated
//! results. A workload that does not exercise a layer reports 0 for it.

use crate::check::Checker;
use crate::kind_name;
use crate::report::Metrics;
use crate::spans::Tracer;
use ballerino_frontend::{Renamer, Tage};
use ballerino_isa::{BranchKind, OpClass, PhysReg, PortId, Trace};
use ballerino_mem::{AccessKind, Hierarchy, MemConfig};
use ballerino_sched::ports::PortArbiter;
use ballerino_sched::{
    DispatchOutcome, FuBusy, HeldSet, PortAlloc, ReadyCtx, SchedUop, Scheduler, Scoreboard,
};
use ballerino_sim::{build_scheduler, CoreConfig, MachineKind, SimResult, Width};
use ballerino_workloads::cached_workload;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Self time in seconds per `(span name, tag)`.
pub type SelfTimes = BTreeMap<(&'static str, &'static str), f64>;

/// Each layer replay repeats until it has run this long.
const MIN_REPLAY_S: f64 = 0.05;
/// Load-to-use latency of the fixed-latency scheduler replay (an L1 hit).
const REPLAY_LOAD_LATENCY: u64 = 5;

fn self_time(t: &SelfTimes, name: &str) -> f64 {
    t.iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, s)| s)
        .sum()
}

/// Self times of the spans recorded in `range`, per pass.
pub fn per_pass(tr: &Tracer, range: Range<usize>, passes: usize) -> SelfTimes {
    let mut t = tr.self_times(range);
    for v in t.values_mut() {
        *v /= passes.max(1) as f64;
    }
    t
}

/// `workloads.gen_s`, `isa.dag_resolve_s`, `analytic.features_s`: mean
/// time per cold set-up, from the set-up spans in `range`.
pub fn setup_metrics(tr: &Tracer, range: Range<usize>, reps: usize, m: &mut Metrics) {
    let setup = per_pass(tr, range, reps);
    let per = |name| self_time(&setup, name);
    m.push("workloads.gen_s", per("workloads.gen"), "s");
    m.push("isa.dag_resolve_s", per("isa.dag_resolve"), "s");
    m.push("analytic.features_s", per("analytic.features"), "s");
}

/// Modelled counts of one pass, summed over its results.
pub fn sim_counts(results: &[(MachineKind, &SimResult)], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(|(_, r)| f(r)).sum::<u64>();
    let cycles = sum(&|r| r.cycles);
    let skipped = sum(&|r| r.cycles_skipped);
    m.push("sim.cells", results.len() as f64, "count");
    m.push("sim.uops", sum(&|r| r.committed) as f64, "count");
    m.push("sim.cycles", cycles as f64, "count");
    m.push("sim.cycles_skipped", skipped as f64, "count");
    m.push("sim.cycles_stepped", (cycles - skipped) as f64, "count");
    m.push(
        "sim.skip_share",
        skipped as f64 / cycles.max(1) as f64,
        "ratio",
    );
    m.push(
        "sched.select_inputs",
        sum(&|r| r.energy.sched.select_inputs) as f64,
        "count",
    );
    m.push(
        "sched.cam_entries_searched",
        sum(&|r| r.energy.sched.cam_entries_searched) as f64,
        "count",
    );
    m.push(
        "sched.head_examinations",
        sum(&|r| r.energy.sched.head_examinations) as f64,
        "count",
    );
    m.push(
        "sched.copies",
        sum(&|r| r.energy.sched.copies) as f64,
        "count",
    );
    let demand = sum(&|r| r.mem.total());
    let l1_hits = sum(&|r| r.mem.hits_l1);
    m.push(
        "mem.l1_miss_pct",
        100.0 * (demand - l1_hits) as f64 / demand.max(1) as f64,
        "%",
    );
    m.push(
        "mem.dram_accesses",
        sum(&|r| r.mem.hits_mem) as f64,
        "count",
    );
    m.push("mem.prefetches", sum(&|r| r.mem.prefetches) as f64, "count");
}

/// Host-time metrics of the simulator and energy layers, from the self
/// times of one pass's `sim.run` / `energy.breakdown` spans over the
/// same pass's results.
pub fn sim_times(t: &SelfTimes, results: &[(MachineKind, &SimResult)], m: &mut Metrics) {
    let uops: u64 = results.iter().map(|(_, r)| r.committed).sum();
    let stepped: u64 = results
        .iter()
        .map(|(_, r)| r.cycles - r.cycles_skipped)
        .sum();
    let run_s = self_time(t, "sim.run");
    m.push("sim.run_s", run_s, "s");
    m.push("sim.ns_per_uop", 1e9 * run_s / uops.max(1) as f64, "ns");
    m.push(
        "sim.ns_per_stepped_cycle",
        1e9 * run_s / stepped.max(1) as f64,
        "ns",
    );
    for kind in MachineKind::FIG11 {
        let name = kind_name(kind);
        let kind_uops: u64 = results
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, r)| r.committed)
            .sum();
        let s = t.get(&("sim.run", name)).copied().unwrap_or(0.0);
        m.push(
            format!("sim.{name}.ns_per_uop"),
            if kind_uops == 0 {
                0.0
            } else {
                1e9 * s / kind_uops as f64
            },
            "ns",
        );
    }
    m.push(
        "energy.breakdown_us_per_cell",
        1e6 * self_time(t, "energy.breakdown") / results.len().max(1) as f64,
        "us",
    );
}

/// Zeros for the sweep-only metrics on workloads without a sweep.
pub fn sweep_absent(m: &mut Metrics) {
    for (name, unit) in [
        ("analytic.tier0_s", "s"),
        ("analytic.predict_us", "us"),
        ("bench.sweep.tier0_s", "s"),
        ("bench.sweep.sim_s", "s"),
        ("promoted_points", "count"),
        ("tier0_err_mean_pct", "%"),
        ("tier0_err_worst_pct", "%"),
    ] {
        m.push(name, 0.0, unit);
    }
}

/// Zeros for the campaign-only metrics on workloads without a campaign.
pub fn serve_absent(m: &mut Metrics) {
    for (name, unit) in [
        ("serve.journal_write_us", "us"),
        ("serve.replay_s", "s"),
        ("serve.replayed", "count"),
        ("serve.executed", "count"),
        ("serve.overhead_pct", "%"),
        ("serve.self_s", "s"),
    ] {
        m.push(name, 0.0, unit);
    }
}

/// Repeats `run` on fresh state from `prepare` until [`MIN_REPLAY_S`]
/// of `run` time has accumulated; returns seconds per `run`. Building
/// the state (empty caches, tables, schedulers) is not timed.
fn timed_reps<S>(mut prepare: impl FnMut() -> S, mut run: impl FnMut(S)) -> f64 {
    let (mut total, mut reps) = (0.0, 0u32);
    while reps == 0 || total < MIN_REPLAY_S {
        let state = prepare();
        let t0 = Instant::now();
        run(state);
        total += t0.elapsed().as_secs_f64();
        reps += 1;
    }
    total / f64::from(reps)
}

/// The layer replays over the workload's traces: `sched.<kind>.ns_per_uop`,
/// `frontend.*` and `mem.access_ns`.
pub fn replays(
    traces: &[(&'static str, usize)],
    seed: u64,
    tr: &Tracer,
    chk: &mut Checker,
    m: &mut Metrics,
) {
    let traces: Vec<_> = traces
        .iter()
        .map(|&(name, n)| cached_workload(name, n, seed))
        .collect();
    let uops: usize = traces.iter().map(|t| t.len()).sum();
    let (cfg, _, _) = build_scheduler(MachineKind::OutOfOrder, Width::Eight);

    for kind in MachineKind::FIG11 {
        let name = kind_name(kind);
        let mut stuck = None;
        let s = tr.tagged("sched.replay", name, None, |_| {
            timed_reps(
                || {
                    let built: Vec<_> = traces
                        .iter()
                        .map(|_| build_scheduler(kind, Width::Eight))
                        .collect();
                    built
                },
                |built| {
                    for (t, (cfg, sched, _)) in traces.iter().zip(built) {
                        if let Err(e) = replay_scheduler(&cfg, sched, t) {
                            stuck = Some(e);
                        }
                    }
                },
            )
        });
        chk.record(stuck.is_none(), || {
            format!(
                "{name} scheduler replay: {}",
                stuck.clone().unwrap_or_default()
            )
        });
        m.push(
            format!("sched.{name}.ns_per_uop"),
            1e9 * s / uops as f64,
            "ns",
        );
    }

    let (mut branches, mut wrong) = (0u64, 0u64);
    let s = tr.span("frontend.tage", None, |_| {
        timed_reps(
            || traces.iter().map(|_| Tage::new()).collect::<Vec<_>>(),
            |tages| (branches, wrong) = replay_tage(&traces, tages),
        )
    });
    m.push(
        "frontend.tage_ns_per_branch",
        1e9 * s / branches.max(1) as f64,
        "ns",
    );
    let s = tr.span("frontend.rename", None, |_| {
        timed_reps(
            || {
                let fresh: Vec<_> = traces
                    .iter()
                    .map(|_| Renamer::new(cfg.int_regs, cfg.fp_regs))
                    .collect();
                fresh
            },
            |renamers| replay_rename(&traces, renamers),
        )
    });
    m.push("frontend.rename_ns_per_uop", 1e9 * s / uops as f64, "ns");
    m.push(
        "frontend.mispredict_pct",
        100.0 * wrong as f64 / branches.max(1) as f64,
        "%",
    );

    let mut accesses = 0u64;
    let s = tr.span("mem.access", None, |_| {
        timed_reps(
            || {
                let fresh: Vec<_> = traces
                    .iter()
                    .map(|_| Hierarchy::new(&MemConfig::default()))
                    .collect();
                fresh
            },
            |hiers| accesses = replay_memory(&traces, hiers),
        )
    });
    m.push("mem.access_ns", 1e9 * s / accesses.max(1) as f64, "ns");
}

/// Predicts and trains TAGE on every conditional branch of each trace
/// (one predictor per trace); returns `(branches, mispredictions)`.
fn replay_tage(traces: &[Arc<Trace>], tages: Vec<Tage>) -> (u64, u64) {
    let (mut branches, mut wrong) = (0u64, 0u64);
    for (t, mut tage) in traces.iter().zip(tages) {
        for op in &t.ops {
            let Some(b) = op.branch else { continue };
            if b.kind != BranchKind::Conditional {
                continue;
            }
            let p = tage.predict(op.pc);
            branches += 1;
            wrong += u64::from(!tage.update(op.pc, p, b.taken));
        }
    }
    black_box(wrong);
    (branches, wrong)
}

/// Renames every μop of each trace (one renamer per trace), freeing
/// each overwritten mapping at once as in-order retirement would.
fn replay_rename(traces: &[Arc<Trace>], renamers: Vec<Renamer>) {
    for (t, mut r) in traces.iter().zip(renamers) {
        for op in &t.ops {
            let ren = r.rename(op).expect("a freed mapping is always available");
            if let Some(prev) = ren.prev_dst {
                r.release(prev);
            }
            black_box(ren);
        }
    }
}

/// Sends every load and store of each trace through an empty cache
/// hierarchy (one per trace; one access per cycle, in program order);
/// returns the number of accesses.
fn replay_memory(traces: &[Arc<Trace>], hiers: Vec<Hierarchy>) -> u64 {
    let mut n = 0u64;
    for (t, mut h) in traces.iter().zip(hiers) {
        for (cycle, op) in t.ops.iter().enumerate() {
            let Some(mem) = op.mem else { continue };
            let kind = if op.is_store() {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            black_box(h.access(mem.addr, op.pc, cycle as u64, kind));
            n += 1;
        }
    }
    n
}

/// One μop in flight in the scheduler replay.
struct Slot {
    seq: u64,
    class: OpClass,
    port: PortId,
    dst: Option<PhysReg>,
    prev: Option<PhysReg>,
    done_at: u64,
}

/// Drives a trace through a built 8-wide scheduler with fixed
/// latencies: rename, port assignment, `try_dispatch` at the front-end
/// width, `issue` into a port allocator, and `on_complete` when a
/// result is due. No memory hierarchy, branch prediction or MDP holds,
/// so the time measured is the scheduler's own select and wakeup.
fn replay_scheduler(
    cfg: &CoreConfig,
    mut sched: Box<dyn Scheduler>,
    trace: &Trace,
) -> Result<(), String> {
    let mut renamer = Renamer::new(cfg.int_regs, cfg.fp_regs);
    let mut scb = Scoreboard::new(renamer.total_phys());
    let held = HeldSet::new();
    let mut arbiter = PortArbiter::new(cfg.port_map.clone());
    let mut fu = FuBusy::new();
    let mut rob: VecDeque<Slot> = VecDeque::new();
    let mut events: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut pending: Option<SchedUop> = None;
    let (mut next, mut next_seq, mut committed) = (0usize, 1u64, 0usize);
    let mut granted = Vec::new();
    let limit = 600 * trace.len() as u64 + 200_000;

    let mut cycle = 0u64;
    while committed < trace.len() {
        // Writeback: wake consumers of every result due this cycle.
        while let Some(&Reverse((t, seq))) = events.peek() {
            if t > cycle {
                break;
            }
            events.pop();
            if let Some(d) = slot_mut(&mut rob, seq).and_then(|s| s.dst) {
                sched.on_complete(d);
            }
        }
        // Commit in order.
        for _ in 0..cfg.issue_width {
            match rob.front() {
                Some(s) if s.done_at <= cycle => {
                    if let Some(p) = s.prev {
                        renamer.release(p);
                    }
                    rob.pop_front();
                    committed += 1;
                }
                _ => break,
            }
        }
        // Issue.
        granted.clear();
        {
            let ctx = ReadyCtx {
                cycle,
                scb: &scb,
                held: &held,
            };
            let mut ports = PortAlloc::new(cfg.port_map.num_ports(), cfg.issue_width, &fu, cycle);
            sched.issue(&ctx, &mut ports, &mut granted);
        }
        for &seq in &granted {
            let slot = slot_mut(&mut rob, seq).ok_or("granted a μop not in flight")?;
            complete(slot, cycle, &mut scb, &mut fu, &mut events);
            arbiter.release(slot.port);
        }
        // Dispatch at the front-end width.
        for _ in 0..cfg.front_width {
            let uop = match pending.take() {
                Some(u) => u,
                None => {
                    if next == trace.len() || rob.len() >= cfg.rob_entries {
                        break;
                    }
                    let op = &trace.ops[next];
                    let Ok(ren) = renamer.rename(op) else { break };
                    next += 1;
                    if let Some(d) = ren.dst {
                        scb.allocate(d);
                    }
                    let uop = SchedUop {
                        seq: next_seq,
                        pc: op.pc,
                        class: op.class,
                        port: arbiter.assign(op.class),
                        srcs: ren.srcs,
                        dst: ren.dst,
                        ssid: None,
                        mdp_wait: None,
                        load_dep: false,
                    };
                    next_seq += 1;
                    rob.push_back(Slot {
                        seq: uop.seq,
                        class: op.class,
                        port: uop.port,
                        dst: ren.dst,
                        prev: ren.prev_dst,
                        done_at: u64::MAX,
                    });
                    uop
                }
            };
            let ctx = ReadyCtx {
                cycle,
                scb: &scb,
                held: &held,
            };
            match sched.try_dispatch(uop, &ctx) {
                DispatchOutcome::Accepted => {}
                DispatchOutcome::AcceptedIssued => {
                    let slot =
                        slot_mut(&mut rob, uop.seq).ok_or("dispatched a μop not in flight")?;
                    complete(slot, cycle, &mut scb, &mut fu, &mut events);
                    arbiter.release(uop.port);
                }
                DispatchOutcome::Stall(_) => {
                    pending = Some(uop);
                    break;
                }
            }
        }
        cycle += 1;
        if cycle > limit {
            return Err(format!(
                "no progress: {committed} of {} committed after {cycle} cycles",
                trace.len()
            ));
        }
    }
    black_box(cycle);
    Ok(())
}

/// The in-flight slot of `seq` (slots hold consecutive sequence numbers).
fn slot_mut(rob: &mut VecDeque<Slot>, seq: u64) -> Option<&mut Slot> {
    let head = rob.front()?.seq;
    rob.get_mut(usize::try_from(seq.checked_sub(head)?).ok()?)
}

/// Schedules a granted μop's completion at its fixed latency.
fn complete(
    slot: &mut Slot,
    cycle: u64,
    scb: &mut Scoreboard,
    fu: &mut FuBusy,
    events: &mut BinaryHeap<Reverse<(u64, u64)>>,
) {
    let exec = u64::from(slot.class.exec_latency());
    let latency = if slot.class == OpClass::Load {
        REPLAY_LOAD_LATENCY
    } else {
        exec
    };
    slot.done_at = cycle + latency;
    fu.reserve(slot.port, slot.class, cycle + exec);
    if let Some(d) = slot.dst {
        scb.set_ready_at(d, slot.done_at);
    }
    events.push(Reverse((slot.done_at, slot.seq)));
}
