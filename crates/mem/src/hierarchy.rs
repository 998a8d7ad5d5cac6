//! The composed cache/DRAM hierarchy walk.
//!
//! [`Hierarchy::access`] resolves a demand load/store through
//! L1D → L2 → L3 → DRAM, honoring per-level MSHR limits, filling lines on
//! the way back up, and (for loads) training the stride prefetcher.
//!
//! # The line filter
//!
//! In front of the L1D walk sits a small direct-mapped **line filter**
//! memoizing the last lines that resolved to L1 hits: the line address,
//! the hit way's flat slot, its fill timestamp, and the L1D's fill/evict
//! generation at memoization time. Tight loops that re-access hot lines
//! skip the L1 set scan entirely; any L1D fill bumps the generation and
//! thereby invalidates every memoized entry at once. A filter hit replays
//! the exact bookkeeping a normal L1 hit would have performed (hit
//! counter, MRU recency), so results are bit-identical with the filter on
//! or off — `tests/hierarchy_equiv.rs` pins this against the naive path
//! selected by [`Hierarchy::with_naive_lookup`].

use crate::cache::{Cache, Lookup, SlotLookup};
use crate::config::MemConfig;
use crate::dram::Dram;
use crate::mshr::MshrClaim;
use crate::prefetch::{StridePrefetcher, MAX_PF_DEGREE};
use crate::{line_of, LINE_BYTES};
use std::cell::Cell;

/// Kind of hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load (trains the prefetcher).
    Load,
    /// Store performed at commit (write-allocate).
    Store,
    /// Prefetch fill (does not recurse into further prefetches).
    Prefetch,
}

/// Deepest level that had to service an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HitLevel {
    /// Serviced by the L1 data cache.
    L1,
    /// Serviced by the L2.
    L2,
    /// Serviced by the L3.
    L3,
    /// Went to DRAM.
    Memory,
}

/// Aggregate memory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand accesses serviced per level.
    pub hits_l1: u64,
    /// Demand accesses serviced by L2.
    pub hits_l2: u64,
    /// Demand accesses serviced by L3.
    pub hits_l3: u64,
    /// Demand accesses serviced by DRAM.
    pub hits_mem: u64,
    /// Prefetches sent.
    pub prefetches: u64,
}

impl MemStats {
    /// Demand accesses observed in total.
    pub fn total(&self) -> u64 {
        self.hits_l1 + self.hits_l2 + self.hits_l3 + self.hits_mem
    }

    /// Fraction of demand accesses that left the L1.
    pub fn l1_miss_ratio(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (t - self.hits_l1) as f64 / t as f64
        }
    }
}

/// Number of direct-mapped line-filter slots (power of two).
const FILTER_SLOTS: usize = 64;

/// Direct-mapped memo of recently resolved L1-hit lines; see the module
/// docs for the invalidation rule.
#[derive(Debug, Clone)]
struct LineFilter {
    /// Memoized line address per slot (`u64::MAX` = never filled, which
    /// no real line address can reach).
    lines: [u64; FILTER_SLOTS],
    /// Flat L1D slot (`set * ways + way`) the line was found in.
    slots: [u32; FILTER_SLOTS],
    /// The hit way's fill timestamp at memoization time.
    valid_at: [u64; FILTER_SLOTS],
    /// L1D generation the entry was memoized under.
    gens: [u64; FILTER_SLOTS],
}

impl LineFilter {
    fn new() -> Self {
        LineFilter {
            lines: [u64::MAX; FILTER_SLOTS],
            slots: [0; FILTER_SLOTS],
            valid_at: [0; FILTER_SLOTS],
            gens: [0; FILTER_SLOTS],
        }
    }

    #[inline]
    fn index(line: u64) -> usize {
        (line as usize) & (FILTER_SLOTS - 1)
    }
}

/// L1D → L2 → L3 → DRAM hierarchy with stride prefetching, plus a
/// parallel L1I front-end path that shares the unified L2.
#[derive(Debug)]
pub struct Hierarchy {
    /// L1 data cache.
    pub l1d: Cache,
    /// L1 instruction cache (Table I: same geometry as the L1D).
    pub l1i: Cache,
    /// L2 unified cache.
    pub l2: Cache,
    /// L3 last-level cache.
    pub l3: Cache,
    /// DRAM behind the LLC.
    pub dram: Dram,
    prefetcher: Option<StridePrefetcher>,
    filter: LineFilter,
    /// Seed-exact lookup mode: no line filter, full scans in every cache.
    naive: bool,
    /// Lower bound on the earliest outstanding recorded MSHR fill across
    /// all levels (`u64::MAX` = none known). Lowered eagerly whenever a
    /// walk records a fill, refreshed lazily by
    /// [`Hierarchy::next_fill_cycle`] once the query cycle passes it —
    /// so the per-cycle skip-engine query is one comparison instead of
    /// four MSHR-file scans.
    fill_horizon: Cell<u64>,
    /// Aggregate statistics.
    pub stats: MemStats,
}

impl Hierarchy {
    /// Builds an empty hierarchy from a configuration, on the fast
    /// lookup path (MRU hits, line filter).
    pub fn new(cfg: &MemConfig) -> Self {
        Self::with_mode(cfg, false)
    }

    /// Builds a hierarchy on the frozen seed-exact lookup path (full set
    /// scans, per-touch LRU stamping, no line filter): the memory of the
    /// reference pipeline and the oracle side of
    /// `tests/hierarchy_equiv.rs`. Results are identical to [`Hierarchy::new`].
    pub fn with_naive_lookup(cfg: &MemConfig) -> Self {
        Self::with_mode(cfg, true)
    }

    fn with_mode(cfg: &MemConfig, naive: bool) -> Self {
        let prefetcher = if cfg.prefetch {
            Some(StridePrefetcher::new(256, cfg.prefetch_degree))
        } else {
            None
        };
        let build = if naive { Cache::new_naive } else { Cache::new };
        Hierarchy {
            l1d: build(cfg.l1d.clone()),
            l1i: build(cfg.l1d.clone()),
            l2: build(cfg.l2.clone()),
            l3: build(cfg.l3.clone()),
            dram: Dram::new(cfg.dram.clone()),
            prefetcher,
            filter: LineFilter::new(),
            naive,
            fill_horizon: Cell::new(u64::MAX),
            stats: MemStats::default(),
        }
    }

    /// Lowers the fill-horizon bound when a walk records a new fill.
    #[inline]
    fn note_fill(&self, fill: u64) {
        if fill < self.fill_horizon.get() {
            self.fill_horizon.set(fill);
        }
    }

    /// Whether the seed-exact naive lookup path is active.
    pub fn is_naive(&self) -> bool {
        self.naive
    }

    /// Instruction fetch of the line holding `pc` at `cycle`: L1I →
    /// unified L2 → L3 → DRAM. Returns the cycle the line is available
    /// to the fetch unit. A next-line prefetch fills the following line
    /// on a miss (simple sequential instruction prefetch).
    pub fn ifetch(&mut self, pc: u64, cycle: u64) -> u64 {
        let line = line_of(pc);
        if let Lookup::Hit { ready } = self.l1i.lookup(line, cycle) {
            return ready;
        }
        let (fill, _) = self.below_l1(line, cycle + self.l1i.latency());
        self.l1i.fill(line, fill);
        // Sequential next-line prefetch into the L1I.
        if !self.l1i.probe(line + 1) {
            let (nfill, _) = self.below_l1(line + 1, cycle + self.l1i.latency());
            self.l1i.fill(line + 1, nfill);
        }
        fill
    }

    /// Performs an access to byte address `addr` from instruction `pc` at
    /// `cycle`. Returns `(completion_cycle, deepest_level)`.
    ///
    /// Demand loads hold an L1 MSHR for the full miss; stores (performed
    /// at commit from the store buffer) and prefetches go straight to the
    /// L2 path and fill the L1 without occupying its scarce MSHRs — as
    /// fill buffers drained by the L2 superqueue would.
    pub fn access(&mut self, addr: u64, pc: u64, cycle: u64, kind: AccessKind) -> (u64, HitLevel) {
        let line = line_of(addr);
        let (done, level) = self.access_line(line, cycle, kind == AccessKind::Load);
        match level {
            HitLevel::L1 => self.stats.hits_l1 += 1,
            HitLevel::L2 => self.stats.hits_l2 += 1,
            HitLevel::L3 => self.stats.hits_l3 += 1,
            HitLevel::Memory => self.stats.hits_mem += 1,
        }
        if kind == AccessKind::Load {
            if let Some(pf) = self.prefetcher.as_mut() {
                let mut candidates = [0u64; MAX_PF_DEGREE];
                let n = pf.observe(pc, addr, &mut candidates);
                for &target in &candidates[..n] {
                    let tline = line_of(target);
                    if !self.l1d.probe(tline) {
                        self.stats.prefetches += 1;
                        let _ = self.access_line(tline, cycle, false);
                    }
                }
            }
        }
        (done, level)
    }

    /// Walks the hierarchy for one line; fills caches on the way up.
    /// `hold_l1_mshr` gates whether the L1's miss registers bound the
    /// request (true for demand loads only).
    fn access_line(&mut self, line: u64, cycle: u64, hold_l1_mshr: bool) -> (u64, HitLevel) {
        if !self.naive {
            // Line-filter fast path: a valid entry proves the line was an
            // L1 hit under the current fill generation, so no fill has
            // moved or refreshed any L1D way since — slot and timestamp
            // are still exact.
            let f = LineFilter::index(line);
            if self.filter.lines[f] == line && self.filter.gens[f] == self.l1d.generation() {
                self.l1d.filter_touch(self.filter.slots[f]);
                let ready = (cycle + self.l1d.latency()).max(self.filter.valid_at[f]);
                return (ready, HitLevel::L1);
            }
        }
        // L1 lookup.
        match self.l1d.lookup_slot(line, cycle) {
            SlotLookup::Hit {
                ready,
                slot,
                valid_at,
            } => {
                if !self.naive {
                    let f = LineFilter::index(line);
                    self.filter.lines[f] = line;
                    self.filter.slots[f] = slot;
                    self.filter.valid_at[f] = valid_at;
                    self.filter.gens[f] = self.l1d.generation();
                }
                return (ready, HitLevel::L1);
            }
            SlotLookup::Miss => {}
        }
        if !hold_l1_mshr {
            let (fill, level) = self.below_l1(line, cycle + self.l1d.latency());
            self.l1d.fill(line, fill);
            return (fill, level);
        }
        let l1_start = match self.l1d.mshrs.claim(line, cycle) {
            MshrClaim::Merged { fill } => return (fill, HitLevel::L2),
            MshrClaim::Allocated { start } => start + self.l1d.latency(),
        };

        let (fill_from_below, level) = self.below_l1(line, l1_start);
        self.l1d.mshrs.record_fill(line, fill_from_below);
        self.note_fill(fill_from_below);
        self.l1d.fill(line, fill_from_below);
        (fill_from_below, level)
    }

    fn below_l1(&mut self, line: u64, cycle: u64) -> (u64, HitLevel) {
        if let Lookup::Hit { ready } = self.l2.lookup(line, cycle) {
            return (ready, HitLevel::L2);
        }
        let l2_start = match self.l2.mshrs.claim(line, cycle) {
            MshrClaim::Merged { fill } => return (fill, HitLevel::L3),
            MshrClaim::Allocated { start } => start + self.l2.latency(),
        };

        let (fill, level) = self.below_l2(line, l2_start);
        self.l2.mshrs.record_fill(line, fill);
        self.note_fill(fill);
        self.l2.fill(line, fill);
        (fill, level)
    }

    fn below_l2(&mut self, line: u64, cycle: u64) -> (u64, HitLevel) {
        if let Lookup::Hit { ready } = self.l3.lookup(line, cycle) {
            return (ready, HitLevel::L3);
        }
        let l3_start = match self.l3.mshrs.claim(line, cycle) {
            MshrClaim::Merged { fill } => return (fill, HitLevel::Memory),
            MshrClaim::Allocated { start } => start + self.l3.latency(),
        };

        let fill = self.dram.access(line, l3_start);
        self.l3.mshrs.record_fill(line, fill);
        self.note_fill(fill);
        self.l3.fill(line, fill);
        (fill, HitLevel::Memory)
    }

    /// Approximate footprint helper: touches a line so that it is resident
    /// (used to warm caches in tests).
    pub fn warm(&mut self, addr: u64) {
        let line = line_of(addr);
        self.l1d.fill(line, 0);
        self.l2.fill(line, 0);
        self.l3.fill(line, 0);
    }

    /// Earliest MSHR fill completion strictly after `cycle` across every
    /// cache level, if any miss is outstanding. Used by the simulator's
    /// event-horizon engine as a defensive bound: all completion cycles
    /// are resolved at access time and queued by the core, so this can
    /// only tighten (never extend) a skip window.
    ///
    /// Queries must be non-decreasing in `cycle` over the hierarchy's
    /// lifetime (the simulated clock never runs backwards): the answer is
    /// served from the cached fill horizon — one comparison on the
    /// per-cycle path — and the horizon is only re-derived from the MSHR
    /// files once `cycle` reaches it. The cached bound may sit below the
    /// files' true minimum when a full-file claim retired an entry early;
    /// that only tightens the skip window, never extends it.
    #[inline]
    pub fn next_fill_cycle(&self, cycle: u64) -> Option<u64> {
        let h = self.fill_horizon.get();
        if h > cycle {
            return (h != u64::MAX).then_some(h);
        }
        let next = [&self.l1d, &self.l1i, &self.l2, &self.l3]
            .into_iter()
            .filter_map(|c| c.mshrs.next_fill_cycle(cycle))
            .min();
        self.fill_horizon.set(next.unwrap_or(u64::MAX));
        next
    }

    /// Line size in bytes (fixed).
    pub fn line_bytes(&self) -> u64 {
        LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MemConfig {
        MemConfig {
            prefetch: false,
            ..MemConfig::default()
        }
    }

    #[test]
    fn cold_miss_goes_to_memory_then_hits_l1() {
        let mut h = Hierarchy::new(&small_cfg());
        let (done, level) = h.access(0x10000, 0x400, 100, AccessKind::Load);
        assert_eq!(level, HitLevel::Memory);
        // at least L1+L2+L3 lookups plus DRAM activate+cas+burst
        assert!(done > 100 + 4 + 12 + 42);
        let (done2, level2) = h.access(0x10000, 0x400, done + 1, AccessKind::Load);
        assert_eq!(level2, HitLevel::L1);
        assert_eq!(done2, done + 1 + 4);
    }

    #[test]
    fn warm_line_hits_l1_immediately() {
        let mut h = Hierarchy::new(&small_cfg());
        h.warm(0x2000);
        let (done, level) = h.access(0x2000, 0, 10, AccessKind::Load);
        assert_eq!(level, HitLevel::L1);
        assert_eq!(done, 14);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pattern() {
        let mut h = Hierarchy::new(&small_cfg());
        // Fill L2+L3 but not L1.
        h.l2.fill(crate::line_of(0x3000), 0);
        let (done, level) = h.access(0x3000, 0, 100, AccessKind::Load);
        assert_eq!(level, HitLevel::L2);
        // L1 latency (4) to detect miss, then L2 hit latency (12).
        assert_eq!(done, 100 + 4 + 12);
    }

    #[test]
    fn same_line_concurrent_misses_merge() {
        let mut h = Hierarchy::new(&small_cfg());
        let (d1, l1) = h.access(0x40000, 0, 100, AccessKind::Load);
        assert_eq!(l1, HitLevel::Memory);
        // Second access to the same line while the first is still in flight:
        // the L1 lookup hits the in-flight fill (valid_at in future).
        let (d2, _) = h.access(0x40000, 0, 101, AccessKind::Load);
        assert_eq!(d2, d1);
    }

    #[test]
    fn prefetcher_hides_latency_for_streaming() {
        let cfg = MemConfig {
            prefetch: true,
            prefetch_degree: 4,
            ..MemConfig::default()
        };
        let mut h = Hierarchy::new(&cfg);
        let mut t = 0;
        let mut total_lat = 0u64;
        // Sequential 64-byte stream; after warm-up, prefetches should
        // convert DRAM misses into L1/inflight hits.
        let mut late = 0;
        for i in 0..64u64 {
            let addr = 0x100000 + i * 64;
            let (done, level) = h.access(addr, 0x88, t, AccessKind::Load);
            total_lat += done - t;
            if i > 8 && level == HitLevel::Memory {
                late += 1;
            }
            t += 50;
        }
        assert!(h.stats.prefetches > 0, "prefetcher never fired");
        assert!(
            late < 16,
            "prefetcher failed to cover the stream: {late} memory-level misses"
        );
        let avg = total_lat / 64;
        assert!(avg < 120, "average latency too high: {avg}");
    }

    #[test]
    fn ifetch_misses_then_hits_and_prefetches_next_line() {
        let mut h = Hierarchy::new(&small_cfg());
        let t1 = h.ifetch(0x40_0000, 100);
        assert!(t1 > 104, "cold instruction miss must walk the hierarchy");
        // Same line now hits at the L1I latency.
        let t2 = h.ifetch(0x40_0010, t1);
        assert_eq!(t2, t1 + 4);
        // The sequential prefetch covered the next line.
        assert!(h.l1i.probe(crate::line_of(0x40_0040)));
    }

    #[test]
    fn ifetch_and_data_paths_share_the_l2() {
        let mut h = Hierarchy::new(&small_cfg());
        let t1 = h.ifetch(0x50_0000, 0);
        // A *data* access to the same line hits the L2 (unified), not DRAM.
        let (_, level) = h.access(0x50_0000, 0, t1 + 1, AccessKind::Load);
        assert_eq!(level, HitLevel::L2);
    }

    #[test]
    fn stats_accumulate_per_level() {
        let mut h = Hierarchy::new(&small_cfg());
        let (done, _) = h.access(0x5000, 0, 0, AccessKind::Load);
        let _ = h.access(0x5000, 0, done, AccessKind::Load);
        assert_eq!(h.stats.hits_mem, 1);
        assert_eq!(h.stats.hits_l1, 1);
        assert_eq!(h.stats.total(), 2);
        assert!((h.stats.l1_miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn filter_retouch_matches_first_hit_timing() {
        let mut h = Hierarchy::new(&small_cfg());
        h.warm(0x2000);
        let (d1, l1) = h.access(0x2000, 0, 10, AccessKind::Load); // memoizes
        let (d2, l2) = h.access(0x2000, 0, 20, AccessKind::Load); // filter hit
        assert_eq!((l1, l2), (HitLevel::L1, HitLevel::L1));
        assert_eq!(d1, 14);
        assert_eq!(d2, 24);
        assert_eq!(h.l1d.hits, 2);
    }

    #[test]
    fn filter_entries_die_on_any_l1d_fill() {
        let mut h = Hierarchy::new(&small_cfg());
        h.warm(0x2000);
        let _ = h.access(0x2000, 0, 10, AccessKind::Load); // memoizes
        h.l1d.fill(crate::line_of(0x9000), 50); // bumps generation
                                                // Stale entry must not be used; the normal lookup still hits.
        let (done, level) = h.access(0x2000, 0, 60, AccessKind::Load);
        assert_eq!(level, HitLevel::L1);
        assert_eq!(done, 64);
    }

    #[test]
    fn naive_lookup_knob_reports_mode() {
        let cfg = small_cfg();
        assert!(Hierarchy::with_naive_lookup(&cfg).is_naive());
        assert!(!Hierarchy::new(&cfg).is_naive());
    }

    /// The memoized fill horizon must answer monotonic queries exactly
    /// like a fresh scan of every level's MSHR file.
    #[test]
    fn next_fill_cycle_memo_matches_mshr_scan() {
        let mut h = Hierarchy::new(&small_cfg());
        let scan = |h: &Hierarchy, t: u64| {
            [&h.l1d, &h.l1i, &h.l2, &h.l3]
                .into_iter()
                .filter_map(|c| c.mshrs.next_fill_cycle(t))
                .min()
        };
        assert_eq!(h.next_fill_cycle(0), None);
        let (d1, _) = h.access(0x10000, 0, 100, AccessKind::Load);
        assert_eq!(h.next_fill_cycle(100), scan(&h, 100));
        assert_eq!(h.next_fill_cycle(100), Some(d1).filter(|&f| f > 100));
        // A second outstanding miss lowers the horizon if it fills earlier.
        let _ = h.access(0x20000, 0, 110, AccessKind::Load);
        assert_eq!(h.next_fill_cycle(110), scan(&h, 110));
        // Walk the clock past each fill; memo and scan must stay in step.
        let mut t = 110;
        while let Some(f) = h.next_fill_cycle(t) {
            assert_eq!(Some(f), scan(&h, t), "diverged at cycle {t}");
            t = f;
        }
        assert_eq!(scan(&h, t), None);
    }
}
