//! Naive-vs-fast A/B property tests for the memory hierarchy.
//!
//! The fast path (flat SoA cache arrays with MRU hit shortcuts, the
//! direct-mapped line filter, slot-array MSHRs) must be *timing-identical*
//! to the frozen seed-exact naive path: every access returns the same
//! `(completion_cycle, HitLevel)`, and every statistic — per-level hits,
//! cache hit/miss counters, MSHR merges and stalls, DRAM row locality,
//! prefetches — lands on the same value. Randomized streams mix regimes
//! the fast path optimizes for (hot-line re-touch, streaming evictions,
//! MSHR-merge storms) with stores, prefetch kinds, and instruction
//! fetches.

use ballerino_isa::rng::Rng64;
use ballerino_mem::{AccessKind, CacheConfig, Hierarchy, MemConfig};

/// Tiny geometry so randomized streams exercise evictions and full MSHR
/// files constantly: L1 1 KiB/2-way/2 MSHRs, L2 4 KiB/4-way, L3 16 KiB.
fn tiny_cfg(prefetch: bool, degree: usize) -> MemConfig {
    MemConfig {
        l1d: CacheConfig {
            size_bytes: 1024,
            ways: 2,
            latency: 4,
            mshrs: 2,
        },
        l2: CacheConfig {
            size_bytes: 4 * 1024,
            ways: 4,
            latency: 12,
            mshrs: 4,
        },
        l3: CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            latency: 42,
            mshrs: 8,
        },
        prefetch,
        prefetch_degree: degree,
        ..MemConfig::default()
    }
}

/// One randomized address: mixes a hot pool (re-touch regime), a striding
/// stream (evict + prefetch-training regime), a small set-conflict pool
/// (MSHR-merge regime), and cold randoms.
fn gen_addr(rng: &mut Rng64, stream_pos: &mut u64) -> u64 {
    match rng.index(10) {
        // Hot pool: 16 lines, exercises the MRU path and line filter.
        0..=3 => 0x10_0000 + rng.below(16) * 64 + rng.below(64),
        // Striding stream: trains the prefetcher, evicts constantly.
        4..=6 => {
            *stream_pos += 64;
            0x40_0000 + *stream_pos
        }
        // Set-conflict pool: lines far apart that alias in tiny L1 sets,
        // keeping misses outstanding → merges and full MSHR files.
        7..=8 => 0x80_0000 + rng.below(24) * 1024,
        // Cold random within 8 MiB.
        _ => rng.below(8 << 20),
    }
}

fn drive_pair(cfg: &MemConfig, seed: u64, ops: usize) {
    let mut fast = Hierarchy::new(cfg);
    let mut naive = Hierarchy::with_naive_lookup(cfg);
    assert!(!fast.is_naive() && naive.is_naive());

    let mut rng = Rng64::new(seed);
    let mut t = 0u64;
    let mut stream_pos = 0u64;
    // A handful of PCs so the stride table gains confidence.
    let pcs = [0x400u64, 0x404, 0x440, 0x500, 0x7fc];
    for op in 0..ops {
        // Mostly tight cycles (MSHR pressure), occasional long gaps
        // (drains the files and ages LRU).
        t += match rng.index(12) {
            0..=7 => rng.below(3),
            8..=10 => rng.below(30),
            _ => rng.below(2_000),
        };
        if rng.chance(0.06) {
            let pc = 0x1000 + rng.below(64) * 4;
            let a = naive.ifetch(pc, t);
            let b = fast.ifetch(pc, t);
            assert_eq!(a, b, "ifetch diverged at op {op} (seed {seed:#x})");
            continue;
        }
        let addr = gen_addr(&mut rng, &mut stream_pos);
        let pc = pcs[rng.index(pcs.len())];
        let kind = match rng.index(10) {
            0..=5 => AccessKind::Load,
            6..=8 => AccessKind::Store,
            _ => AccessKind::Prefetch,
        };
        let a = naive.access(addr, pc, t, kind);
        let b = fast.access(addr, pc, t, kind);
        assert_eq!(
            a, b,
            "access diverged at op {op}: addr {addr:#x} pc {pc:#x} cycle {t} \
             {kind:?} (seed {seed:#x})"
        );
    }

    // Every observable statistic must agree, not just the timings.
    assert_eq!(
        naive.stats, fast.stats,
        "MemStats diverged (seed {seed:#x})"
    );
    for (name, n, f) in [
        ("l1d", &naive.l1d, &fast.l1d),
        ("l1i", &naive.l1i, &fast.l1i),
        ("l2", &naive.l2, &fast.l2),
        ("l3", &naive.l3, &fast.l3),
    ] {
        assert_eq!(n.hits, f.hits, "{name} hits diverged (seed {seed:#x})");
        assert_eq!(
            n.misses, f.misses,
            "{name} misses diverged (seed {seed:#x})"
        );
        assert_eq!(
            n.mshrs.merges, f.mshrs.merges,
            "{name} MSHR merges diverged (seed {seed:#x})"
        );
        assert_eq!(
            n.mshrs.stall_cycles, f.mshrs.stall_cycles,
            "{name} MSHR stalls diverged (seed {seed:#x})"
        );
    }
    assert_eq!(naive.dram.row_hits, fast.dram.row_hits, "seed {seed:#x}");
    assert_eq!(
        naive.dram.row_misses, fast.dram.row_misses,
        "seed {seed:#x}"
    );
}

#[test]
fn fast_path_matches_naive_on_tiny_geometry() {
    for case in 0..48u64 {
        let degree = 1 + (case % 4) as usize;
        let prefetch = case % 3 != 0;
        drive_pair(&tiny_cfg(prefetch, degree), 0x3A57_0000 + case, 1_500);
    }
}

#[test]
fn fast_path_matches_naive_on_table_i_geometry() {
    for case in 0..12u64 {
        let cfg = MemConfig {
            prefetch: case % 2 == 0,
            ..MemConfig::default()
        };
        drive_pair(&cfg, 0xFA57_0000 + case, 3_000);
    }
}

/// Dedicated MSHR-merge storm: round-robin over `2 * ways` lines of one
/// L1 set at 1-cycle spacing, so re-touches race in-flight fills and
/// every level's file sees merges and full-stall waits.
#[test]
fn fast_path_matches_naive_under_mshr_merge_storms() {
    for case in 0..8u64 {
        let cfg = tiny_cfg(false, 1);
        let mut fast = Hierarchy::new(&cfg);
        let mut naive = Hierarchy::with_naive_lookup(&cfg);
        let mut rng = Rng64::new(0x5708_0000 + case);
        let sets = 8u64; // tiny L1: 1024 B / 64 B / 2 ways
        let mut t = 0u64;
        for i in 0..4_000u64 {
            t += rng.below(2);
            let lane = i % 4;
            let addr = (rng.below(4) * sets + lane * sets * 101) * 64;
            let a = naive.access(addr, 0x400, t, AccessKind::Load);
            let b = fast.access(addr, 0x400, t, AccessKind::Load);
            assert_eq!(a, b, "storm diverged at {i} (case {case})");
        }
        assert_eq!(naive.stats, fast.stats);
        assert!(
            naive.l1d.mshrs.merges > 0 || naive.l2.mshrs.merges > 0,
            "storm produced no merges — pattern lost its teeth"
        );
    }
}

/// Evict-heavy streaming: strictly sequential lines far larger than the
/// L3, the regime where the line filter must keep invalidating itself.
#[test]
fn fast_path_matches_naive_under_streaming_evictions() {
    let cfg = tiny_cfg(true, 4);
    let mut fast = Hierarchy::new(&cfg);
    let mut naive = Hierarchy::with_naive_lookup(&cfg);
    let mut t = 0u64;
    for i in 0..6_000u64 {
        let addr = i * 64;
        let a = naive.access(addr, 0x88, t, AccessKind::Load);
        let b = fast.access(addr, 0x88, t, AccessKind::Load);
        assert_eq!(a, b, "stream diverged at line {i}");
        t = a.0.min(t + 3);
    }
    assert_eq!(naive.stats, fast.stats);
    assert!(naive.stats.prefetches > 0);
}
