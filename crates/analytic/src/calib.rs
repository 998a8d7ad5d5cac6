//! Committed calibration for the tier-0 model.
//!
//! A window-efficiency scalar and two scale matrices per machine kind
//! absorb everything the dataflow pass abstracts away:
//!
//! * `eta_pct` — *window efficiency*: what fraction of the kind's raw
//!   window capacity acts like a monolithic out-of-order window.
//!   Restricted schedulers (FIFO P-IQs, cascades, slice queues) hold
//!   μops that cannot issue out of order past their queue head, so their
//!   effective lookahead is smaller than their entry count.
//! * `alpha_wl_milli` — the primary correction: a per-(width preset,
//!   suite workload) multiplicative scale (milli-units, 1000 =
//!   identity), fit as the exact `simulated / raw_prediction` ratio at
//!   the reference configuration. It zeroes each workload's
//!   idiosyncratic bias there, leaving only the model's *sensitivity*
//!   error on swept IQ/DRAM configurations — the part the dataflow pass
//!   actually captures. This matters operationally: the sweep's
//!   sim-anchored promotion must simulate every point whose estimate
//!   lands below the simulated envelope, so any systematic
//!   per-workload bias translates directly into extra promoted points.
//!   Class-level geomeans left 10–15% of such bias; the per-workload
//!   fit removes it.
//! * `alpha_milli` — the fallback for traces outside the calibration
//!   suite: the same correction coarsened to one scale per
//!   (width preset, workload class), the geomean of `sim / raw` over
//!   the class's suite workloads.
//!
//! The table below is **generated** by `cargo run --release --bin
//! tier0_calibrate -p ballerino-bench` against the 15-workload suite at
//! `n = 30_000, seed = 42` and committed; the
//! `calibration_bounds` test (and the CI `sweep-smoke` job) re-runs the
//! comparison and fails if drift pushes any workload class outside the
//! committed error bounds. Regenerate and re-commit when the simulator's
//! timing model changes materially.

use ballerino_sim::{MachineKind, Width};

/// Dense index of a width preset into [`KindCalib::alpha_milli`].
pub fn width_index(width: Width) -> usize {
    match width {
        Width::Two => 0,
        Width::Four => 1,
        Width::Eight => 2,
        Width::Ten => 3,
    }
}

/// Dense index of a workload class into a [`KindCalib::alpha_milli`]
/// row.
pub fn class_index(class: WorkloadClass) -> usize {
    match class {
        WorkloadClass::Dense => 0,
        WorkloadClass::MemBound => 1,
        WorkloadClass::Branchy => 2,
    }
}

/// The suite workloads the per-workload reference alphas are fit over,
/// in `ballerino_workloads::workload_names()` order (a test asserts the
/// two stay in sync).
pub const SUITE: [&str; 15] = [
    "stream_triad",
    "pointer_chase",
    "gemm_blocked",
    "int_crunch",
    "branchy_sort",
    "hash_join",
    "stencil3d",
    "linked_list_sum",
    "sparse_spmv",
    "compress_lz",
    "fft_butterfly",
    "mixed_media",
    "graph_bfs",
    "matrix_transpose",
    "object_update",
];

/// Index of a suite workload into a [`KindCalib::alpha_wl_milli`] row
/// (`None` for non-suite traces, which fall back to the class column).
pub fn suite_index(name: &str) -> Option<usize> {
    SUITE.iter().position(|&w| w == name)
}

/// Per-kind calibration constants (see the module docs).
///
/// `alpha_milli[width_index][class_index]` is per *width preset*
/// ([`width_index`] order: 2, 4, 8, 10-wide) and per *workload class*
/// ([`class_index`] order: dense, mem-bound, branchy). The model's
/// systematic bias differs between narrow and wide machines (a 2-wide
/// front end hides less of the residual error sources) and between
/// workload classes (unmodelled structural hazards barely touch a
/// pointer chase but dominate a cache-resident kernel); a single scale
/// fit at one width misranks exactly the cross-width, cross-class
/// comparisons the sweep's Pareto promotion does most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindCalib {
    /// Window efficiency in percent (100 = every entry is a full
    /// out-of-order window entry).
    pub eta_pct: u32,
    /// Class-level multiplicative correction in milli-units (1000 =
    /// identity), `[width preset][workload class]` — the fallback for
    /// traces outside the calibration suite.
    pub alpha_milli: [[u32; 3]; 4],
    /// Per-suite-workload reference correction in milli-units,
    /// `[width preset][suite workload]` ([`SUITE`] order). Fit at the
    /// reference configuration (Table II defaults), it zeroes each
    /// workload's idiosyncratic bias there, so the estimator's residual
    /// on swept configurations is only its *sensitivity* error — the
    /// part the dataflow model actually captures well.
    pub alpha_wl_milli: [[u32; 15]; 4],
}

impl KindCalib {
    /// The correction for a width preset and workload: the fitted
    /// per-workload reference alpha for suite traces, the workload
    /// class's column otherwise.
    pub fn alpha_for(&self, width: Width, workload: &str) -> u32 {
        let wi = width_index(width);
        match suite_index(workload) {
            Some(j) => self.alpha_wl_milli[wi][j],
            None => self.alpha_milli[wi][class_index(workload_class(workload))],
        }
    }
}

impl Default for KindCalib {
    fn default() -> Self {
        KindCalib {
            eta_pct: 60,
            alpha_milli: [[1000; 3]; 4],
            alpha_wl_milli: [[1000; 15]; 4],
        }
    }
}

/// The calibration table — `tier0_calibrate` output, committed.
///
/// Kinds not listed (ablation variants) fall back to the nearest listed
/// kind via [`calib_for`].
pub const CALIBRATION: &[(MachineKind, KindCalib)] = &[
    (
        MachineKind::Ces,
        KindCalib {
            eta_pct: 25,
            alpha_milli: [
                [879, 724, 967],
                [1127, 823, 765],
                [1034, 885, 715],
                [904, 765, 670],
            ],
            alpha_wl_milli: [
                [
                    1052, 672, 659, 751, 979, 629, 1726, 790, 523, 976, 790, 777, 553, 1031, 947,
                ],
                [
                    1051, 1004, 1028, 654, 691, 379, 1755, 736, 740, 777, 1918, 804, 1153, 1018,
                    836,
                ],
                [
                    1057, 1007, 835, 507, 668, 507, 1673, 872, 786, 818, 1842, 907, 1142, 1009, 669,
                ],
                [
                    1065, 1006, 519, 574, 670, 529, 1656, 988, 410, 824, 1053, 1163, 661, 1009, 546,
                ],
            ],
        },
    ), // class-fallback mean abs err 27.3%
    (
        MachineKind::Casino,
        KindCalib {
            eta_pct: 25,
            alpha_milli: [
                [903, 785, 713],
                [1089, 872, 786],
                [1048, 1080, 904],
                [913, 939, 868],
            ],
            alpha_wl_milli: [
                [
                    1045, 1297, 753, 705, 878, 995, 1583, 828, 585, 874, 809, 884, 278, 1011, 472,
                ],
                [
                    1047, 1942, 867, 680, 762, 581, 1631, 786, 448, 763, 1777, 895, 918, 1008, 836,
                ],
                [
                    1121, 1945, 768, 569, 765, 827, 1617, 915, 761, 890, 1695, 1055, 1184, 1155,
                    1086,
                ],
                [
                    1121, 1944, 482, 630, 783, 867, 1617, 1033, 415, 905, 986, 1306, 690, 1155, 922,
                ],
            ],
        },
    ), // class-fallback mean abs err 30.8%
    (
        MachineKind::Fxa,
        KindCalib {
            eta_pct: 70,
            alpha_milli: [
                [627, 523, 641],
                [875, 787, 579],
                [963, 933, 736],
                [832, 784, 646],
            ],
            alpha_wl_milli: [
                [
                    1048, 671, 376, 580, 706, 517, 1560, 658, 200, 803, 476, 599, 276, 1009, 464,
                ],
                [
                    1085, 1004, 725, 409, 506, 307, 1638, 658, 741, 626, 1485, 711, 1126, 1015, 613,
                ],
                [
                    1112, 1006, 720, 507, 610, 490, 1616, 873, 759, 775, 1616, 869, 1438, 1183, 843,
                ],
                [
                    1112, 1006, 410, 565, 633, 523, 1616, 995, 408, 823, 953, 1120, 650, 1183, 517,
                ],
            ],
        },
    ), // class-fallback mean abs err 37.6%
    (
        MachineKind::Ballerino,
        KindCalib {
            eta_pct: 40,
            alpha_milli: [
                [792, 639, 700],
                [1065, 826, 613],
                [1031, 916, 763],
                [888, 771, 664],
            ],
            alpha_wl_milli: [
                [
                    1043, 671, 530, 752, 807, 533, 1630, 761, 356, 896, 670, 717, 419, 1023, 474,
                ],
                [
                    1057, 1006, 1002, 583, 557, 321, 1681, 735, 851, 684, 1815, 768, 1219, 1012,
                    606,
                ],
                [
                    1076, 1008, 792, 593, 634, 493, 1636, 896, 760, 820, 1698, 891, 1452, 1021, 855,
                ],
                [
                    1094, 1007, 430, 675, 655, 523, 1618, 1032, 409, 871, 966, 1218, 651, 1027, 512,
                ],
            ],
        },
    ), // class-fallback mean abs err 31.7%
    (
        MachineKind::Ldt,
        KindCalib {
            eta_pct: 35,
            alpha_milli: [
                [637, 531, 661],
                [951, 805, 579],
                [972, 923, 738],
                [841, 774, 647],
            ],
            alpha_wl_milli: [
                [
                    1046, 671, 342, 654, 728, 520, 1562, 719, 200, 845, 479, 628, 277, 1010, 471,
                ],
                [
                    1085, 1004, 805, 543, 517, 309, 1622, 767, 740, 646, 1520, 723, 1117, 1030, 580,
                ],
                [
                    1133, 1007, 726, 515, 622, 489, 1612, 911, 756, 792, 1636, 880, 1441, 1035, 818,
                ],
                [
                    1133, 1006, 413, 573, 644, 524, 1612, 1017, 407, 842, 969, 1135, 651, 1035, 500,
                ],
            ],
        },
    ), // class-fallback mean abs err 36.7%
    (
        MachineKind::BallerinoLdt,
        KindCalib {
            eta_pct: 25,
            alpha_milli: [
                [780, 645, 739],
                [946, 732, 604],
                [970, 891, 720],
                [867, 779, 703],
            ],
            alpha_wl_milli: [
                [
                    1043, 708, 530, 738, 798, 533, 1564, 761, 361, 884, 668, 704, 419, 1023, 573,
                ],
                [
                    1057, 1053, 702, 589, 558, 322, 1672, 741, 467, 683, 1425, 769, 902, 1009, 578,
                ],
                [
                    1074, 1073, 682, 533, 635, 496, 1625, 893, 757, 820, 1629, 894, 1124, 1023, 717,
                ],
                [
                    1094, 1055, 428, 649, 655, 526, 1615, 1032, 415, 840, 956, 1145, 651, 1027, 630,
                ],
            ],
        },
    ), // class-fallback mean abs err 31.1%
    (
        MachineKind::OutOfOrder,
        KindCalib {
            eta_pct: 35,
            alpha_milli: [
                [629, 529, 657],
                [955, 796, 581],
                [971, 918, 739],
                [840, 771, 647],
            ],
            alpha_wl_milli: [
                [
                    1046, 671, 343, 636, 726, 519, 1562, 705, 200, 833, 466, 620, 277, 1010, 470,
                ],
                [
                    1085, 1004, 803, 555, 520, 301, 1622, 723, 740, 648, 1505, 729, 1117, 1030, 582,
                ],
                [
                    1133, 1007, 715, 517, 623, 488, 1612, 877, 756, 793, 1648, 881, 1441, 1035, 816,
                ],
                [
                    1133, 1006, 411, 573, 645, 521, 1612, 993, 407, 841, 969, 1136, 652, 1035, 500,
                ],
            ],
        },
    ), // class-fallback mean abs err 36.8%
    (
        MachineKind::InOrder,
        KindCalib {
            eta_pct: 25,
            alpha_milli: [
                [1208, 1044, 1033],
                [1190, 1029, 997],
                [1177, 1024, 996],
                [1175, 1024, 993],
            ],
            alpha_wl_milli: [
                [
                    1187, 1004, 1012, 1111, 1029, 1009, 1831, 1052, 1011, 1068, 1161, 1077, 1006,
                    1052, 1003,
                ],
                [
                    1092, 1005, 1020, 1082, 996, 1008, 1840, 1038, 1012, 1004, 1105, 1062, 1006,
                    1045, 992,
                ],
                [
                    1067, 1004, 1011, 1042, 997, 1007, 1838, 1033, 1011, 1006, 1105, 1055, 1006,
                    1045, 984,
                ],
                [
                    1067, 1004, 1011, 1032, 993, 1006, 1837, 1030, 1011, 1001, 1105, 1055, 1006,
                    1045, 984,
                ],
            ],
        },
    ), // class-fallback mean abs err 6.9%
    (
        MachineKind::LoadSliceCore,
        KindCalib {
            eta_pct: 20,
            alpha_milli: [
                [1074, 701, 888],
                [1757, 959, 1062],
                [2087, 1179, 1289],
                [1921, 1087, 1257],
            ],
            alpha_wl_milli: [
                [
                    1068, 1330, 804, 823, 797, 616, 1795, 883, 200, 923, 1313, 914, 610, 1052, 951,
                ],
                [
                    1057, 1992, 1851, 985, 814, 545, 1986, 955, 398, 965, 3748, 1235, 1636, 1045,
                    1522,
                ],
                [
                    1053, 1997, 2556, 1109, 999, 890, 1964, 1168, 558, 1196, 4742, 1498, 2479,
                    1045, 1794,
                ],
                [
                    1053, 1995, 1941, 1208, 1035, 899, 1960, 1313, 424, 1220, 3166, 1798, 1629,
                    1045, 1574,
                ],
            ],
        },
    ), // class-fallback mean abs err 36.7%
    (
        MachineKind::DelayAndBypass,
        KindCalib {
            eta_pct: 35,
            alpha_milli: [
                [640, 558, 658],
                [1019, 822, 612],
                [1056, 941, 765],
                [899, 791, 669],
            ],
            alpha_wl_milli: [
                [
                    1048, 671, 356, 668, 728, 521, 1563, 846, 200, 834, 469, 615, 300, 1013, 469,
                ],
                [
                    1074, 1004, 860, 675, 534, 316, 1647, 847, 741, 658, 1540, 745, 1135, 1041, 650,
                ],
                [
                    1085, 1007, 775, 717, 633, 502, 1635, 1058, 759, 799, 1625, 891, 1462, 1015,
                    884,
                ],
                [
                    1085, 1006, 435, 758, 654, 536, 1635, 1206, 409, 846, 955, 1144, 661, 1015, 541,
                ],
            ],
        },
    ), // class-fallback mean abs err 34.6%
];

/// The calibration base a kind folds onto: ablation variants share
/// their base kind's constants; everything else is its own base.
/// `BallerinoLdt` deliberately does *not* fold onto `Ballerino` — its
/// delay-tracked steering redistributes μops across the P-IQs, so its
/// effective window efficiency is fit separately.
fn calib_base_kind(kind: MachineKind) -> MachineKind {
    match kind {
        MachineKind::OutOfOrderNoMdp | MachineKind::OutOfOrderOldestFirst => {
            MachineKind::OutOfOrder
        }
        MachineKind::CesMda => MachineKind::Ces,
        MachineKind::BallerinoStep1
        | MachineKind::BallerinoStep2
        | MachineKind::BallerinoIdeal
        | MachineKind::Ballerino12
        | MachineKind::BallerinoN(_) => MachineKind::Ballerino,
        k => k,
    }
}

/// Whether a kind resolves to a committed [`CALIBRATION`] entry
/// (directly or by variant folding) rather than the
/// [`KindCalib::default`] fallback. Coverage gates (the sweep grid's
/// completeness test in `ballerino-bench`) use this to catch kinds that
/// would silently triage on default constants.
pub fn has_calibration(kind: MachineKind) -> bool {
    let base = calib_base_kind(kind);
    CALIBRATION.iter().any(|(k, _)| *k == base)
}

/// Looks up the calibration for a kind, folding ablation variants onto
/// their base kind and falling back to [`KindCalib::default`] for
/// anything never calibrated.
pub fn calib_for(kind: MachineKind) -> KindCalib {
    let base = calib_base_kind(kind);
    CALIBRATION
        .iter()
        .find(|(k, _)| *k == base)
        .map(|(_, c)| *c)
        .unwrap_or_default()
}

/// Workload classes the calibration quality is tracked per.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Compute-dense, cache-resident, predictable control flow.
    Dense,
    /// Dominated by cache misses or pointer chasing.
    MemBound,
    /// Dominated by hard-to-predict control flow.
    Branchy,
}

impl WorkloadClass {
    /// All classes (for iteration/reporting).
    pub const ALL: [WorkloadClass; 3] = [
        WorkloadClass::Dense,
        WorkloadClass::MemBound,
        WorkloadClass::Branchy,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::Dense => "dense",
            WorkloadClass::MemBound => "mem-bound",
            WorkloadClass::Branchy => "branchy",
        }
    }
}

/// Classifies a suite workload by name (unknown names count as Dense —
/// the strictest bound).
pub fn workload_class(name: &str) -> WorkloadClass {
    match name {
        "stream_triad" | "pointer_chase" | "hash_join" | "linked_list_sum" | "sparse_spmv"
        | "graph_bfs" | "matrix_transpose" => WorkloadClass::MemBound,
        "branchy_sort" | "compress_lz" | "object_update" => WorkloadClass::Branchy,
        _ => WorkloadClass::Dense,
    }
}

/// Committed per-class error bound: the maximum mean absolute relative
/// error (percent, across all calibrated kinds and the class's
/// workloads) the tier-0 estimator is allowed. `tier0_calibrate` prints
/// the measured values; the `calibration_bounds` test and the CI
/// `sweep-smoke` job enforce these.
pub fn class_error_bound_pct(class: WorkloadClass) -> u32 {
    match class {
        WorkloadClass::Dense => 35,
        WorkloadClass::MemBound => 40,
        WorkloadClass::Branchy => 35,
    }
}

/// The margin (percent) for *est-vs-est* Pareto promotion over the
/// given classes: the widest class bound, so that when every estimate is
/// within its class bound of truth, no true-frontier point can be
/// shadowed by estimation error on either side of a comparison (see
/// `ballerino_bench::promote_indices`).
pub fn promotion_margin_pct(classes: &[WorkloadClass]) -> u32 {
    classes
        .iter()
        .map(|c| class_error_bound_pct(*c))
        .max()
        .unwrap_or(40)
}

/// The committed default margin (percent) for **sim-anchored**
/// promotion (`ballerino_bench::anchored_survivors`). Anchoring on
/// simulated cycles makes the dominance test one-sided: a true-frontier
/// point is lost only if *its own* estimate exceeds truth by more than
/// ~`m/(100-m)` — overestimation, not absolute error, is what the
/// margin must cover, which is why this is far tighter than the
/// absolute class bounds. Validated end to end by the frontier-equality
/// gates in `sweep_bench` and the CI smoke sweep.
///
/// With the per-workload reference alphas the estimator's worst
/// observed overshoot on promoted points of the full grid is ~6%; 8
/// covers it with headroom and promotes the same point set as 10 there
/// (the near-envelope survivors are genuine near-ties, not estimation
/// error).
pub fn default_promotion_margin_pct() -> u32 {
    8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_base_kind_is_calibrated() {
        for kind in [
            MachineKind::InOrder,
            MachineKind::OutOfOrder,
            MachineKind::Ces,
            MachineKind::Casino,
            MachineKind::Fxa,
            MachineKind::LoadSliceCore,
            MachineKind::DelayAndBypass,
            MachineKind::Ballerino,
            MachineKind::Ldt,
            MachineKind::BallerinoLdt,
        ] {
            assert!(
                CALIBRATION.iter().any(|(k, _)| *k == kind),
                "{kind:?} missing from the calibration table"
            );
            assert!(has_calibration(kind));
        }
    }

    #[test]
    fn variants_fold_onto_base_kinds() {
        assert_eq!(
            calib_for(MachineKind::Ballerino12),
            calib_for(MachineKind::Ballerino)
        );
        assert_eq!(
            calib_for(MachineKind::BallerinoN(4)),
            calib_for(MachineKind::Ballerino)
        );
        assert_eq!(
            calib_for(MachineKind::OutOfOrderNoMdp),
            calib_for(MachineKind::OutOfOrder)
        );
        assert_eq!(calib_for(MachineKind::CesMda), calib_for(MachineKind::Ces));
        // BallerinoLdt is its own calibration base, not a Ballerino
        // variant: delay-tracked steering changes the P-IQ population.
        assert_ne!(
            calib_for(MachineKind::BallerinoLdt),
            KindCalib::default(),
            "BallerinoLdt must own a committed entry"
        );
    }

    #[test]
    fn suite_classes_cover_all_three() {
        use ballerino_workloads::workload_names;
        let mut seen = std::collections::HashSet::new();
        for name in workload_names() {
            seen.insert(workload_class(name));
        }
        assert_eq!(seen.len(), 3, "suite must exercise every class");
    }

    #[test]
    fn promotion_margin_is_the_widest_bound() {
        assert_eq!(
            promotion_margin_pct(&WorkloadClass::ALL),
            WorkloadClass::ALL
                .iter()
                .map(|c| class_error_bound_pct(*c))
                .max()
                .unwrap()
        );
        assert!(promotion_margin_pct(&[]) >= 35);
    }
}
