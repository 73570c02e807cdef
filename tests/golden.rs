//! Golden pins on the frozen full-grid library.
//!
//! `Sta::run`, `Itr::refine_full` and `Itr::refine` share one gate
//! evaluator, so their mutual equivalence tests cannot catch a change to
//! that evaluator. These tests pin its output instead: an FNV-1a digest
//! of every net's windows, used delays and inversion flag. The digests
//! were recorded with the separate two-stage compositions of `Sta::run`
//! and `Itr::refine_full` that preceded the shared evaluator, so they
//! also check that the merge kept every bit.
//!
//! The Section 7 test pins the ITR-off / ITR-on efficiencies of the
//! `sec7_atpg` campaigns; EXPERIMENTS.md quotes the same rows.
//!
//! The library is the checked-in `perfledger/data/library-full.txt`, so
//! neither characterization cost nor libm drift reaches these numbers.

use std::sync::OnceLock;

use ssdm::atpg::{AtpgConfig, AtpgDriver, AtpgStats};
use ssdm::cells::CellLibrary;
use ssdm::itr::Itr;
use ssdm::logic::{Assignments, V2};
use ssdm::netlist::{coupling_sites, suite, Circuit};
use ssdm::sta::{ModelKind, Sta, StaConfig, TimingView};
use ssdm::timing::{Bound, Edge};

fn library() -> &'static CellLibrary {
    static LIB: OnceLock<CellLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        CellLibrary::from_text(include_str!("../perfledger/data/library-full.txt"))
            .expect("frozen library parses")
    })
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn bound(&mut self, b: Option<Bound>) {
        match b {
            None => self.word(u64::MAX),
            Some(b) => {
                self.word(b.s().as_ns().to_bits());
                self.word(b.l().as_ns().to_bits());
            }
        }
    }
}

/// Digest of every net's windows, per-pin used delays and inversion flag.
fn digest(circuit: &Circuit, view: &impl TimingView) -> u64 {
    let mut h = Fnv::new();
    for id in circuit.topo() {
        let lt = view.line(id);
        for e in Edge::BOTH {
            let et = lt.edge(e);
            h.bound(et.map(|t| t.arrival));
            h.bound(et.map(|t| t.ttime));
        }
        for pin in 0..circuit.gate(id).fanin.len() {
            for e in Edge::BOTH {
                h.bound(view.delay_used(id, pin, e));
            }
        }
        h.word(u64::from(view.gate_inverting(id)));
    }
    h.0
}

#[test]
fn sta_run_digests_are_pinned() {
    let lib = library();
    let c880s = suite::synthetic("c880s").unwrap();
    let cases = [
        (suite::c17(), ModelKind::Proposed),
        (suite::c17(), ModelKind::PinToPin),
        (c880s.clone(), ModelKind::Proposed),
        (c880s, ModelKind::PinToPin),
    ];
    let got: Vec<u64> = cases
        .iter()
        .map(|(circuit, model)| {
            let cfg = StaConfig::default().with_model(*model);
            digest(circuit, &Sta::new(circuit, lib, cfg).run().unwrap())
        })
        .collect();
    let want = [
        0x88ac_0001_1a3d_0be9u64,
        0xf143_01ab_3872_ff59,
        0x4256_3e29_a37d_0892,
        0x88fa_ce65_c5dd_270e,
    ];
    assert_eq!(got, want, "c17/c880s x Proposed/PinToPin: {got:#018x?}");
}

#[test]
fn refine_full_digests_are_pinned() {
    let lib = library();
    let c = suite::synthetic("c880s").unwrap();
    let itr = Itr::new(&c, lib, StaConfig::default());
    let inputs = c.inputs().to_vec();
    let steps = [
        (0usize, V2::transition(Edge::Rise)),
        (7, V2::steady(false)),
        (13, V2::transition(Edge::Fall)),
        (21, V2::steady(true)),
    ];
    // The last state is all-unknown, so it equals `Sta::run` on c880s
    // under the proposed model.
    let want = [
        0xf900_cebc_2806_fd6fu64,
        0xfc2d_ba7c_248f_95bd,
        0x7d95_d13b_3987_18e7,
        0xd048_05c2_935c_dd86,
        0x4256_3e29_a37d_0892,
    ];
    let mut a = Assignments::new(c.n_nets());
    let mut states = Vec::new();
    for &(pi, v) in &steps {
        a.set(inputs[pi], v).unwrap();
        states.push(a.clone());
    }
    // Retract everything, as a PODEM backtrack to the root would.
    states.push(Assignments::new(c.n_nets()));
    let got: Vec<u64> = states
        .iter()
        .map(|state| digest(&c, &itr.refine_full(&mut state.clone()).unwrap()))
        .collect();
    assert_eq!(got, want, "refine_full digests per step: {got:#018x?}");
    for (step, state) in states.iter().enumerate() {
        let inc = itr.refine(&mut state.clone()).unwrap();
        assert_eq!(digest(&c, &inc), want[step], "step {step}: refine digest");
    }
}

/// The `sec7_atpg` campaigns (same circuits, site counts, site seed and
/// backtrack limits) at one job; outcomes are job-count independent.
fn sec7_rows() -> Vec<String> {
    let lib = library();
    let mut rows = Vec::new();
    let mut overall = [AtpgStats::default(), AtpgStats::default()];
    for (name, n_sites, backtrack_limit) in [("c17", 20, 12), ("c880s", 30, 12), ("c1355s", 30, 12)]
    {
        let circuit = if name == "c17" {
            suite::c17()
        } else {
            suite::synthetic(name).unwrap()
        };
        let sites = coupling_sites(&circuit, n_sites, 7001);
        let [off, on] = [false, true].map(|use_itr| {
            let cfg = AtpgConfig {
                use_itr,
                backtrack_limit,
                ..AtpgConfig::for_circuit(&circuit, lib).unwrap()
            };
            AtpgDriver::new(&circuit, lib, cfg)
                .with_jobs(1)
                .run(&sites)
                .unwrap()
                .stats
        });
        rows.push(format!(
            "| {name} | {} | {:.1} % | {:.1} % | {} → {} |",
            sites.len(),
            off.efficiency() * 100.0,
            on.efficiency() * 100.0,
            off.aborted,
            on.aborted
        ));
        for (agg, s) in overall.iter_mut().zip([off, on]) {
            agg.detected += s.detected;
            agg.undetectable += s.undetectable;
            agg.aborted += s.aborted;
        }
    }
    let [off, on] = overall;
    rows.push(format!(
        "| **overall** | {} | **{:.2} %** | **{:.2} %** | |",
        off.total(),
        off.efficiency() * 100.0,
        on.efficiency() * 100.0
    ));
    rows
}

#[test]
fn sec7_efficiencies_match_experiments_table() {
    let want = [
        "| c17 | 20 | 90.0 % | 100.0 % | 2 → 0 |",
        "| c880s | 30 | 0.0 % | 90.0 % | 30 → 3 |",
        "| c1355s | 30 | 0.0 % | 83.3 % | 30 → 5 |",
        "| **overall** | 80 | **22.50 %** | **90.00 %** | |",
    ];
    assert_eq!(sec7_rows(), want);
}
