//! The traced run: per-layer metrics, named after the crates.
//!
//! It times the crates' public calls from this file and reads the spans
//! and counters the program already records, through
//! `ssdm_obs::capture()`. Layers a workload does not run are measured by
//! probes, so every traced run reports every layer. Only
//! `cells.parallel_eff` needs the cold library characterization and
//! reads 0 on the workloads that do not make one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssdm_atpg::{Atpg, AtpgDriver, FaultOutcome};
use ssdm_cells::{CellLibrary, CharConfig, CharacterizedGate, Characterizer};
use ssdm_core::{Time, Transition};
use ssdm_logic::{imply, Assignments, Tri, V2};
use ssdm_models::{DelayModel, JunModel, NabaviModel, PinToPinModel, ProposedModel};
use ssdm_obs::SpanNode;
use ssdm_spice::{GateKind, Process};
use ssdm_sta::StaConfig;
use ssdm_tsim::{SimInput, TimingSim};

use crate::heldout::{standard_cells, HeldOut};
use crate::stats::{median, tail, Metrics, Tally};
use crate::workload::{self, outcome_value, site_key, Section7, Table2, MODELS};

/// Sites per circuit in the serial PODEM pass and the driver probes.
const PROBE_SITES: usize = 40;
/// Assign/refine steps per ITR probe circuit.
const ITR_STEPS: usize = 100;

/// Everything a traced run needs besides the probes' own inputs.
pub struct Context<'a> {
    /// Worker threads.
    pub jobs: usize,
    /// Seed of the run.
    pub seed: u64,
    /// Library the workload runs on (fresh for `char_cold`, frozen else).
    pub lib: &'a CellLibrary,
    /// Held-out points.
    pub points: &'a HeldOut,
    /// Table 2 state, for the STA probe.
    pub table2: &'a Table2,
    /// Section 7 state: the workload's own for `atpg_*`, ITR on else.
    pub section7: &'a Section7,
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Nanoseconds per call of `f(i)`, cycling `i` over `0..n`, in five
/// batches of at least 20 ms each: the median batch.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per = Vec::new();
    let mut i = 0;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut calls = 0;
        while calls < n.min(8) || t0.elapsed().as_secs_f64() < 0.02 {
            f(i);
            i = (i + 1) % n;
            calls += 1;
        }
        per.push(t0.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    median(&per)
}

/// The standard cells, largest first.
const CELLS: [(&str, GateKind, usize); 7] = [
    ("NAND4", GateKind::Nand, 4),
    ("NOR4", GateKind::Nor, 4),
    ("NAND3", GateKind::Nand, 3),
    ("NOR3", GateKind::Nor, 3),
    ("NAND2", GateKind::Nand, 2),
    ("NOR2", GateKind::Nor, 2),
    ("INV", GateKind::Inv, 1),
];

/// Serial `Characterizer::characterize` of every standard cell, one
/// thread per cell on up to `jobs` threads at once (each cell's sweep is
/// serial; the cores are shared as in the library run), largest cells
/// first. Returns each cell's seconds by name.
fn characterize_cells(jobs: usize, tally: &mut Tally) -> BTreeMap<&'static str, f64> {
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<(&str, Result<f64, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs.clamp(1, CELLS.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(name, kind, n)) = CELLS.get(i) else {
                            break done;
                        };
                        let t0 = Instant::now();
                        let r = Characterizer::min_size(name, kind, n, CharConfig::fast())
                            .and_then(|c| c.characterize())
                            .map(|_| secs(t0))
                            .map_err(|e| e.to_string());
                        done.push((name, r));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("characterization thread panicked"))
            .collect()
    });
    results
        .into_iter()
        .filter_map(|(name, r)| tally.check(name, r).map(|s| (name, s)))
        .collect()
}

/// Sum of self time (ms) over every span named `name`, at any depth.
fn self_ms(tree: &BTreeMap<String, SpanNode>, name: &str) -> f64 {
    fn walk(nodes: &BTreeMap<String, SpanNode>, name: &str) -> u64 {
        nodes
            .iter()
            .map(|(n, node)| {
                let own = if n == name { node.self_ns() } else { 0 };
                own + walk(&node.children, name)
            })
            .sum()
    }
    walk(tree, name) as f64 / 1e6
}

/// Sum of total time (ns) over every span named `name`, at any depth.
fn total_ns(tree: &BTreeMap<String, SpanNode>, name: &str) -> u64 {
    tree.iter()
        .map(|(n, node)| {
            let own = if n == name { node.total_ns } else { 0 };
            own + total_ns(&node.children, name)
        })
        .sum()
}

fn rand_v2(rng: &mut StdRng) -> V2 {
    let b = |rng: &mut StdRng| Tri::from_bool(rng.gen());
    V2::new(b(rng), b(rng))
}

fn rand_bools(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen()).collect()
}

/// The per-layer probes every traced run makes (obs must be on).
/// `char_s` is the cold library characterization's wall time, when the
/// workload made one.
pub fn probes(cx: &Context<'_>, char_s: Option<f64>, tally: &mut Tally, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(cx.seed ^ 0x7472_6163_6564);
    atpg_layer(cx, tally, m);

    // spice + cells accuracy inputs
    let acc = crate::heldout::score(cx.lib, cx.points, tally);
    let t = tail(&acc.transient_us);
    m.set("spice.transient_us.p50", median(&acc.transient_us), "us");
    m.set("spice.transient_us.tail", t.value, "us");

    // cells
    let units0 = ssdm_obs::counter_total("cells.sweep.units");
    let per_cell = characterize_cells(cx.jobs, tally);
    for (name, s) in &per_cell {
        m.set(format!("cells.char_s.{name}"), *s, "s");
    }
    let serial: f64 = per_cell.values().sum();
    m.set(
        "cells.parallel_eff",
        char_s.map_or(0.0, |c| serial / (cx.jobs as f64 * c)),
        "ratio",
    );
    m.set(
        "cells.sweep.units",
        (ssdm_obs::counter_total("cells.sweep.units") - units0) as f64,
        "count",
    );
    let parse: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            tally.record(CellLibrary::from_text(black_box(&cx.section7.frozen.text)).is_ok());
            secs(t0) * 1e3
        })
        .collect();
    m.set("cells.lib_parse_ms", median(&parse), "ms");
    let names: Vec<&str> = standard_cells().iter().map(|(n, _)| *n).collect();
    let cells: Vec<&CharacterizedGate> = names.iter().filter_map(|n| cx.lib.get(n)).collect();
    tally.record(cells.len() == names.len());
    let pins = &cx.points.pins;
    m.set(
        "cells.pin_delay_ns",
        ns_per_call(pins.len(), |i| {
            let p = &pins[i];
            let c = cells[p.cell];
            let _ = black_box(c.pin_delay(
                p.in_edge.inverted(),
                p.pos,
                Time::from_ns(p.t),
                c.ref_load(),
            ));
        }),
        "ns",
    );
    let pairs = &cx.points.pairs;
    m.set(
        "cells.vshape_delay_ns",
        ns_per_call(pairs.len(), |i| {
            let p = &pairs[i];
            let c = cells[p.cell];
            let v = c.vshape_delay(
                p.i,
                p.j,
                Time::from_ns(p.t_i),
                Time::from_ns(p.t_j),
                c.ref_load(),
            );
            let _ = black_box(v.map(|v| v.eval(Time::from_ns(p.skew))));
        }),
        "ns",
    );

    // models: a two-pin simultaneous stimulus per held-out pair point
    let stimuli: Vec<(&CharacterizedGate, [(usize, Transition); 2])> = pairs
        .iter()
        .map(|p| {
            let c = cells[p.cell];
            let e = c.in_edge_for(c.ctrl_out_edge());
            let at =
                |t: f64, skew: f64| Transition::new(e, Time::from_ns(2.0 + skew), Time::from_ns(t));
            (c, [(p.i, at(p.t_i, 0.0)), (p.j, at(p.t_j, p.skew))])
        })
        .collect();
    let models: [(&str, Box<dyn DelayModel>); 4] = [
        ("proposed", Box::new(ProposedModel::new())),
        ("pin2pin", Box::new(PinToPinModel::new())),
        ("jun", Box::new(JunModel::new(Process::p05um()))),
        ("nabavi", Box::new(NabaviModel::new(Process::p05um()))),
    ];
    for (label, model) in &models {
        let ns = ns_per_call(stimuli.len(), |i| {
            let (c, sw) = &stimuli[i];
            tally.record(black_box(model.response(c, sw, c.ref_load())).is_ok());
        });
        m.set(format!("models.response_ns.{label}"), ns, "ns");
    }

    // netlist
    let gen: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(workload::circuits());
            secs(t0) * 1e3
        })
        .collect();
    m.set("netlist.gen_ms", median(&gen), "ms");

    // sta: full passes through the Table 2 sweep
    let mut per_pass: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let t0 = Instant::now();
    while per_pass.values().map(Vec::len).min().unwrap_or(0) < 5 || secs(t0) < 0.5 {
        for p in cx.table2.sweep(&mut rng, tally) {
            per_pass
                .entry((p.circuit, p.model))
                .or_default()
                .push(p.secs * 1e3);
        }
    }
    for ((ci, mi), ms) in &per_pass {
        let name = cx.table2.circuits[*ci].name();
        m.set(
            format!("sta.pass_ms.{name}.{}", MODELS[*mi].0),
            median(ms),
            "ms",
        );
    }

    let circuits = &cx.section7.circuits;
    let lib = &cx.section7.frozen.lib;
    // logic: PODEM-like partial assignments (a few primary inputs set)
    for c in circuits {
        let mut us = Vec::new();
        for _ in 0..30 {
            let mut a = Assignments::new(c.n_nets());
            for _ in 0..c.inputs().len().min(8) {
                let pi = c.inputs()[rng.gen_range(0..c.inputs().len())];
                let _ = a.set(pi, rand_v2(&mut rng));
            }
            let t0 = Instant::now();
            let r = imply(c, &mut a);
            us.push(secs(t0) * 1e6);
            tally.record(r.is_ok());
        }
        m.set(format!("logic.imply_us.{}", c.name()), median(&us), "us");
    }

    // itr: assign / refine / retract sequences
    let mut refine_us = Vec::new();
    for c in circuits
        .iter()
        .filter(|c| matches!(c.name(), "c3540s" | "c7552s"))
    {
        let itr = ssdm_itr::Itr::new(c, lib, StaConfig::default());
        let mut a = Assignments::new(c.n_nets());
        tally.record(itr.refine(&mut a).is_ok()); // engine build: a full pass
        for _ in 0..ITR_STEPS {
            let free: Vec<_> = c
                .inputs()
                .iter()
                .filter(|&&pi| !a.get(pi).is_fully_specified())
                .collect();
            if free.is_empty() {
                a = Assignments::new(c.n_nets());
                continue;
            }
            let before = a.clone();
            let pi = *free[rng.gen_range(0..free.len())];
            tally.record(a.set(pi, rand_v2(&mut rng)).is_ok());
            let mut step = |a: &mut Assignments| {
                let t0 = Instant::now();
                let r = itr.refine(a);
                refine_us.push(secs(t0) * 1e6);
                tally.record(r.is_ok());
            };
            step(&mut a);
            if rng.gen_bool(0.25) {
                a = before;
                step(&mut a);
            }
        }
    }
    m.set("itr.refine_us.p50", median(&refine_us), "us");
    m.set("itr.refine_us.tail", tail(&refine_us).value, "us");

    // tsim: random two-pattern stimuli
    for c in circuits {
        let sim = TimingSim::new(c, lib, ProposedModel::new());
        let n = c.inputs().len();
        let us: Vec<f64> = (0..20)
            .map(|_| {
                let input = SimInput::step(c, &rand_bools(&mut rng, n), &rand_bools(&mut rng, n));
                let t0 = Instant::now();
                let r = sim.run(&input);
                let s = secs(t0) * 1e6;
                tally.record(r.is_ok());
                s
            })
            .collect();
        m.set(format!("tsim.run_us.{}", c.name()), median(&us), "us");
    }
}

/// The ATPG layer on the first [`PROBE_SITES`] sites of each campaign: a
/// serial `Atpg::run_site` pass, a 1-job driver pass (whose counters
/// repeat exactly) and a `jobs`-worker driver pass.
fn atpg_layer(cx: &Context<'_>, tally: &mut Tally, m: &mut Metrics) {
    let s7 = cx.section7;
    let lib = &s7.frozen.lib;
    let mut site_ms = Vec::new();
    let mut aborted = 0;
    let bt0 = ssdm_obs::counter_total("atpg.podem.backtracks");
    for c in &s7.campaigns {
        let circuit = &s7.circuits[c.circuit];
        let sites = &c.sites[..c.sites.len().min(PROBE_SITES)];
        let atpg = Atpg::new(circuit, lib, c.config.clone());
        for &site in sites {
            let t0 = Instant::now();
            let r = atpg.run_site(site);
            site_ms.push(secs(t0) * 1e3);
            if let Some(o) = tally.check("Atpg::run_site", r) {
                aborted += usize::from(o == FaultOutcome::Aborted);
                let want = s7
                    .frozen
                    .expected
                    .get(&site_key(s7.mode, circuit.name(), site));
                tally.record(want == Some(outcome_value(&o).as_str()));
            }
        }
    }
    let backtracks = ssdm_obs::counter_total("atpg.podem.backtracks") - bt0;
    let n = site_ms.len() as f64;
    m.set("podem.site_ms.p50", median(&site_ms), "ms");
    m.set("podem.site_ms.tail", tail(&site_ms).value, "ms");
    m.set("podem.backtracks_per_site", backtracks as f64 / n, "count");
    m.set("podem.abort_frac", aborted as f64 / n, "ratio");

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut timing = ssdm_sta::IncrementalStats::default();
    let (mut dropped, mut total) = (0, 0);
    let searched0 = ssdm_obs::counter_total("atpg.worker.searched");
    let skipped0 = ssdm_obs::counter_total("atpg.worker.skipped");
    let mut wall = 0.0;
    let spans0 = ssdm_obs::capture().span_tree();
    for jobs in [cx.jobs, 1] {
        for c in &s7.campaigns {
            let circuit = &s7.circuits[c.circuit];
            let sites = &c.sites[..c.sites.len().min(PROBE_SITES)];
            let driver = AtpgDriver::new(circuit, lib, c.config.clone()).with_jobs(jobs);
            let t0 = Instant::now();
            let r = driver.run(sites);
            if jobs == cx.jobs {
                wall += secs(t0);
            }
            let Some(r) = tally.check("AtpgDriver::run", r) else {
                continue;
            };
            let (checked, bad) =
                workload::check_campaign(&s7.frozen.expected, s7.mode, circuit.name(), sites, &r);
            tally.attempted += checked;
            tally.failed += bad;
            if jobs == 1 {
                timing += r.timing;
                dropped += r.stats.dropped;
                total += r.stats.total();
            }
        }
        if jobs == cx.jobs {
            // The resolve share of the parallel passes alone: at one job
            // resolve does all the work.
            let spans = ssdm_obs::capture().span_tree();
            let delta = |name| total_ns(&spans, name) - total_ns(&spans0, name);
            let (driver, resolve) = (delta("atpg.driver"), delta("atpg.resolve"));
            m.set("driver.resolve_frac", ratio(resolve, driver), "ratio");
        }
    }
    m.set(
        "sta.incremental.memo_hit_rate",
        ratio(timing.memo_hits, timing.memo_hits + timing.memo_misses),
        "ratio",
    );
    m.set(
        "sta.incremental.gates_per_refine",
        ratio(timing.gates_evaluated, timing.incremental_passes),
        "count",
    );
    m.set(
        "sta.incremental.full_passes",
        timing.full_passes as f64,
        "count",
    );
    m.set(
        "driver.drop_rate",
        ratio(dropped as u64, total as u64),
        "ratio",
    );
    m.set(
        "driver.parallel_eff",
        site_ms.iter().sum::<f64>() / 1e3 / (cx.jobs as f64 * wall),
        "ratio",
    );
    m.set(
        "atpg.worker.searched",
        (ssdm_obs::counter_total("atpg.worker.searched") - searched0) as f64,
        "count",
    );
    m.set(
        "atpg.worker.skipped",
        (ssdm_obs::counter_total("atpg.worker.skipped") - skipped0) as f64,
        "count",
    );
}

/// Reads span self times from everything recorded since obs was
/// switched on.
pub fn spans(m: &mut Metrics) {
    let tree = ssdm_obs::capture().span_tree();
    for name in [
        "atpg.fault",
        "itr.refine",
        "sta.refine",
        "tsim.run",
        "cells.sweep",
    ] {
        m.set(format!("span.{name}.self_ms"), self_ms(&tree, name), "ms");
    }
}

/// Turns obs on with a clean registry (progress and serving stay off).
pub fn obs_on() {
    ssdm_obs::reset();
    ssdm_obs::set_thread_label("main");
    ssdm_obs::set_enabled(true);
}
