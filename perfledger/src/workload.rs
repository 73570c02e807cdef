//! The four workloads: their inputs (made from the seed), one job each,
//! and the checks of every job's outputs against the recorded digests.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssdm_atpg::{
    Atpg, AtpgConfig, AtpgDriver, CampaignResult, FaultOutcome, SiteOutcome, TestPair,
};
use ssdm_cells::{CellLibrary, CharConfig};
use ssdm_logic::Tri;
use ssdm_netlist::{coupling_sites, suite, Circuit, CrosstalkSite};
use ssdm_sta::{ModelKind, Sta, StaConfig, StaResult};

use crate::calib::Clock;
use crate::frozen::{Expected, Fnv, Frozen};
use crate::stats::Tally;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["char_cold", "sta_table2", "atpg_itr", "atpg_noitr"];

/// The Table 2 models, with their metric-name labels.
pub const MODELS: [(&str, ModelKind); 2] = [
    ("proposed", ModelKind::Proposed),
    ("pin2pin", ModelKind::PinToPin),
];

/// Sites pooled per circuit for the ITR-on campaigns (fewer on circuits
/// too small to provide them).
pub const ITR_SITES: usize = 300;
/// Sites per circuit for the ITR-off campaigns: the first ones of the
/// same pool, since nearly every one of them searches to its budget.
pub const NOITR_SITES: usize = 40;
/// The site pool's sampling seed (the `sec7_atpg` one).
pub const POOL_SEED: u64 = 7001;
/// The Section 7 backtrack budget.
pub const BACKTRACK_LIMIT: usize = 12;

/// Worker threads: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `job` until `seconds` have passed and it has run at least `min`
/// times; returns every job's measured seconds.
///
/// # Errors
///
/// The first job error.
pub fn repeat_for(
    seconds: f64,
    min: usize,
    mut job: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min || start.elapsed().as_secs_f64() < seconds {
        walls.push(job()?);
    }
    Ok(walls)
}

/// Times `setup`: the first call from `process_start`, then batches of
/// calls, each batch long enough (20 ms) that timer and cache noise on a
/// fast setup average out, until five batches and 0.5 s have passed.
/// Returns the last value and the seconds per call of the first call and
/// of every batch.
///
/// # Errors
///
/// The first setup error.
pub fn time_setup<T>(
    process_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    setup()?;
    let mut secs = vec![process_start.elapsed().as_secs_f64()];
    let t0 = Instant::now();
    let mut value = setup()?;
    let per_batch = (0.02 / t0.elapsed().as_secs_f64().max(1e-7)).ceil() as usize;
    let again = Instant::now();
    while secs.len() < 6 || again.elapsed().as_secs_f64() < 0.5 {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            value = setup()?;
        }
        secs.push(t0.elapsed().as_secs_f64() / per_batch as f64);
    }
    Ok((value, secs))
}

// ---------------------------------------------------------------- char_cold

/// One cold characterization of the standard library on the fast grid.
///
/// # Errors
///
/// Characterization failure.
pub fn characterize(jobs: usize) -> Result<(CellLibrary, f64), String> {
    let t0 = Instant::now();
    let lib = CellLibrary::characterize_standard_with_jobs(&CharConfig::fast(), jobs)
        .map_err(|e| format!("characterization: {e}"))?;
    Ok((lib, t0.elapsed().as_secs_f64()))
}

// --------------------------------------------------------------- sta_table2

/// The six suite circuits, `c17` first.
pub fn circuits() -> Vec<Circuit> {
    suite::bench_suite()
}

/// Key of a recorded STA output.
pub fn sta_key(circuit: &str, model: &str) -> String {
    format!("sta {circuit} {model}")
}

/// The recorded form of an STA result: endpoint min and max delay bits,
/// then a digest of every line's windows.
pub fn sta_value(circuit: &Circuit, r: &StaResult) -> String {
    let mut lines = Fnv::default();
    for lt in r.lines() {
        for e in [lt.rise, lt.fall] {
            lines = match e {
                None => lines.u64(0),
                Some(e) => [e.arrival.s(), e.arrival.l(), e.ttime.s(), e.ttime.l()]
                    .iter()
                    .fold(lines.u64(1), |d, t| d.u64(t.as_ns().to_bits())),
            };
        }
    }
    format!(
        "{:016x}:{:016x}:{:016x}",
        r.endpoint_min_delay(circuit).as_ns().to_bits(),
        r.endpoint_max_delay(circuit).as_ns().to_bits(),
        lines.finish()
    )
}

/// Table 2 state: the frozen library and the suite.
#[derive(Debug)]
pub struct Table2 {
    /// Frozen library and recorded outputs.
    pub frozen: Frozen,
    /// The suite circuits.
    pub circuits: Vec<Circuit>,
}

/// One timed STA pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Index into [`Table2::circuits`].
    pub circuit: usize,
    /// Index into [`MODELS`].
    pub model: usize,
    /// Seconds in `Sta::run`.
    pub secs: f64,
}

impl Table2 {
    /// Sets up from the frozen inputs.
    pub fn new(frozen: Frozen) -> Table2 {
        Table2 {
            frozen,
            circuits: circuits(),
        }
    }

    /// One Table 2 sweep: every circuit under both models, in an order
    /// drawn from `order`. Each pass's output is checked after its timer
    /// stops.
    pub fn sweep(&self, order: &mut StdRng, tally: &mut Tally) -> Vec<Pass> {
        let mut plan: Vec<(usize, usize)> = (0..self.circuits.len())
            .flat_map(|c| (0..MODELS.len()).map(move |m| (c, m)))
            .collect();
        shuffle(&mut plan, order);
        let mut passes = Vec::with_capacity(plan.len());
        for (ci, mi) in plan {
            let circuit = &self.circuits[ci];
            let (label, model) = MODELS[mi];
            let cfg = StaConfig::default().with_model(model);
            let t0 = Instant::now();
            let r = Sta::new(circuit, &self.frozen.lib, cfg).run();
            let secs = t0.elapsed().as_secs_f64();
            let Some(r) = tally.check("Sta::run", r) else {
                continue;
            };
            let key = sta_key(circuit.name(), label);
            tally.record(self.frozen.expected.get(&key) == Some(sta_value(circuit, &r).as_str()));
            passes.push(Pass {
                circuit: ci,
                model: mi,
                secs,
            });
        }
        passes
    }
}

fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

// --------------------------------------------------------------------- atpg

/// One circuit's campaign inputs.
#[derive(Debug)]
pub struct Campaign {
    /// Index into [`Section7::circuits`].
    pub circuit: usize,
    /// The sites, in the seed's order.
    pub sites: Vec<CrosstalkSite>,
    /// Configuration (clock from the circuit's own STA).
    pub config: AtpgConfig,
}

/// Section 7 state.
#[derive(Debug)]
pub struct Section7 {
    /// Frozen library and recorded outputs.
    pub frozen: Frozen,
    /// The suite circuits.
    pub circuits: Vec<Circuit>,
    /// One campaign per circuit.
    pub campaigns: Vec<Campaign>,
    /// `"itr"` or `"noitr"`.
    pub mode: &'static str,
    order: StdRng,
}

/// The pooled sites of `circuit` for `mode`, in pool order.
pub fn site_pool(circuit: &Circuit, mode: &str) -> Vec<CrosstalkSite> {
    let mut sites = coupling_sites(circuit, ITR_SITES, POOL_SEED);
    if mode == "noitr" {
        sites.truncate(NOITR_SITES);
    }
    sites
}

/// The configuration of `mode`, clocked from the circuit's STA.
///
/// # Errors
///
/// STA failure.
pub fn atpg_config(circuit: &Circuit, lib: &CellLibrary, mode: &str) -> Result<AtpgConfig, String> {
    let base = AtpgConfig::for_circuit(circuit, lib).map_err(|e| format!("for_circuit: {e}"))?;
    Ok(AtpgConfig {
        use_itr: mode == "itr",
        backtrack_limit: BACKTRACK_LIMIT,
        ..base
    })
}

/// Key of a recorded site outcome.
pub fn site_key(mode: &str, circuit: &str, site: CrosstalkSite) -> String {
    format!(
        "site {mode} {circuit} {} {}",
        site.aggressor.index(),
        site.victim.index()
    )
}

fn test_digest(t: &TestPair) -> u64 {
    let code = |v: &Tri| match v {
        Tri::Zero => 0u8,
        Tri::One => 1,
        Tri::X => 2,
    };
    let bytes: Vec<u8> = t.v1.iter().chain(&t.v2).map(code).collect();
    Fnv::default().bytes(&bytes).finish()
}

/// The recorded form of a searched site's outcome.
pub fn outcome_value(o: &FaultOutcome) -> String {
    match o {
        FaultOutcome::Detected(t) => format!("D{:016x}", test_digest(t)),
        FaultOutcome::Undetectable => "U".to_string(),
        FaultOutcome::Aborted => "A".to_string(),
    }
}

/// Checks a campaign against the recorded outcomes: every searched site
/// must reproduce its recorded PODEM outcome, every dropped site must
/// point at an earlier detected one, and the statistics must count the
/// outcomes. Returns `(checked, mismatched)`.
pub fn check_campaign(
    expected: &Expected,
    mode: &str,
    circuit: &str,
    sites: &[CrosstalkSite],
    r: &CampaignResult,
) -> (u64, u64) {
    let mut bad = u64::from(r.outcomes.len() != sites.len());
    let (mut det, mut drop, mut und, mut abo) = (0, 0, 0, 0);
    for (i, (site, o)) in sites.iter().zip(&r.outcomes).enumerate() {
        let want = expected.get(&site_key(mode, circuit, *site));
        let ok = match o {
            SiteOutcome::Detected(t) => {
                det += 1;
                want == Some(outcome_value(&FaultOutcome::Detected(t.clone())).as_str())
            }
            SiteOutcome::Undetectable => {
                und += 1;
                want == Some("U")
            }
            SiteOutcome::Aborted => {
                abo += 1;
                want == Some("A")
            }
            SiteOutcome::Dropped { by } => {
                det += 1;
                drop += 1;
                *by < i && matches!(r.outcomes[*by], SiteOutcome::Detected(_))
            }
        };
        bad += u64::from(!ok);
    }
    let s = r.stats;
    bad += u64::from((s.detected, s.dropped, s.undetectable, s.aborted) != (det, drop, und, abo));
    (sites.len() as u64 + 1, bad)
}

impl Section7 {
    /// Sets up from the frozen inputs: circuits, the seed's site order
    /// and each circuit's clocked configuration.
    ///
    /// # Errors
    ///
    /// STA failure while deriving a clock.
    pub fn new(frozen: Frozen, mode: &'static str, seed: u64) -> Result<Section7, String> {
        let circuits = circuits();
        let mut rng = StdRng::seed_from_u64(seed);
        let campaigns = circuits
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let mut sites = site_pool(c, mode);
                shuffle(&mut sites, &mut rng);
                Ok(Campaign {
                    circuit: ci,
                    sites,
                    config: atpg_config(c, &frozen.lib, mode)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Section7 {
            frozen,
            circuits,
            campaigns,
            mode,
            order: rng,
        })
    }

    /// Sites in one sweep.
    pub fn n_sites(&self) -> usize {
        self.campaigns.iter().map(|c| c.sites.len()).sum()
    }

    /// One sweep: every circuit's campaign through `AtpgDriver` at `jobs`
    /// workers, each in a new seeded site order (so that a run's median
    /// covers several schedules). Returns each campaign's seconds in
    /// `AtpgDriver::run`, calibrated by the clock samples around it, the
    /// raw total, and the results; each result is checked after its
    /// timer stops.
    pub fn sweep(
        &mut self,
        jobs: usize,
        clock: &mut Clock,
        tally: &mut Tally,
    ) -> (Vec<f64>, f64, Vec<CampaignResult>) {
        for c in &mut self.campaigns {
            shuffle(&mut c.sites, &mut self.order);
        }
        let mut calibrated = Vec::new();
        let mut raw = 0.0;
        let mut results = Vec::new();
        for c in &self.campaigns {
            let circuit = &self.circuits[c.circuit];
            let driver =
                AtpgDriver::new(circuit, &self.frozen.lib, c.config.clone()).with_jobs(jobs);
            let from = clock.len();
            clock.sample(1);
            let t0 = Instant::now();
            let r = driver.run(&c.sites);
            let secs = t0.elapsed().as_secs_f64();
            clock.sample(1);
            raw += secs;
            calibrated.push(clock.scale_since(from, secs));
            let Some(r) = tally.check("AtpgDriver::run", r) else {
                continue;
            };
            let (checked, bad) = check_campaign(
                &self.frozen.expected,
                self.mode,
                circuit.name(),
                &c.sites,
                &r,
            );
            tally.attempted += checked;
            tally.failed += bad;
            if bad > 0 {
                eprintln!(
                    "{}: {bad} outcome(s) differ from the record",
                    circuit.name()
                );
            }
            results.push(r);
        }
        (calibrated, raw, results)
    }
}

/// The recorded outputs of the current code: the library digest, every
/// STA result and every pooled site's serial PODEM outcome, as
/// `expected.txt` lines.
///
/// # Errors
///
/// Any failing call.
pub fn record(frozen: &Frozen) -> Result<Vec<String>, String> {
    let mut out = vec![format!(
        "{} {}",
        crate::frozen::LIBRARY_KEY,
        crate::frozen::library_digest(&frozen.text)
    )];
    let lib = &frozen.lib;
    for c in circuits() {
        for (label, model) in MODELS {
            let r = Sta::new(&c, lib, StaConfig::default().with_model(model))
                .run()
                .map_err(|e| e.to_string())?;
            out.push(format!(
                "{} {}",
                sta_key(c.name(), label),
                sta_value(&c, &r)
            ));
        }
        for mode in ["itr", "noitr"] {
            let atpg = Atpg::new(&c, lib, atpg_config(&c, lib, mode)?);
            for site in site_pool(&c, mode) {
                let o = atpg.run_site(site).map_err(|e| e.to_string())?;
                out.push(format!(
                    "{} {}",
                    site_key(mode, c.name(), site),
                    outcome_value(&o)
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_atpg::AtpgStats;

    fn frozen() -> Frozen {
        crate::frozen::load(&std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("data"))
            .expect("frozen inputs")
    }

    #[test]
    fn sta_passes_match_the_record_and_a_perturbed_record_fails() {
        let mut t2 = Table2::new(frozen());
        t2.circuits.truncate(2);
        let mut order = StdRng::seed_from_u64(3);
        let mut tally = Tally::default();
        let passes = t2.sweep(&mut order, &mut tally);
        assert_eq!(passes.len(), 4);
        assert_eq!((tally.attempted, tally.failed), (8, 0));

        // Flip one bit of one recorded digest: exactly that pass fails.
        let key = sta_key("c17", "proposed");
        let good = t2.frozen.expected.get(&key).unwrap().to_string();
        let last = good.chars().last().unwrap();
        let flipped = format!(
            "{}{}",
            &good[..good.len() - 1],
            if last == '0' { '1' } else { '0' }
        );
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("data/expected.txt"),
        )
        .unwrap()
        .replace(&format!("{key} {good}"), &format!("{key} {flipped}"));
        t2.frozen.expected = Expected::parse(&text).unwrap();
        let mut tally = Tally::default();
        t2.sweep(&mut order, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (8, 1));
    }

    #[test]
    fn campaign_check_catches_changed_outcomes_and_stats() {
        let mut s7 = Section7::new(frozen(), "itr", 5).unwrap();
        s7.campaigns.truncate(1);
        let mut tally = Tally::default();
        let (_, _, results) = s7.sweep(1, &mut Clock::default(), &mut tally);
        assert_eq!(tally.failed, 0, "{tally:?}");
        let r = &results[0];
        let c17 = &s7.campaigns[0];
        let exp = &s7.frozen.expected;
        assert_eq!(check_campaign(exp, "itr", "c17", &c17.sites, r).1, 0);

        // An outcome that differs from the record fails.
        let mut changed = r.clone();
        let i = changed
            .outcomes
            .iter()
            .position(|o| !matches!(o, SiteOutcome::Dropped { .. }))
            .unwrap();
        changed.outcomes[i] = match changed.outcomes[i] {
            SiteOutcome::Aborted => SiteOutcome::Undetectable,
            _ => SiteOutcome::Aborted,
        };
        assert!(check_campaign(exp, "itr", "c17", &c17.sites, &changed).1 >= 1);

        // Statistics that do not count the outcomes fail.
        let mut miscounted = r.clone();
        miscounted.stats = AtpgStats {
            aborted: r.stats.aborted + 1,
            ..r.stats
        };
        assert_eq!(
            check_campaign(exp, "itr", "c17", &c17.sites, &miscounted).1,
            1
        );
    }

    #[test]
    fn setup_and_jobs_repeat_as_promised() {
        let mut calls = 0;
        let (v, secs) = time_setup(Instant::now(), || {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!(v, calls);
        assert!(secs.len() >= 6 && calls > secs.len());
        let walls = repeat_for(0.0, 3, || Ok(1.0)).unwrap();
        assert_eq!(walls, vec![1.0; 3]);
        assert!(repeat_for(0.0, 1, || Err::<f64, _>("x".to_string())).is_err());
    }
}
