//! The repository benchmark.
//!
//! ```text
//! perfledger --workload <char_cold|sta_table2|atpg_itr|atpg_noitr> --seed <n>
//!            --seconds <s> --trace <0|1> [--data <dir>] [--out <dir>]
//! perfledger --record [--data <dir>]
//! ```
//!
//! A run makes its inputs from the seed, measures the workload for about
//! `--seconds`, checks every output, and prints a machine header line and
//! then, as the last line, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` gives the end-to-end metrics with
//! `ssdm_obs` off; `--trace 1` turns it on and gives the per-layer
//! metrics. `--data` names the frozen inputs (default `perfledger/data`,
//! relative to the working directory); the run writes nothing unless
//! `--out` names a directory for a copy of its report. `--record` prints
//! the current code's outputs in the `expected.txt` format. See
//! `perfledger/README.md`.

mod calib;
mod frozen;
mod heldout;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use calib::Clock;
use heldout::{Accuracy, HeldOut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::{json_str, median, result_line, tail, Metrics, Tally};
use workload::{nproc, repeat_for, time_setup, Section7, Table2};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: PathBuf,
    out: Option<PathBuf>,
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        data: PathBuf::from("perfledger/data"),
        out: None,
        record: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--record" {
            a.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if workload::WORKLOADS.contains(&value.as_str()) => a.workload = value,
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--data" => a.data = PathBuf::from(value),
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() && !a.record {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

/// What a run reports besides its metrics: `(key, JSON value)` pairs.
type Info = Vec<(&'static str, String)>;

/// Peak resident set size of this process (MB), from `/proc`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Setup seconds, calibrated: the clock's kernel is timed on one thread
/// just before and after the repeated setups.
struct Setup {
    secs: Vec<f64>,
    calibrated: f64,
}

fn timed_setup<T>(
    start: Instant,
    f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Setup), String> {
    let mut clock = Clock::default();
    let (value, secs) = time_setup(start, f)?;
    clock.sample(5);
    let calibrated = clock.scale(median(&secs));
    Ok((value, Setup { secs, calibrated }))
}

/// The end-to-end metrics every untraced run prints. `job_s` is the
/// calibrated job time; `jobs` and `raw` are each job's calibrated and
/// wall seconds.
fn end_to_end(
    m: &mut Metrics,
    clock: &Clock,
    setup: &Setup,
    job_s: f64,
    (jobs, raw): (&[f64], &[f64]),
    acc: &Accuracy,
    info: &mut Info,
) -> Result<(), String> {
    m.set("setup_s", setup.calibrated, "s");
    m.set("job_s", job_s, "s");
    m.set("pin_rms_ps", acc.pin_rms_ps, "ps");
    m.set("pair_rms_ps", acc.pair_rms_ps, "ps");
    let q = |xs: &[f64]| {
        format!(
            "[{}, {}, {}]",
            stats::percentile(xs, 25),
            median(xs),
            stats::percentile(xs, 75)
        )
    };
    info.push(("job_s_quartiles", q(jobs)));
    info.push(("job_wall_s_quartiles", q(raw)));
    info.push(("setup_wall_s", median(&setup.secs).to_string()));
    // Peak RSS is reported, not gated: on the ATPG workloads it moves
    // with how the workers happen to split the sites (per-worker memo
    // caches), by more than any useful bound.
    info.push(("peak_rss_mb", peak_rss_mb()?.to_string()));
    info.push(("calibration_kernel_s", clock.median_s().to_string()));
    info.push((
        "samples",
        format!(
            "{{\"setup\": {}, \"jobs\": {}, \"calibrations\": {}, \"transients\": {}}}",
            setup.secs.len(),
            jobs.len(),
            clock.len(),
            acc.transient_us.len()
        ),
    ));
    Ok(())
}

/// Sum over keys of the median of each key's samples.
fn sum_of_medians<K>(by_key: &BTreeMap<K, Vec<f64>>) -> f64 {
    by_key.values().map(|v| median(v)).sum()
}

fn char_cold(
    a: &Args,
    start: Instant,
    tally: &mut Tally,
    m: &mut Metrics,
    info: &mut Info,
) -> Result<(), String> {
    let jobs = nproc();
    let (points, setup) = timed_setup(start, || {
        black_box(heldout::standard_cells());
        Ok(HeldOut::draw(a.seed))
    })?;
    if a.trace {
        trace::obs_on();
        let (lib, char_s) = workload::characterize(jobs)?;
        // Tracing overhead on the inverter's serial sweep, repeated.
        let mut inv = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    let t0 = Instant::now();
                    let c = ssdm_cells::Characterizer::min_size(
                        "INV",
                        ssdm_spice::GateKind::Inv,
                        1,
                        ssdm_cells::CharConfig::fast(),
                    )
                    .and_then(|c| c.characterize());
                    tally.record(c.is_ok());
                    t0.elapsed().as_secs_f64()
                })
                .collect()
        };
        ssdm_obs::set_enabled(false);
        let untraced = inv(15);
        ssdm_obs::set_enabled(true);
        let traced = inv(15);
        m.set(
            "obs.overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
            "ratio",
        );
        let s7 = Section7::new(frozen::load(&a.data)?, "itr", a.seed)?;
        let t2 = Table2::new(frozen::load(&a.data)?);
        let cx = trace::Context {
            jobs,
            seed: a.seed,
            lib: &lib,
            points: &points,
            table2: &t2,
            section7: &s7,
        };
        trace::probes(&cx, Some(char_s), tally, m);
        return Ok(());
    }
    let mut libs = Vec::new();
    let mut clock = Clock::default();
    let mut raw = Vec::new();
    // Reported as measured: see the `calib` module on long jobs.
    let walls = repeat_for(a.seconds, 1, || {
        let (lib, s) = workload::characterize(jobs)?;
        clock.sample(5);
        libs.push(lib);
        raw.push(s);
        Ok(s)
    })?;
    // Characterization is deterministic: every repeat gives the same library.
    let first = libs[0].to_text();
    for lib in &libs[1..] {
        tally.record(lib.to_text() == first);
    }
    tally.record(libs[0].len() == 7);
    let acc = heldout::score(&libs[0], &points, tally);
    end_to_end(
        m,
        &clock,
        &setup,
        median(&walls),
        (&walls, &raw),
        &acc,
        info,
    )
}

/// One closed-loop `sta_table2` client: sweeps in its own seeded order
/// until `seconds` pass (at least `min` sweeps), each sweep calibrated by
/// kernel samples on either side of it.
#[derive(Debug, Default)]
struct StaClient {
    /// Calibrated seconds of every pass, by (circuit, model).
    by_pass: BTreeMap<(usize, usize), Vec<f64>>,
    passes: Vec<workload::Pass>,
    walls: Vec<f64>,
    raw: Vec<f64>,
    clock: Clock,
    tally: Tally,
}

fn sta_client(t2: &Table2, seed: u64, seconds: f64, min: usize) -> Result<StaClient, String> {
    let mut c = StaClient::default();
    let mut order = StdRng::seed_from_u64(seed);
    let walls = repeat_for(seconds, min, || {
        let from = c.clock.len();
        c.clock.sample(1);
        let p = t2.sweep(&mut order, &mut c.tally);
        c.clock.sample(1);
        let s: f64 = p.iter().map(|p| p.secs).sum();
        for q in &p {
            let secs = c.clock.scale_since(from, q.secs);
            c.by_pass
                .entry((q.circuit, q.model))
                .or_default()
                .push(secs);
        }
        c.passes.extend(p);
        c.raw.push(s);
        Ok(c.clock.scale_since(from, s))
    })?;
    c.walls = walls;
    Ok(c)
}

fn sta_table2(
    a: &Args,
    start: Instant,
    tally: &mut Tally,
    m: &mut Metrics,
    info: &mut Info,
) -> Result<(), String> {
    let ((t2, points), setup) = timed_setup(start, || {
        Ok((Table2::new(frozen::load(&a.data)?), HeldOut::draw(a.seed)))
    })?;
    if a.trace {
        let untraced = sta_client(&t2, a.seed, 0.0, 5)?;
        trace::obs_on();
        let traced = sta_client(&t2, a.seed, 0.0, 5)?;
        for c in [&untraced, &traced] {
            tally.attempted += c.tally.attempted;
            tally.failed += c.tally.failed;
        }
        let overhead = median(&traced.walls) / median(&untraced.walls) - 1.0;
        m.set("obs.overhead_frac", overhead, "ratio");
        let s7 = Section7::new(frozen::load(&a.data)?, "itr", a.seed)?;
        let cx = trace::Context {
            jobs: nproc(),
            seed: a.seed,
            lib: &s7.frozen.lib,
            points: &points,
            table2: &t2,
            section7: &s7,
        };
        trace::probes(&cx, None, tally, m);
        return Ok(());
    }
    // One client per core, so that the host's other tenants cannot take
    // an idle sibling core from under a single measured thread.
    let clients: Vec<Result<StaClient, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc() as u64)
            .map(|k| {
                let t2 = &t2;
                s.spawn(move || sta_client(t2, a.seed ^ (k << 32), a.seconds, 3))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("STA client panicked"))
            .collect()
    });
    let mut all = StaClient::default();
    for c in clients {
        let c = c?;
        for (k, v) in c.by_pass {
            all.by_pass.entry(k).or_default().extend(v);
        }
        all.passes.extend(c.passes);
        all.walls.extend(c.walls);
        all.raw.extend(c.raw);
        all.clock.absorb(c.clock);
        tally.attempted += c.tally.attempted;
        tally.failed += c.tally.failed;
    }
    let passes = &all.passes;
    let gates: f64 = passes
        .iter()
        .map(|p| t2.circuits[p.circuit].n_gates() as f64)
        .sum();
    let busy: f64 = passes.iter().map(|p| p.secs).sum();
    info.push(("gates_per_s", format!("{}", gates / busy)));
    let big: Vec<f64> = passes
        .iter()
        .filter(|p| t2.circuits[p.circuit].name() == "c7552s" && p.model == 0)
        .map(|p| p.secs * 1e3)
        .collect();
    let t = tail(&big);
    info.push((
        "c7552s_proposed_pass_ms",
        format!(
            "{{\"p50\": {}, \"tail\": {}, \"tail_pct\": {}, \"n\": {}}}",
            median(&big),
            t.value,
            t.pct,
            t.n
        ),
    ));
    let acc = heldout::score(&t2.frozen.lib, &points, tally);
    let job_s = sum_of_medians(&all.by_pass);
    end_to_end(
        m,
        &all.clock,
        &setup,
        job_s,
        (&all.walls, &all.raw),
        &acc,
        info,
    )
}

fn atpg(
    a: &Args,
    start: Instant,
    tally: &mut Tally,
    m: &mut Metrics,
    info: &mut Info,
) -> Result<(), String> {
    let mode = if a.workload == "atpg_itr" {
        "itr"
    } else {
        "noitr"
    };
    let jobs = nproc();
    let ((mut s7, points), setup) = timed_setup(start, || {
        Ok((
            Section7::new(frozen::load(&a.data)?, mode, a.seed)?,
            HeldOut::draw(a.seed),
        ))
    })?;
    let mut first = None;
    let mut clock = Clock::default();
    let mut raw = Vec::new();
    let mut by_circuit: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut sweep = |tally: &mut Tally| {
        let (calibrated, secs, results) = s7.sweep(jobs, &mut clock, tally);
        raw.push(secs);
        for (c, s) in calibrated.iter().enumerate() {
            by_circuit.entry(c).or_default().push(*s);
        }
        first.get_or_insert(results);
        Ok(calibrated.iter().sum())
    };
    if a.trace {
        let untraced = sweep(tally)?;
        trace::obs_on();
        let traced = sweep(tally)?;
        m.set("obs.overhead_frac", traced / untraced - 1.0, "ratio");
        let t2 = Table2::new(frozen::load(&a.data)?);
        let cx = trace::Context {
            jobs,
            seed: a.seed,
            lib: &s7.frozen.lib,
            points: &points,
            table2: &t2,
            section7: &s7,
        };
        trace::probes(&cx, None, tally, m);
        return Ok(());
    }
    let walls = repeat_for(a.seconds, 3, || sweep(tally))?;
    let stats =
        first
            .iter()
            .flatten()
            .map(|r| r.stats)
            .fold(ssdm_atpg::AtpgStats::default(), |acc, s| {
                ssdm_atpg::AtpgStats {
                    detected: acc.detected + s.detected,
                    undetectable: acc.undetectable + s.undetectable,
                    aborted: acc.aborted + s.aborted,
                    dropped: acc.dropped + s.dropped,
                }
            });
    let job_s = sum_of_medians(&by_circuit);
    info.push(("sites", s7.n_sites().to_string()));
    info.push(("faults_per_s", format!("{}", s7.n_sites() as f64 / job_s)));
    info.push((
        "faults_per_wall_s",
        format!("{}", s7.n_sites() as f64 / median(&raw)),
    ));
    info.push(("efficiency_pct", format!("{}", stats.efficiency() * 100.0)));
    info.push(("aborted", stats.aborted.to_string()));
    info.push(("dropped", stats.dropped.to_string()));
    let acc = heldout::score(&s7.frozen.lib, &points, tally);
    end_to_end(m, &clock, &setup, job_s, (&walls, &raw), &acc, info)
}

/// Output of a command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine header: cores, CPU, compiler, commit, run arguments and
/// the run's own `info`.
fn machine_header(a: &Args, info: &Info) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut h = format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"git\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}",
        nproc(),
        json_str(&cpu),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["--no-optional-locks", "describe", "--always", "--dirty"])),
        json_str(&a.workload),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    for (k, v) in info {
        h.push_str(&format!(", \"{k}\": {v}"));
    }
    h.push('}');
    h
}

fn run(a: &Args, start: Instant) -> Result<(Tally, Metrics, Info), String> {
    let (mut tally, mut m, mut info) = (Tally::default(), Metrics::default(), Info::new());
    match a.workload.as_str() {
        "char_cold" => char_cold(a, start, &mut tally, &mut m, &mut info)?,
        "sta_table2" => sta_table2(a, start, &mut tally, &mut m, &mut info)?,
        _ => atpg(a, start, &mut tally, &mut m, &mut info)?,
    }
    if a.trace {
        trace::spans(&mut m);
        ssdm_obs::set_enabled(false);
    }
    Ok((tally, m, info))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::from(2);
        }
    };
    if a.record {
        return match frozen::read_library(&a.data).and_then(|f| workload::record(&f)) {
            Ok(lines) => {
                println!(
                    "# Recorded outputs, from `cargo run --release --manifest-path \
                     perfledger/Cargo.toml -- --record > perfledger/data/expected.txt`."
                );
                for l in lines {
                    println!("{l}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfledger: {e}");
                ExitCode::from(1)
            }
        };
    }
    let (tally, metrics, info) = match run(&a, start) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = tally.failed == 0;
    let mut info = info;
    info.push(("fail_frac", format!("{}", tally.fail_frac())));
    let header = machine_header(&a, &info);
    let result = result_line(correct, tally, &metrics);
    println!("machine: {header}");
    if let Some(dir) = &a.out {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            a.workload,
            a.seed,
            u8::from(a.trace)
        ));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(
                &path,
                format!("{{\"machine\": {header}, \"result\": {result}}}\n"),
            )
        });
        if let Err(e) = written {
            eprintln!("perfledger: {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload atpg_itr --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("atpg_itr", 42, 10.0, true)
        );
        assert_eq!(a.data, PathBuf::from("perfledger/data"));
        assert!(a.out.is_none());
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload char_cold --trace 2",
            "--workload char_cold --seconds -1",
            "--workload char_cold --seed",
            "--workload char_cold --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
