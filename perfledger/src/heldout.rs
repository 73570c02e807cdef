//! Accuracy of a characterized library against held-out spice transients
//! (the `ablation_grid` method), at points drawn from the seed.
//!
//! The draw is stratified so that a seed moves points only within fixed
//! bins: every cell, input edge and position gets one pin-to-pin point
//! per transition-time bin, and every to-controlling pin pair gets one
//! point per skew bin. That keeps the RMS errors comparable from seed to
//! seed while no seed scores the library on its own grid.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssdm_cells::CellLibrary;
use ssdm_core::{Edge, Time, Transition};
use ssdm_spice::{GateSim, PinState};

use crate::stats::Tally;

/// The standard library's cells with their reference simulators.
pub fn standard_cells() -> Vec<(&'static str, GateSim)> {
    vec![
        ("INV", GateSim::inv()),
        ("NAND2", GateSim::nand(2)),
        ("NAND3", GateSim::nand(3)),
        ("NAND4", GateSim::nand(4)),
        ("NOR2", GateSim::nor(2)),
        ("NOR3", GateSim::nor(3)),
        ("NOR4", GateSim::nor(4)),
    ]
}

/// Transition times are drawn inside both the fast and the full grid.
const T_RANGE: (f64, f64) = (0.15, 1.6);
const T_BINS: usize = 3;
/// Skew bin centres (ns): both knees' sides and the vertex region.
const SKEWS: [f64; 3] = [-0.2, 0.0, 0.2];
/// A point lies within this fraction of a bin width of its bin centre.
const JITTER: f64 = 0.1;

/// One held-out pin-to-pin point.
#[derive(Debug, Clone, Copy)]
pub struct PinPoint {
    pub cell: usize,
    pub pos: usize,
    pub in_edge: Edge,
    pub t: f64,
}

/// One held-out simultaneous to-controlling point.
#[derive(Debug, Clone, Copy)]
pub struct PairPoint {
    pub cell: usize,
    pub i: usize,
    pub j: usize,
    pub t_i: f64,
    pub t_j: f64,
    pub skew: f64,
}

/// The seed's held-out points.
#[derive(Debug, Clone)]
pub struct HeldOut {
    /// Pin-to-pin points.
    pub pins: Vec<PinPoint>,
    /// Pair points.
    pub pairs: Vec<PairPoint>,
}

fn near(rng: &mut StdRng, centre: f64, width: f64) -> f64 {
    centre + JITTER * width * (2.0 * rng.gen::<f64>() - 1.0)
}

impl HeldOut {
    /// Draws the points for `seed`.
    pub fn draw(seed: u64) -> HeldOut {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6865_6c64_6f75_7421);
        let (lo, hi) = T_RANGE;
        let width = (hi - lo) / T_BINS as f64;
        let centres: Vec<f64> = (0..T_BINS).map(|b| lo + (b as f64 + 0.5) * width).collect();
        let (fast, slow) = (centres[0], centres[T_BINS - 1]);
        let mut pins = Vec::new();
        let mut pairs = Vec::new();
        for (cell, (_, sim)) in standard_cells().iter().enumerate() {
            let n = sim.n_inputs();
            for in_edge in Edge::BOTH {
                for pos in 0..n {
                    for &c in &centres {
                        let t = near(&mut rng, c, width);
                        pins.push(PinPoint {
                            cell,
                            pos,
                            in_edge,
                            t,
                        });
                    }
                }
            }
            for i in 0..n {
                for j in i + 1..n {
                    for skew in SKEWS {
                        for (t_i, t_j) in [(fast, slow), (slow, fast)] {
                            pairs.push(PairPoint {
                                cell,
                                i,
                                j,
                                t_i: near(&mut rng, t_i, width),
                                t_j: near(&mut rng, t_j, width),
                                skew: near(&mut rng, skew, 0.2),
                            });
                        }
                    }
                }
            }
        }
        HeldOut { pins, pairs }
    }

    /// Number of spice transients one scoring pass runs.
    pub fn len(&self) -> usize {
        self.pins.len() + self.pairs.len()
    }
}

/// Held-out accuracy a characterized library must reach: a failed or
/// broken characterization lands far above these, while the fast grid
/// (whose errors are several times the full grid's) stays below.
const PIN_RMS_LIMIT_PS: f64 = 40.0;
/// See [`PIN_RMS_LIMIT_PS`].
const PAIR_RMS_LIMIT_PS: f64 = 60.0;

/// Counts the two accuracy limits as operations.
fn check_accuracy(pin_rms_ps: f64, pair_rms_ps: f64, tally: &mut Tally) {
    for (what, rms, limit) in [
        ("pin", pin_rms_ps, PIN_RMS_LIMIT_PS),
        ("pair", pair_rms_ps, PAIR_RMS_LIMIT_PS),
    ] {
        tally.record(rms <= limit);
        if rms > limit {
            eprintln!("held-out {what} RMS {rms:.2} ps exceeds {limit} ps");
        }
    }
}

fn timed<T>(log: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    log.push(t0.elapsed().as_secs_f64() * 1e6);
    r
}

/// One scoring pass: RMS errors and the wall time of every transient.
#[derive(Debug, Clone)]
pub struct Accuracy {
    /// RMS pin-to-pin delay error (ps).
    pub pin_rms_ps: f64,
    /// RMS V-shape delay error (ps).
    pub pair_rms_ps: f64,
    /// Wall time of each `GateSim` call (µs).
    pub transient_us: Vec<f64>,
}

/// Scores `lib` at the held-out points. Each transient and each model
/// lookup is one operation in `tally`, a failed one left out of the RMS;
/// so is each accuracy limit.
pub fn score(lib: &CellLibrary, points: &HeldOut, tally: &mut Tally) -> Accuracy {
    let cells = standard_cells();
    let mut transient_us = Vec::with_capacity(points.len());
    let mut pin_sq = Vec::new();
    for p in &points.pins {
        let (name, sim) = &cells[p.cell];
        let Some(cell) = tally.check(name, lib.require(name)) else {
            continue;
        };
        let load = cell.ref_load();
        let t = Time::from_ns(p.t);
        let truth = timed(&mut transient_us, || {
            sim.pin_to_pin(p.pos, p.in_edge, t, load)
        });
        let model = cell.pin_delay(p.in_edge.inverted(), p.pos, t, load);
        if let (Some(truth), Some(model)) = (
            tally.check("held-out pin transient", truth),
            tally.check("pin_delay", model),
        ) {
            pin_sq.push((model - truth.delay).as_ps().powi(2));
        }
    }
    let mut pair_sq = Vec::new();
    for p in &points.pairs {
        let (name, sim) = &cells[p.cell];
        let Some(cell) = tally.check(name, lib.require(name)) else {
            continue;
        };
        let load = cell.ref_load();
        let in_edge = cell.in_edge_for(cell.ctrl_out_edge());
        let base = Time::from_ns(2.0);
        let (t_i, t_j) = (Time::from_ns(p.t_i), Time::from_ns(p.t_j));
        let mut pins = vec![PinState::Steady(!sim.kind().controlling_value()); sim.n_inputs()];
        pins[p.i] = PinState::Switch(Transition::new(in_edge, base, t_i));
        pins[p.j] = PinState::Switch(Transition::new(in_edge, base + Time::from_ns(p.skew), t_j));
        let truth = timed(&mut transient_us, || sim.measure(&pins, load));
        let model = cell.vshape_delay(p.i, p.j, t_i, t_j, load);
        if let (Some(truth), Some(model)) = (
            tally.check("held-out pair transient", truth),
            tally.check("vshape_delay", model),
        ) {
            let model = model.eval(Time::from_ns(p.skew));
            pair_sq.push((model - truth.delay).as_ps().powi(2));
        }
    }
    let rms = |sq: &[f64]| (sq.iter().sum::<f64>() / sq.len().max(1) as f64).sqrt();
    let acc = Accuracy {
        pin_rms_ps: rms(&pin_sq),
        pair_rms_ps: rms(&pair_sq),
        transient_us,
    };
    check_accuracy(acc.pin_rms_ps, acc.pair_rms_ps, tally);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_seeded_and_stratified() {
        let a = HeldOut::draw(1);
        let b = HeldOut::draw(1);
        let c = HeldOut::draw(2);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), c.len());
        assert!(a.pins.iter().zip(&b.pins).all(|(x, y)| x.t == y.t));
        assert!(a.pins.iter().zip(&c.pins).any(|(x, y)| x.t != y.t));
        // 19 input positions over the seven cells, both edges, every bin.
        assert_eq!(a.pins.len(), 19 * 2 * T_BINS);
        // 20 pin pairs over the multi-input cells, every skew and both
        // transition-time orders.
        assert_eq!(a.pairs.len(), 20 * SKEWS.len() * 2);
        for p in &a.pins {
            assert!(p.t >= T_RANGE.0 && p.t < T_RANGE.1);
        }
    }
}
