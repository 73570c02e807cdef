//! The resolved-gate arena: the one gate evaluator and the one full pass
//! behind every forward analysis.
//!
//! [`Sta::run`](crate::Sta::run) is a full pass under the all-`May`
//! participation map, [`Sta::run_under`](crate::Sta::run_under) (ITR's
//! from-scratch oracle) is a full pass under a refined map, and
//! [`IncrementalSta`](crate::IncrementalSta) evaluates its dirty cones
//! and runs its full passes through the same [`Arena::eval_gate`].

use ssdm_cells::{CellLibrary, CharacterizedGate};
use ssdm_core::{Capacitance, Edge};
use ssdm_netlist::{Circuit, GateType, NetId};

use crate::engine::StaConfig;
use crate::error::StaError;
use crate::propagate::{emit_corner_events, stage_windows_traced, DelaysUsed, StageProvenance};
use crate::stage::stage_plan;
use crate::window::{LineTiming, Participation, PinWindow};

/// A netlist gate resolved onto its characterized cells once, ahead of
/// time (`stage_plan` + library lookups are string-keyed and would
/// otherwise run on every evaluation).
struct ResolvedGate<'a> {
    first: &'a CharacterizedGate,
    second: Option<&'a CharacterizedGate>,
}

/// The static, per-circuit half of the analysis: resolved cells, per-net
/// loads and topological levels. Window state lives with the caller.
pub(crate) struct Arena<'a> {
    pub(crate) circuit: &'a Circuit,
    config: StaConfig,
    /// The capacitive load on each net: the sum of the fan-out cells'
    /// input capacitances plus the primary-output load.
    pub(crate) loads: Vec<Capacitance>,
    /// `None` for primary inputs.
    gates: Vec<Option<ResolvedGate<'a>>>,
    /// Whether each composite gate is logically inverting (`true` for
    /// primary inputs).
    pub(crate) inverting: Vec<bool>,
    /// Net indices grouped by topological level, for parallel passes.
    levels: Vec<Vec<usize>>,
}

impl<'a> Arena<'a> {
    /// Resolves every gate's stage plan and cells and computes the loads.
    ///
    /// # Errors
    ///
    /// Fails when a gate cannot be mapped onto library cells.
    pub(crate) fn new(
        circuit: &'a Circuit,
        library: &'a CellLibrary,
        config: StaConfig,
    ) -> Result<Arena<'a>, StaError> {
        let n = circuit.n_nets();
        let mut loads = vec![Capacitance::ZERO; n];
        let mut gates = Vec::with_capacity(n);
        let mut inverting = vec![true; n];
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); circuit.depth() + 1];
        for id in circuit.topo() {
            levels[circuit.level(id)].push(id.index());
            let gate = circuit.gate(id);
            if gate.gtype == GateType::Input {
                gates.push(None);
                continue;
            }
            let plan = stage_plan(gate.gtype, gate.fanin.len(), &gate.name)?;
            let first = library.require(&plan.first)?;
            let second = match &plan.second {
                Some(name) => Some(library.require(name)?),
                None => None,
            };
            for &f in &gate.fanin {
                loads[f.index()] = loads[f.index()] + first.input_cap();
            }
            inverting[id.index()] = plan.inverting();
            gates.push(Some(ResolvedGate { first, second }));
        }
        for &po in circuit.outputs() {
            loads[po.index()] = loads[po.index()] + config.po_load;
        }
        Ok(Arena {
            circuit,
            config,
            loads,
            gates,
            inverting,
            levels,
        })
    }

    /// Whether `idx` is a primary input.
    pub(crate) fn is_input(&self, idx: usize) -> bool {
        self.gates[idx].is_none()
    }

    /// Evaluates net `idx` from its fan-ins' windows in `lines` under
    /// `part`: the pins' participation, the edge-swapped participation
    /// of a two-stage gate's internal net, and the output's own veto
    /// (`S = −1` drops the edge). A pure function of the gate, its own
    /// participation and its fan-ins' windows and participations.
    ///
    /// When provenance events are enabled, each evaluation emits one
    /// `sta.corner` event per surviving output-edge bound.
    ///
    /// # Errors
    ///
    /// Propagates cell-query failures.
    pub(crate) fn eval_gate(
        &self,
        idx: usize,
        part: &[[Participation; 2]],
        lines: &[LineTiming],
    ) -> Result<(LineTiming, DelaysUsed), StaError> {
        let own = part[idx];
        let veto = |lt: &mut LineTiming| {
            for e in Edge::BOTH {
                if !own[e.index()].possible() {
                    lt.set_edge(e, None);
                }
            }
        };
        let Some(gate) = &self.gates[idx] else {
            let mut lt = LineTiming::symmetric(self.config.pi_arrival, self.config.pi_ttime);
            veto(&mut lt);
            return Ok((lt, Vec::new()));
        };
        let model = self.config.model;
        let pins: Vec<PinWindow> = self
            .circuit
            .gate(NetId(idx))
            .fanin
            .iter()
            .map(|&f| PinWindow {
                timing: lines[f.index()],
                participation: part[f.index()],
            })
            .collect();
        let (mut lt, used, prov) = match gate.second {
            None => stage_windows_traced(gate.first, model, &pins, self.loads[idx])?,
            Some(cell2) => {
                let (mut mid, used1, prov1) =
                    stage_windows_traced(gate.first, model, &pins, cell2.input_cap())?;
                // The internal net is the complement of the gate output,
                // so its participation is the output's with edges
                // swapped.
                let mut mid_part = [Participation::May; 2];
                for e in Edge::BOTH {
                    mid_part[e.index()] = own[e.inverted().index()];
                    if !mid_part[e.index()].possible() {
                        mid.set_edge(e, None);
                    }
                }
                let pin_mid = PinWindow {
                    timing: mid,
                    participation: mid_part,
                };
                let (out, used2, prov2) =
                    stage_windows_traced(cell2, model, &[pin_mid], self.loads[idx])?;
                // Compose per-pin delay bounds across the two stages: the
                // final edge `e` enters pin `i` as edge `e` (two
                // inversions) and enters the inverter as `e.inverted()`.
                let mut total: DelaysUsed = vec![[None, None]; pins.len()];
                for (pin, stage1) in used1.iter().enumerate() {
                    for e in Edge::BOTH {
                        total[pin][e.index()] =
                            match (stage1[e.index()], used2[0][e.inverted().index()]) {
                                (Some(a), Some(b)) => Some(a.add(b)),
                                _ => None,
                            };
                    }
                }
                (out, total, StageProvenance::compose(&prov1, &prov2))
            }
        };
        veto(&mut lt);
        if ssdm_obs::events_enabled() {
            emit_corner_events(idx as u32, &lt, &prov);
        }
        Ok((lt, used))
    }

    /// Recomputes every net under `part` into `lines` and `used`: inline
    /// in topological order at one thread, and level by level across
    /// `threads` scoped workers above one. Gates on one level never
    /// depend on each other, so both schedules evaluate the same pure
    /// function on the same inputs and give bit-identical results.
    ///
    /// # Errors
    ///
    /// Propagates cell-query failures.
    pub(crate) fn full_pass(
        &self,
        part: &[[Participation; 2]],
        lines: &mut [LineTiming],
        used: &mut [DelaysUsed],
        threads: usize,
    ) -> Result<(), StaError> {
        if threads <= 1 {
            for id in self.circuit.topo() {
                let (lt, du) = self.eval_gate(id.index(), part, lines)?;
                lines[id.index()] = lt;
                used[id.index()] = du;
            }
            return Ok(());
        }
        for (level, ids) in self.levels.iter().enumerate() {
            let chunk = ids.len().div_ceil(threads).max(1);
            let inputs: &[LineTiming] = lines;
            let results: Vec<Result<Vec<_>, StaError>> = std::thread::scope(|scope| {
                let handles: Vec<_> = ids
                    .chunks(chunk)
                    .enumerate()
                    .map(|(w, ids)| {
                        scope.spawn(move || {
                            if ssdm_obs::enabled() {
                                ssdm_obs::set_thread_label(format!("sta.worker.{w}"));
                            }
                            // Heartbeat cells are keyed by name, so the
                            // per-level thread pools of one pass all
                            // accumulate into stable `sta.worker.{w}`
                            // lanes (one relaxed load when the progress
                            // layer is off).
                            let heartbeat =
                                ssdm_obs::progress::heartbeat(|| format!("sta.worker.{w}"));
                            heartbeat.beat(level as u64);
                            let _span = ssdm_obs::span("sta.level");
                            let out = ids
                                .iter()
                                .map(|&i| {
                                    self.eval_gate(i, part, inputs).map(|(lt, du)| (i, lt, du))
                                })
                                .collect();
                            heartbeat.done();
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            });
            for r in results {
                for (i, lt, du) in r? {
                    lines[i] = lt;
                    used[i] = du;
                }
            }
        }
        Ok(())
    }
}
