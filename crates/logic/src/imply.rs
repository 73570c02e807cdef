//! Forward/backward three-valued implication to a fixpoint, applied to
//! both time frames independently.

use ssdm_core::Edge;
use ssdm_netlist::{Circuit, GateType, NetId};

use crate::assign::Assignments;
use crate::error::LogicError;
use crate::value::{Tri, V2};

/// Runs implication to a fixpoint and returns the number of gate visits
/// it took.
///
/// Forward: each gate's output is refined with the three-valued evaluation
/// of its fan-ins. Backward: when an output value pins its inputs (e.g. a
/// NAND at `0` forces all inputs to `1`; a NAND at `1` with all-but-one
/// inputs at `1` forces the last to `0`), those inputs are refined too.
/// Frames are independent for combinational circuits, so each rule runs on
/// both frames.
///
/// Implication is event-driven. The worklist is seeded only with the nets
/// [`Assignments::set`] changed since the last implication: each such
/// net's consumers (forward) and its driver (backward). A net the loop
/// changes itself is followed up by the same rule. Seeding from the
/// changes alone is exact because the store was a fixpoint before them
/// (see [`Assignments`]), and every rule only refines values and is
/// monotone, so the fixpoint — and whether a conflict exists — does not
/// depend on the order gates are visited in. A store with no recorded
/// change is already a fixpoint and returns `Ok(0)` at once.
///
/// After a conflict the store's values are not a fixpoint; it is marked
/// so the next call seeds every net.
///
/// The returned count is the number of gates taken off the worklist; a
/// run cut short by a conflict reports none.
///
/// # Errors
///
/// Returns [`LogicError::Conflict`] when the assignment is inconsistent
/// with the circuit — the caller's current search branch is infeasible.
pub fn imply(circuit: &Circuit, assignments: &mut Assignments) -> Result<usize, LogicError> {
    if assignments.changed.is_empty() && !assignments.reseed {
        return Ok(0);
    }
    let result = propagate(circuit, assignments);
    assignments.changed.clear();
    assignments.reseed = result.is_err();
    result
}

/// The worklist loop behind [`imply`].
fn propagate(circuit: &Circuit, a: &mut Assignments) -> Result<usize, LogicError> {
    let n = circuit.n_nets();
    // After a conflict every gate is seeded; otherwise none until the
    // changed-net record below adds them.
    let mut queue: Vec<usize> = if a.reseed {
        (0..n).collect()
    } else {
        Vec::new()
    };
    let mut queued = vec![a.reseed; n];
    // `a.changed[..seen]` has been turned into worklist entries.
    let mut seen = 0;
    let mut head = 0;
    let mut visits = 0;
    loop {
        for &net in &a.changed[seen..] {
            // A changed net affects its consumers (forward) and its driver
            // (backward).
            for gi in circuit.fanouts(net).iter().chain([&net]) {
                if !queued[gi.index()] {
                    queued[gi.index()] = true;
                    queue.push(gi.index());
                }
            }
        }
        seen = a.changed.len();
        let Some(&gi) = queue.get(head) else {
            return Ok(visits);
        };
        head += 1;
        queued[gi] = false;
        visits += 1;
        process_gate(circuit, a, NetId(gi))?;
        // Compact the queue occasionally to bound memory on big circuits.
        if head > 4 * n {
            queue.drain(..head);
            head = 0;
        }
    }
}

/// One forward + backward pass on the gate driving `id`. Every net it
/// changes lands in the store's changed-net record.
fn process_gate(circuit: &Circuit, a: &mut Assignments, id: NetId) -> Result<(), LogicError> {
    let gate = circuit.gate(id);
    if gate.gtype == GateType::Input {
        return Ok(());
    }
    for frame in [Frame::First, Frame::Second] {
        // Forward.
        let fanin = gate.fanin.iter().map(|&f| get_frame(a, f, frame));
        set_frame(a, id, frame, eval3(gate.gtype, fanin))?;
        // Backward.
        backward_frame(circuit, a, id, frame)?;
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    First,
    Second,
}

fn get_frame(a: &Assignments, net: NetId, frame: Frame) -> Tri {
    let v = a.get(net);
    match frame {
        Frame::First => v.first,
        Frame::Second => v.second,
    }
}

fn set_frame(a: &mut Assignments, net: NetId, frame: Frame, val: Tri) -> Result<bool, LogicError> {
    let v2 = match frame {
        Frame::First => V2::new(val, Tri::X),
        Frame::Second => V2::new(Tri::X, val),
    };
    a.set(net, v2)
}

/// Three-valued (Kleene) evaluation of a `gtype` gate over its fan-in
/// values, in fan-in order. An `Input` evaluates to `X`.
///
/// # Panics
///
/// Panics when a `Buf` or `Not` gets no input.
pub fn eval3(gtype: GateType, inputs: impl IntoIterator<Item = Tri>) -> Tri {
    let mut vals = inputs.into_iter();
    match gtype {
        GateType::Input => Tri::X,
        GateType::Buf => vals.next().expect("buf has one input"),
        GateType::Not => vals.next().expect("not has one input").not(),
        GateType::And => vals.fold(Tri::One, Tri::and),
        GateType::Nand => vals.fold(Tri::One, Tri::and).not(),
        GateType::Or => vals.fold(Tri::Zero, Tri::or),
        GateType::Nor => vals.fold(Tri::Zero, Tri::or).not(),
    }
}

/// Backward implication on one frame.
fn backward_frame(
    circuit: &Circuit,
    a: &mut Assignments,
    id: NetId,
    frame: Frame,
) -> Result<(), LogicError> {
    let gate = circuit.gate(id);
    let out = get_frame(a, id, frame);
    let Some(out_b) = out.to_bool() else {
        return Ok(());
    };
    match gate.gtype {
        GateType::Input => {}
        GateType::Buf => {
            set_frame(a, gate.fanin[0], frame, out)?;
        }
        GateType::Not => {
            set_frame(a, gate.fanin[0], frame, out.not())?;
        }
        GateType::And | GateType::Nand | GateType::Or | GateType::Nor => {
            let cv = gate
                .gtype
                .controlling_value()
                .expect("multi-input gates have a controlling value");
            // Output value produced when every input is non-controlling.
            let all_noncontrolled_out = !cv ^ gate.gtype.inverting();
            if out_b == all_noncontrolled_out {
                // Only possible when every input is at the non-controlling
                // value.
                for &f in &gate.fanin {
                    set_frame(a, f, frame, Tri::from_bool(!cv))?;
                }
            } else {
                // Some input carries the controlling value; if exactly one
                // candidate remains, it is forced.
                let mut unknown = None;
                let mut n_unknown_or_cv = 0;
                for &f in &gate.fanin {
                    match get_frame(a, f, frame).to_bool() {
                        Some(v) if v == cv => return Ok(()), // already justified
                        Some(_) => {}
                        None => {
                            unknown = Some(f);
                            n_unknown_or_cv += 1;
                        }
                    }
                }
                match (n_unknown_or_cv, unknown) {
                    (0, _) => return Err(LogicError::Conflict { net: id }),
                    (1, Some(f)) => {
                        set_frame(a, f, frame, Tri::from_bool(cv))?;
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

/// Sets a primary-input pair assignment and implies; convenience for tests
/// and the ATPG.
///
/// # Errors
///
/// As for [`imply`].
pub fn assign_and_imply(
    circuit: &Circuit,
    assignments: &mut Assignments,
    net: NetId,
    value: V2,
) -> Result<usize, LogicError> {
    assignments.set(net, value)?;
    imply(circuit, assignments)
}

/// Computes the exact two-frame values from fully specified input vectors —
/// the ground truth implication must agree with.
///
/// # Panics
///
/// Panics if vector lengths differ from the input count.
pub fn simulate_two_frames(circuit: &Circuit, v1: &[bool], v2: &[bool]) -> Vec<V2> {
    let f1 = full_eval(circuit, v1);
    let f2 = full_eval(circuit, v2);
    f1.into_iter()
        .zip(f2)
        .map(|(a, b)| V2::new(Tri::from_bool(a), Tri::from_bool(b)))
        .collect()
}

fn full_eval(circuit: &Circuit, inputs: &[bool]) -> Vec<bool> {
    assert_eq!(inputs.len(), circuit.inputs().len());
    let mut values = vec![false; circuit.n_nets()];
    for (pi, &v) in circuit.inputs().iter().zip(inputs) {
        values[pi.index()] = v;
    }
    for id in circuit.topo() {
        let g = circuit.gate(id);
        if g.gtype == GateType::Input {
            continue;
        }
        let vals: Vec<bool> = g.fanin.iter().map(|f| values[f.index()]).collect();
        values[id.index()] = g.gtype.eval(&vals);
    }
    values
}

/// The edge implied on every net when the two frames differ, else `None` —
/// handy when turning a two-frame simulation into transitions.
pub fn edges_of(values: &[V2]) -> Vec<Option<Edge>> {
    values
        .iter()
        .map(|v| match (v.first.to_bool(), v.second.to_bool()) {
            (Some(false), Some(true)) => Some(Edge::Rise),
            (Some(true), Some(false)) => Some(Edge::Fall),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssdm_netlist::{generate, suite, GeneratorConfig};
    use std::sync::OnceLock;

    /// Test-only reference for [`imply`]: every gate's rules applied in
    /// full sweeps over the circuit until a sweep changes nothing — no
    /// worklist and no seeds, so it cannot share a seeding bug.
    fn imply_by_sweeps(circuit: &Circuit, a: &mut Assignments) -> Result<(), LogicError> {
        loop {
            let before = a.values().to_vec();
            for gi in 0..circuit.n_nets() {
                process_gate(circuit, a, NetId(gi))?;
            }
            if a.values() == before {
                return Ok(());
            }
        }
    }

    fn c880s() -> &'static Circuit {
        static C880S: OnceLock<Circuit> = OnceLock::new();
        C880S.get_or_init(|| suite::synthetic("c880s").expect("suite circuit"))
    }

    /// Every value a search step can assert on a line.
    const STEP_VALUES: [&str; 8] = ["00", "01", "10", "11", "0x", "1x", "x0", "x1"];

    #[test]
    fn forward_implication_c17() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // Set all PIs steady-1 and check outputs match eval.
        for &pi in c.inputs() {
            a.set(pi, V2::steady(true)).unwrap();
        }
        imply(&c, &mut a).unwrap();
        let o22 = c.find("22").unwrap();
        let o23 = c.find("23").unwrap();
        assert_eq!(a.get(o22), V2::steady(true));
        assert_eq!(a.get(o23), V2::steady(false));
    }

    #[test]
    fn backward_forces_nand_inputs() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // Force gate 10 = NAND(1, 3) to 0 in frame 1: both inputs must be 1.
        let g10 = c.find("10").unwrap();
        a.set(g10, V2::new(Tri::Zero, Tri::X)).unwrap();
        imply(&c, &mut a).unwrap();
        let i1 = c.find("1").unwrap();
        let i3 = c.find("3").unwrap();
        assert_eq!(a.get(i1).first, Tri::One);
        assert_eq!(a.get(i3).first, Tri::One);
    }

    #[test]
    fn backward_last_candidate_rule() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // 10 = NAND(1, 3) = 1 with input 1 already at 1 → input 3 must be 0.
        let g10 = c.find("10").unwrap();
        let i1 = c.find("1").unwrap();
        let i3 = c.find("3").unwrap();
        a.set(g10, V2::new(Tri::One, Tri::X)).unwrap();
        a.set(i1, V2::new(Tri::One, Tri::X)).unwrap();
        imply(&c, &mut a).unwrap();
        assert_eq!(a.get(i3).first, Tri::Zero);
    }

    #[test]
    fn conflict_detection() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // All PIs 1 make 22 = 1; also demanding 22 = 0 must conflict.
        for &pi in c.inputs() {
            a.set(pi, V2::new(Tri::One, Tri::X)).unwrap();
        }
        let o22 = c.find("22").unwrap();
        a.set(o22, V2::new(Tri::Zero, Tri::X)).unwrap();
        assert!(matches!(
            imply(&c, &mut a),
            Err(LogicError::Conflict { .. })
        ));
    }

    #[test]
    fn two_frame_independence() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // Rising transition on every PI.
        for &pi in c.inputs() {
            a.set(pi, V2::transition(Edge::Rise)).unwrap();
        }
        imply(&c, &mut a).unwrap();
        let truth = simulate_two_frames(&c, &[false; 5], &[true; 5]);
        for id in c.topo() {
            assert_eq!(a.get(id), truth[id.index()], "net {}", c.gate(id).name);
        }
    }

    #[test]
    fn eval3_matrix() {
        assert_eq!(eval3(GateType::Nand, [Tri::One, Tri::X]), Tri::X);
        assert_eq!(eval3(GateType::Nand, [Tri::Zero, Tri::X]), Tri::One);
        assert_eq!(eval3(GateType::Or, [Tri::X, Tri::One]), Tri::One);
        assert_eq!(eval3(GateType::Not, [Tri::Zero]), Tri::One);
        assert_eq!(eval3(GateType::Buf, [Tri::X]), Tri::X);
        assert_eq!(eval3(GateType::And, [Tri::One, Tri::One]), Tri::One);
        assert_eq!(eval3(GateType::Nor, [Tri::Zero, Tri::Zero]), Tri::One);
        assert_eq!(eval3(GateType::Input, []), Tri::X);
    }

    #[test]
    fn edges_of_maps_values() {
        let vals = vec![
            V2::transition(Edge::Rise),
            V2::transition(Edge::Fall),
            V2::steady(true),
            V2::XX,
        ];
        assert_eq!(
            edges_of(&vals),
            vec![Some(Edge::Rise), Some(Edge::Fall), None, None]
        );
    }

    #[test]
    fn implied_store_is_a_fixpoint_at_no_cost() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        assert_eq!(imply(&c, &mut a), Ok(0), "all-xx is a fixpoint");
        a.set(c.inputs()[0], V2::steady(true)).unwrap();
        assert!(imply(&c, &mut a).unwrap() > 0);
        assert_eq!(imply(&c, &mut a), Ok(0));
    }

    #[test]
    fn conflict_marks_the_store_for_a_full_reseed() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        for &pi in c.inputs() {
            a.set(pi, V2::new(Tri::One, Tri::X)).unwrap();
        }
        a.set(c.find("22").unwrap(), V2::new(Tri::Zero, Tri::X))
            .unwrap();
        assert!(imply(&c, &mut a).is_err());
        // The record was consumed, but the half-propagated store is still
        // inconsistent: a second run must find the conflict again.
        assert!(a.changed.is_empty() && a.reseed);
        assert!(imply(&c, &mut a).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Event-driven implication reaches exactly the fixpoint (or the
        /// conflict) that full sweeps reach from a fresh store holding the
        /// same asserted values, over PODEM-shaped scripts: assert a value
        /// on a primary input or an internal line, imply, and now and then
        /// retract to an earlier snapshot.
        #[test]
        fn event_driven_implication_matches_full_sweeps(
            pick in 0u64..400,
            script in prop::collection::vec(0u32..u32::MAX, 1..40),
        ) {
            let generated;
            let circuit = if pick.is_multiple_of(4) {
                c880s()
            } else {
                let n_gates = 40 + (pick as usize % 120);
                generated = generate(&GeneratorConfig::iscas_like("imp", 10, 5, n_gates, pick));
                &generated
            };
            let n = circuit.n_nets();
            let pis = circuit.inputs();
            let mut a = Assignments::new(n);
            // Values asserted so far, and snapshots with their prefix length.
            let mut given: Vec<(NetId, V2)> = Vec::new();
            let mut stack: Vec<(Assignments, usize)> = Vec::new();
            for r in script {
                let r = r as usize;
                if r.is_multiple_of(5) {
                    if let Some((snap, len)) = stack.pop() {
                        a = snap;
                        given.truncate(len);
                        prop_assert_eq!(imply(circuit, &mut a), Ok(0));
                        continue;
                    }
                }
                let net = if r & 0x8 == 0 {
                    pis[(r >> 4) % pis.len()]
                } else {
                    NetId((r >> 4) % n)
                };
                let value = V2::parse(STEP_VALUES[(r >> 16) % 8]).expect("valid");
                let snap = a.clone();
                if a.set(net, value).is_err() {
                    continue; // line already pinned the other way
                }
                given.push((net, value));
                let got = imply(circuit, &mut a);
                let mut reference = Assignments::new(n);
                for &(net, value) in &given {
                    reference.set(net, value).expect("asserted values are consistent");
                }
                let want = imply_by_sweeps(circuit, &mut reference);
                prop_assert_eq!(got.is_ok(), want.is_ok(), "after {:?}", given);
                if got.is_ok() {
                    let diff = (0..n).find(|&i| a.values()[i] != reference.values()[i]);
                    prop_assert!(diff.is_none(), "net {:?}: event-driven {} vs sweeps {}",
                        diff, a.values()[diff.unwrap_or(0)], reference.values()[diff.unwrap_or(0)]);
                    prop_assert_eq!(imply(circuit, &mut a), Ok(0));
                    stack.push((snap, given.len() - 1));
                } else {
                    prop_assert!(imply(circuit, &mut a).is_err(), "reseed lost the conflict");
                    a = snap;
                    given.pop();
                }
            }
        }

        /// Soundness: implication from a subset of the true values never
        /// conflicts and never contradicts the truth.
        #[test]
        fn implication_is_sound(bits1 in 0u8..32, bits2 in 0u8..32, mask in 0u16..2048) {
            let c = suite::c17();
            let v1: Vec<bool> = (0..5).map(|i| bits1 & (1 << i) != 0).collect();
            let v2: Vec<bool> = (0..5).map(|i| bits2 & (1 << i) != 0).collect();
            let truth = simulate_two_frames(&c, &v1, &v2);
            let mut a = Assignments::new(c.n_nets());
            for id in c.topo() {
                if mask & (1 << (id.index() % 11)) != 0 {
                    a.set(id, truth[id.index()]).unwrap();
                }
            }
            imply(&c, &mut a).expect("consistent seed values cannot conflict");
            for id in c.topo() {
                let implied = a.get(id);
                let t = truth[id.index()];
                prop_assert!(implied.first.refines_to(t.first),
                    "net {}: implied {} vs truth {}", c.gate(id).name, implied, t);
                prop_assert!(implied.second.refines_to(t.second));
            }
        }

        /// Fully specified inputs imply exactly the simulation values.
        #[test]
        fn implication_is_complete_on_full_vectors(bits1 in 0u8..32, bits2 in 0u8..32) {
            let c = suite::c17();
            let v1: Vec<bool> = (0..5).map(|i| bits1 & (1 << i) != 0).collect();
            let v2: Vec<bool> = (0..5).map(|i| bits2 & (1 << i) != 0).collect();
            let truth = simulate_two_frames(&c, &v1, &v2);
            let mut a = Assignments::new(c.n_nets());
            for (idx, &pi) in c.inputs().iter().enumerate() {
                a.set(pi, V2::new(Tri::from_bool(v1[idx]), Tri::from_bool(v2[idx]))).unwrap();
            }
            imply(&c, &mut a).unwrap();
            for id in c.topo() {
                prop_assert_eq!(a.get(id), truth[id.index()]);
            }
        }
    }
}
