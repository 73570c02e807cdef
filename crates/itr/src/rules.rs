//! Table 1 of the paper: implied transition-state settings for exciting
//! extreme values of an optimization target.
//!
//! The published table is derived from five rules (Section 5.2); the full
//! table in the paper's scan is not machine-readable, so this module
//! *reconstructs* it from those rules, which are quoted verbatim in the
//! source text. The reconstruction is validated against the window
//! propagation: the settings produced here are exactly the participation
//! corners [`ssdm_sta::stage_windows_traced`] explores.

use ssdm_core::Edge;

/// An optimization target `(OPT, tr, extreme)` on a gate output
/// (Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptTarget {
    /// Arrival time (`A`) when true, transition time (`T`) otherwise.
    pub arrival: bool,
    /// Output transition direction.
    pub out_edge: Edge,
    /// Smallest (`true`) or largest extreme.
    pub smallest: bool,
}

impl OptTarget {
    /// All eight targets, in the paper's column order
    /// (`A_F,S A_F,L A_R,S A_R,L T_F,S T_F,L T_R,S T_R,L`).
    pub fn all() -> [OptTarget; 8] {
        let mut out = Vec::with_capacity(8);
        for arrival in [true, false] {
            for out_edge in [Edge::Fall, Edge::Rise] {
                for smallest in [true, false] {
                    out.push(OptTarget {
                        arrival,
                        out_edge,
                        smallest,
                    });
                }
            }
        }
        out.try_into().expect("exactly eight")
    }

    /// Display label, e.g. `"A_R,S"`.
    pub fn label(&self) -> String {
        format!(
            "{}_{},{}",
            if self.arrival { "A" } else { "T" },
            self.out_edge,
            if self.smallest { "S" } else { "L" }
        )
    }
}

/// A zero-value setting `(S_X, S_Y)` to try, in the paper's `{1, 0, −1}`
/// encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Setting {
    /// Implied state for input X.
    pub s_x: i8,
    /// Implied state for input Y.
    pub s_y: i8,
}

/// Computes the settings to try for a two-input gate, per the five rules.
///
/// `s_x`, `s_y` are the current transition states of the inputs **for the
/// transition direction that produces `target.out_edge`**;
/// `to_controlling` says whether that input transition direction is toward
/// the gate's controlling value (for a NAND, falling inputs → rising
/// output is the to-controlling case). Zero-valued states are resolved;
/// non-zero states are never changed. An empty result means the target
/// cannot be excited (no input may transition).
pub fn implied_settings(target: OptTarget, to_controlling: bool, s_x: i8, s_y: i8) -> Vec<Setting> {
    assert!(
        (-1..=1).contains(&s_x) && (-1..=1).contains(&s_y),
        "states are in {{-1,0,1}}"
    );
    // Does the extreme value prefer simultaneous switching? Simultaneous
    // to-controlling transitions *speed up* the output (smaller delay,
    // sharper edge); simultaneous to-non-controlling transitions make it
    // *later* (the last one releases the output).
    let simultaneous_preferred = if to_controlling {
        target.smallest
    } else {
        !target.smallest
    };
    let candidates: Vec<Setting> = if simultaneous_preferred {
        // Rules 1, 2, 4: switch everything that can switch.
        vec![Setting {
            s_x: if s_x == 0 { 1 } else { s_x },
            s_y: if s_y == 0 { 1 } else { s_y },
        }]
    } else {
        // Rules 3, 5: exactly one switching input is desired, but at least
        // one transition is required; try each single-switch option that
        // the current states allow.
        let mut v = Vec::new();
        for (x, y) in [(1i8, -1i8), (-1, 1)] {
            let ok_x = s_x == 0 || s_x == x;
            let ok_y = s_y == 0 || s_y == y;
            if ok_x && ok_y {
                v.push(Setting { s_x: x, s_y: y });
            }
        }
        // If both inputs are pinned to 1 (both definitely switch), the
        // single-switch ideal is unreachable; the only corner is both.
        if v.is_empty() && s_x != -1 && s_y != -1 {
            v.push(Setting {
                s_x: if s_x == 0 { 1 } else { s_x },
                s_y: if s_y == 0 { 1 } else { s_y },
            });
        }
        v
    };
    // Drop any candidate with no transition at all: it cannot excite an
    // output transition.
    candidates
        .into_iter()
        .filter(|s| s.s_x == 1 || s.s_y == 1)
        .collect()
}

/// One row of the reconstructed Table 1: the original `(S_X, S_Y)` pair
/// (with `S_X = 0`, as in the paper) and the settings for all eight
/// targets on a NAND (controlling response = rising output).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Original input states.
    pub original: (i8, i8),
    /// Settings per target, in [`OptTarget::all`] order.
    pub settings: Vec<Vec<Setting>>,
}

/// Reconstructs Table 1 for a NAND gate: rows for `S_X = 0` with
/// `S_Y ∈ {−1, 0, 1}` (other rows are symmetric or fully specified).
pub fn table1() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for s_y in [-1i8, 0, 1] {
        let mut settings = Vec::new();
        for target in OptTarget::all() {
            // NAND: output rise comes from falling (to-controlling)
            // inputs; output fall from rising (to-non-controlling) ones.
            let to_controlling = target.out_edge == Edge::Rise;
            settings.push(implied_settings(target, to_controlling, 0, s_y));
        }
        rows.push(Table1Row {
            original: (0, s_y),
            settings,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(arrival: bool, out_edge: Edge, smallest: bool) -> OptTarget {
        OptTarget {
            arrival,
            out_edge,
            smallest,
        }
    }

    #[test]
    fn rule1_absent_companion_forces_the_other() {
        // S_Y = −1, min arrival, to-controlling: X must switch (rule 1).
        let s = implied_settings(t(true, Edge::Rise, true), true, 0, -1);
        assert_eq!(s, vec![Setting { s_x: 1, s_y: -1 }]);
    }

    #[test]
    fn rule2_and_4_prefer_simultaneous_for_min_to_controlling() {
        // Rule 2: S_Y = 1 → X joins in.
        let s = implied_settings(t(true, Edge::Rise, true), true, 0, 1);
        assert_eq!(s, vec![Setting { s_x: 1, s_y: 1 }]);
        // Rule 4: S_Y = 0 → both set to 1.
        let s = implied_settings(t(true, Edge::Rise, true), true, 0, 0);
        assert_eq!(s, vec![Setting { s_x: 1, s_y: 1 }]);
    }

    #[test]
    fn rule3_avoids_simultaneous_for_min_to_non_controlling() {
        // S_Y = 1, min arrival, to-non-controlling: X should not add a
        // transition (rule 3).
        let s = implied_settings(t(true, Edge::Fall, true), false, 0, 1);
        assert_eq!(s, vec![Setting { s_x: -1, s_y: 1 }]);
    }

    #[test]
    fn rule5_tries_both_single_switch_options() {
        let s = implied_settings(t(true, Edge::Fall, true), false, 0, 0);
        assert_eq!(
            s,
            vec![Setting { s_x: 1, s_y: -1 }, Setting { s_x: -1, s_y: 1 }]
        );
    }

    #[test]
    fn max_arrival_to_controlling_avoids_simultaneous() {
        // For A_R,L on a NAND, simultaneous switching would *reduce* the
        // delay, so the worst case is a single switch.
        let s = implied_settings(t(true, Edge::Rise, false), true, 0, 0);
        assert_eq!(
            s,
            vec![Setting { s_x: 1, s_y: -1 }, Setting { s_x: -1, s_y: 1 }]
        );
        // With Y pinned switching, X stays out.
        let s = implied_settings(t(true, Edge::Rise, false), true, 0, 1);
        assert_eq!(s, vec![Setting { s_x: -1, s_y: 1 }]);
    }

    #[test]
    fn max_arrival_to_non_controlling_wants_everything_switching() {
        let s = implied_settings(t(true, Edge::Fall, false), false, 0, 0);
        assert_eq!(s, vec![Setting { s_x: 1, s_y: 1 }]);
    }

    #[test]
    fn pinned_both_switching_still_yields_a_corner() {
        // Both Musts but single-switch preferred: the only corner is both.
        let s = implied_settings(t(true, Edge::Rise, false), true, 1, 1);
        assert_eq!(s, vec![Setting { s_x: 1, s_y: 1 }]);
    }

    #[test]
    fn unexcitable_targets_are_empty() {
        // Neither input may switch.
        let s = implied_settings(t(true, Edge::Rise, true), true, -1, -1);
        assert!(s.is_empty());
    }

    #[test]
    fn ttime_targets_follow_the_same_preference() {
        // Min transition time, to-controlling: simultaneous sharpens.
        let s = implied_settings(t(false, Edge::Rise, true), true, 0, 0);
        assert_eq!(s, vec![Setting { s_x: 1, s_y: 1 }]);
        // Max transition time, to-controlling: single switch.
        let s = implied_settings(t(false, Edge::Rise, false), true, 0, -1);
        assert_eq!(s, vec![Setting { s_x: 1, s_y: -1 }]);
    }

    #[test]
    fn table1_shape() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.settings.len(), 8);
            assert_eq!(row.original.0, 0);
            // Every target with S_Y ≠ −1 must be excitable.
            if row.original.1 != -1 {
                assert!(row.settings.iter().all(|s| !s.is_empty()));
            }
        }
        // Labels in the paper's order.
        let labels: Vec<String> = OptTarget::all().iter().map(OptTarget::label).collect();
        assert_eq!(labels[0], "A_F,S");
        assert_eq!(labels[3], "A_R,L");
        assert_eq!(labels[7], "T_R,L");
    }

    #[test]
    #[should_panic(expected = "states")]
    fn rejects_out_of_range_states() {
        let _ = implied_settings(t(true, Edge::Rise, true), true, 3, 0);
    }
}
