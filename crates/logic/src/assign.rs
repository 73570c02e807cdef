//! The per-net two-frame value store.

use ssdm_core::Edge;
use ssdm_netlist::NetId;

use crate::error::LogicError;
use crate::value::{TransState, V2};

/// Two-frame values for every net of a circuit.
///
/// Values only ever *refine* (x → 0/1); [`Assignments::set`] intersects
/// with the existing value and reports conflicts. Snapshots (plain clones)
/// give ATPG cheap backtracking.
///
/// # Changed-net record
///
/// Besides the values, the store records every net whose value
/// [`Assignments::set`] actually changed since the last
/// [`imply`](crate::imply) — the events implication is seeded from.
/// That seeding is exact under one invariant: *the values were an
/// implication fixpoint before the recorded changes*. The all-`xx` store
/// of [`Assignments::new`] is a fixpoint, and every successful `imply`
/// leaves one (with an empty record), so a store only ever modified
/// through `set` and `imply` always satisfies it.
///
/// An `imply` that fails with a conflict stops mid-propagation and leaves
/// values that are *not* a fixpoint; it marks the store for a full
/// reseed, so a later `imply` on it starts from every net, exactly as if
/// no record existed.
///
/// Equality compares values only: two stores holding the same values are
/// equal whatever their pending record.
#[derive(Debug, Clone)]
pub struct Assignments {
    values: Vec<V2>,
    /// Nets whose value changed since the last implication, in order.
    /// Each net changes at most once per frame, so this never exceeds
    /// `2 × len()` entries.
    pub(crate) changed: Vec<NetId>,
    /// Set by a failed implication: the values are not a fixpoint, so the
    /// next implication must seed every net.
    pub(crate) reseed: bool,
}

impl PartialEq for Assignments {
    fn eq(&self, other: &Assignments) -> bool {
        self.values == other.values
    }
}

impl Eq for Assignments {}

impl Assignments {
    /// All-`xx` store for `n` nets.
    pub fn new(n: usize) -> Assignments {
        Assignments {
            values: vec![V2::XX; n],
            changed: Vec::new(),
            reseed: false,
        }
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the store covers zero nets.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The current value of `net`.
    ///
    /// # Panics
    ///
    /// Panics when `net` is out of range.
    pub fn get(&self, net: NetId) -> V2 {
        self.values[net.index()]
    }

    /// Refines `net` with `value` (frame-wise intersection).
    ///
    /// Returns `true` when the stored value actually changed; such a net
    /// is recorded for the next [`imply`](crate::imply). A conflict leaves
    /// the value (and the record) untouched.
    ///
    /// # Errors
    ///
    /// * [`LogicError::BadNet`] — out-of-range index;
    /// * [`LogicError::Conflict`] — the new value contradicts the old.
    pub fn set(&mut self, net: NetId, value: V2) -> Result<bool, LogicError> {
        let n = self.values.len();
        let slot = self
            .values
            .get_mut(net.index())
            .ok_or(LogicError::BadNet { net, n })?;
        match slot.meet(value) {
            Some(merged) => {
                let changed = merged != *slot;
                if changed {
                    *slot = merged;
                    self.changed.push(net);
                }
                Ok(changed)
            }
            None => Err(LogicError::Conflict { net }),
        }
    }

    /// The transition state `S_tr` of `net`.
    ///
    /// # Panics
    ///
    /// Panics when `net` is out of range.
    pub fn state(&self, net: NetId, edge: Edge) -> TransState {
        self.get(net).state(edge)
    }

    /// Count of fully specified nets — a cheap progress metric for search.
    pub fn n_specified(&self) -> usize {
        self.values
            .iter()
            .filter(|v| v.is_fully_specified())
            .count()
    }

    /// Raw values (read-only).
    pub fn values(&self) -> &[V2] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Tri;

    #[test]
    fn set_refines_and_detects_change() {
        let mut a = Assignments::new(3);
        assert!(a.set(NetId(0), V2::parse("0x").unwrap()).unwrap());
        assert!(!a.set(NetId(0), V2::parse("0x").unwrap()).unwrap());
        assert!(a.set(NetId(0), V2::parse("x1").unwrap()).unwrap());
        assert_eq!(a.get(NetId(0)), V2::parse("01").unwrap());
    }

    #[test]
    fn set_conflicts() {
        let mut a = Assignments::new(1);
        a.set(NetId(0), V2::steady(true)).unwrap();
        assert_eq!(
            a.set(NetId(0), V2::steady(false)),
            Err(LogicError::Conflict { net: NetId(0) })
        );
    }

    #[test]
    fn set_out_of_range() {
        let mut a = Assignments::new(1);
        assert!(matches!(
            a.set(NetId(5), V2::XX),
            Err(LogicError::BadNet {
                net: NetId(5),
                n: 1
            })
        ));
    }

    #[test]
    fn state_and_progress() {
        let mut a = Assignments::new(2);
        assert_eq!(a.state(NetId(0), Edge::Rise), TransState::Maybe);
        a.set(NetId(0), V2::transition(Edge::Rise)).unwrap();
        assert_eq!(a.state(NetId(0), Edge::Rise), TransState::Yes);
        assert_eq!(a.state(NetId(0), Edge::Fall), TransState::No);
        assert_eq!(a.n_specified(), 1);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.values()[1], V2::new(Tri::X, Tri::X));
    }

    #[test]
    fn snapshot_rollback_via_clone() {
        let mut a = Assignments::new(2);
        a.set(NetId(0), V2::steady(true)).unwrap();
        let snap = a.clone();
        a.set(NetId(1), V2::steady(false)).unwrap();
        assert_ne!(a, snap);
        let a = snap;
        assert_eq!(a.get(NetId(1)), V2::XX);
    }

    #[test]
    fn set_records_only_real_changes() {
        let mut a = Assignments::new(3);
        a.set(NetId(2), V2::parse("1x").unwrap()).unwrap();
        a.set(NetId(2), V2::parse("1x").unwrap()).unwrap();
        a.set(NetId(0), V2::parse("x0").unwrap()).unwrap();
        assert!(a.set(NetId(0), V2::parse("x1").unwrap()).is_err());
        assert_eq!(a.changed, vec![NetId(2), NetId(0)]);
    }

    #[test]
    fn equality_ignores_the_changed_record() {
        let mut a = Assignments::new(2);
        a.set(NetId(0), V2::steady(true)).unwrap();
        let mut b = a.clone();
        b.changed.clear();
        b.reseed = true;
        assert_eq!(a, b);
    }
}
