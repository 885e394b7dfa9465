//! Incrementally maintained enabled-machine index.
//!
//! Before this module the step loop recomputed the enabled set by scanning
//! every machine slot on every step, which made per-step cost O(total
//! machines created). At mega-scale harnesses (thousands of mostly idle
//! machines, a handful of active ones) that scan dominated the whole run.
//! [`EnabledSet`] instead maintains the set *incrementally*: the runtime
//! notifies it at every enablement edge (enqueue into an empty mailbox,
//! dequeue of the last event, halt, crash, restart, machine creation), so
//! membership queries are O(1) and the per-step cost is a function of the
//! *active* machine count only.
//!
//! # Invariants
//!
//! * `list` holds exactly the currently enabled machine ids, in **ascending
//!   id order** — the [`Scheduler`](crate::scheduler::Scheduler) contract
//!   promises a sorted slice, and replay depends on the order being
//!   identical to the historical from-scratch slot scan.
//! * `member[id]` is `true` iff `id` is in `list`. The dense membership
//!   bitmap is what makes `contains` O(1); the *position* of an id is
//!   recovered by binary search over the sorted list when a mid-list edit
//!   needs it, so mutations never rewrite per-id bookkeeping for the
//!   entries behind the edit point. (An earlier revision kept an id →
//!   position map instead; the scalar fix-up loop after every mid-list
//!   edit made the mass machine-startup drain of a 10⁴-machine harness
//!   quadratic in practice, where the `memmove` the `Vec` edit itself
//!   performs is vectorized and far cheaper.)
//! * All storage is retained across [`EnabledSet::clear`] and a restore's
//!   re-derivation, so pooled runtimes
//!   ([`Runtime::reset`](crate::runtime::Runtime::reset)) and snapshot forks
//!   ([`Runtime::restore_from`](crate::runtime::Runtime::restore_from)) keep
//!   the index without reallocating.
//!
//! Mutations keep the list sorted with a binary search plus `Vec`
//! insert/remove; the common creation-order append and the steady-state
//! "highest active id finishes first" cases hit O(1) fast paths. A snapshot
//! restore, which may flip every dirty machine at once, goes through
//! `EnabledSet::resync`: one pass over the bitmap instead of one mid-list
//! edit per machine.

use crate::machine::MachineId;

/// The set of currently enabled machines, maintained incrementally by the
/// runtime and consumed by schedulers and the fault probe.
///
/// See the [module documentation](self) for the invariants.
#[derive(Debug, Default)]
pub struct EnabledSet {
    /// Enabled machine ids in ascending order.
    list: Vec<MachineId>,
    /// Dense id → membership bitmap. Indexed by raw machine id; grown on
    /// demand and retained across clears.
    member: Vec<bool>,
}

#[cfg(test)]
thread_local! {
    /// List entries written or shifted on this thread: the tail a
    /// `Vec::insert` / `Vec::remove` moves, every push, and every entry a
    /// resync pass writes. The exact gate on what a restore costs the list.
    static ENTRY_WRITES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_writes(entries: usize) {
    ENTRY_WRITES.set(ENTRY_WRITES.get() + entries as u64);
}

/// List entries written or shifted on this thread so far.
#[cfg(test)]
pub(crate) fn entry_writes() -> u64 {
    ENTRY_WRITES.get()
}

impl EnabledSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        EnabledSet::default()
    }

    /// The enabled machines, in ascending id order.
    #[inline]
    pub fn as_slice(&self) -> &[MachineId] {
        &self.list
    }

    /// Number of enabled machines.
    #[inline]
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Returns `true` when no machine is enabled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// O(1) membership test.
    #[inline]
    pub fn contains(&self, id: MachineId) -> bool {
        self.member
            .get(id.raw() as usize)
            .is_some_and(|&present| present)
    }

    /// Inserts `id`, keeping the list sorted. Idempotent; O(1) when `id` is
    /// greater than every present id (the creation-order common case),
    /// otherwise a binary search plus `Vec::insert` memmove.
    pub fn insert(&mut self, id: MachineId) {
        let index = id.raw() as usize;
        if self.member.len() <= index {
            self.member.resize(index + 1, false);
        }
        if self.member[index] {
            return;
        }
        self.member[index] = true;
        match self.list.last() {
            Some(&last) if last > id => {
                let at = self.list.partition_point(|&m| m < id);
                #[cfg(test)]
                count_writes(self.list.len() - at + 1);
                self.list.insert(at, id);
            }
            _ => {
                #[cfg(test)]
                count_writes(1);
                self.list.push(id);
            }
        }
    }

    /// Removes `id` if present; O(1) when `id` is the highest enabled id,
    /// otherwise a binary search plus `Vec::remove` memmove.
    pub fn remove(&mut self, id: MachineId) {
        let index = id.raw() as usize;
        if !self.member.get(index).is_some_and(|&present| present) {
            return;
        }
        self.member[index] = false;
        if self.list.last() == Some(&id) {
            self.list.pop();
            return;
        }
        let at = self.list.partition_point(|&m| m < id);
        debug_assert_eq!(self.list.get(at), Some(&id), "bitmap/list divergence");
        #[cfg(test)]
        count_writes(self.list.len() - at - 1);
        self.list.remove(at);
    }

    /// Sets each `(id, enabled)` membership of `updates` and, when any
    /// changed, re-derives the list from the bitmap in one ascending pass up
    /// to the highest enabled id. O(updates + highest enabled id), where one
    /// `insert` / `remove` per id would shift the list's tail for every id
    /// that moved. The snapshot restores' path: the incremental one re-syncs
    /// its dirty machines, the full one every machine after a
    /// [`clear`](EnabledSet::clear).
    pub(crate) fn resync(&mut self, updates: impl IntoIterator<Item = (MachineId, bool)>) {
        let mut changed = false;
        let mut end = self.list.last().map_or(0, |last| last.raw() as usize + 1);
        for (id, enabled) in updates {
            let index = id.raw() as usize;
            if self.member.len() <= index {
                self.member.resize(index + 1, false);
            }
            if self.member[index] != enabled {
                self.member[index] = enabled;
                changed = true;
                if enabled {
                    end = end.max(index + 1);
                }
            }
        }
        if !changed {
            return;
        }
        self.list.clear();
        let present = self.member[..end].iter().enumerate().filter(|&(_, &on)| on);
        self.list
            .extend(present.map(|(index, _)| MachineId::from_raw(index as u64)));
        #[cfg(test)]
        count_writes(self.list.len());
    }

    /// Empties the set in O(enabled), retaining all storage.
    pub fn clear(&mut self) {
        for id in self.list.drain(..) {
            self.member[id.raw() as usize] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> MachineId {
        MachineId::from_raw(raw)
    }

    fn ids(set: &EnabledSet) -> Vec<u64> {
        set.as_slice().iter().map(|m| m.raw()).collect()
    }

    #[test]
    fn insert_keeps_ascending_order_and_membership() {
        let mut set = EnabledSet::new();
        for raw in [4, 1, 7, 0, 3] {
            set.insert(id(raw));
        }
        assert_eq!(ids(&set), vec![0, 1, 3, 4, 7]);
        for raw in [0, 1, 3, 4, 7] {
            assert!(set.contains(id(raw)));
        }
        assert!(!set.contains(id(2)));
        assert!(!set.contains(id(100)), "beyond the map is absent");
    }

    #[test]
    fn insert_is_idempotent() {
        let mut set = EnabledSet::new();
        set.insert(id(2));
        set.insert(id(2));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn remove_keeps_later_entries_addressable() {
        let mut set = EnabledSet::new();
        for raw in 0..6 {
            set.insert(id(raw));
        }
        set.remove(id(2));
        assert_eq!(ids(&set), vec![0, 1, 3, 4, 5]);
        // Entries after the removal point must still be removable — the
        // sorted order the binary search relies on is intact.
        set.remove(id(4));
        assert_eq!(ids(&set), vec![0, 1, 3, 5]);
        assert!(!set.contains(id(2)));
        assert!(!set.contains(id(4)));
        // Removing an absent or out-of-range id is a no-op.
        set.remove(id(2));
        set.remove(id(99));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn clear_and_rebuild_retain_consistency() {
        let mut set = EnabledSet::new();
        for raw in 0..5 {
            set.insert(id(raw));
        }
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(id(3)));
        set.resync((0..8).map(|raw| (id(raw), [1, 5, 6].contains(&raw))));
        assert_eq!(ids(&set), vec![1, 5, 6]);
        assert!(set.contains(id(5)));
        assert!(!set.contains(id(0)));
        assert!(!set.contains(id(7)));
    }

    #[test]
    fn resync_matches_one_edit_per_id() {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % bound
        };
        for round in 0..400 {
            let (mut bulk, mut edits) = (EnabledSet::new(), EnabledSet::new());
            for raw in 0..64 {
                if next(2) == 0 {
                    bulk.insert(id(raw));
                    edits.insert(id(raw));
                }
            }
            // Distinct ids in shuffled order, some past the bitmap's end.
            let mut touched: Vec<u64> = (0..80).filter(|_| next(3) > 0).collect();
            for at in (1..touched.len()).rev() {
                touched.swap(at, next(at as u64 + 1) as usize);
            }
            let updates: Vec<(MachineId, bool)> =
                touched.iter().map(|&raw| (id(raw), next(2) == 0)).collect();
            for &(machine, enabled) in &updates {
                match enabled {
                    true => edits.insert(machine),
                    false => edits.remove(machine),
                }
            }
            bulk.resync(updates);
            assert_eq!(ids(&bulk), ids(&edits), "round {round}");
            for raw in 0..90 {
                assert_eq!(bulk.contains(id(raw)), edits.contains(id(raw)));
            }
        }
    }

    #[test]
    fn interleaved_ops_match_a_reference_set() {
        // Deterministic pseudo-random interleaving of inserts and removes
        // over a small id universe, checked against a sorted reference.
        let mut set = EnabledSet::new();
        let mut reference: Vec<u64> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let raw = (state >> 33) % 64;
            if (state >> 16) & 1 == 0 {
                set.insert(id(raw));
                if !reference.contains(&raw) {
                    reference.push(raw);
                    reference.sort_unstable();
                }
            } else {
                set.remove(id(raw));
                reference.retain(|&r| r != raw);
            }
            assert_eq!(ids(&set), reference);
        }
    }
}
