//! The Live Table Migration protocol: migration phases, the translation of
//! logical (virtual-table) operations onto the two backend tables, the
//! client-side merge logic for reads, and the migrator's step plan.
//!
//! The protocol migrates a key-value data set from an *old* backend table to
//! a *new* backend table while applications keep reading and writing through
//! the virtual table (VT). Writes are routed per the current migration
//! [`Phase`]; deletes leave *tombstone* rows in the new table while the old
//! table may still hold the row; reads merge both backends, letting new-table
//! rows (and tombstones) shadow old-table rows.
//!
//! Every named bug of Table 2 in the paper is re-introducible through a flag
//! in [`ChainBugs`]; the fixed behaviour is the default.

use std::cmp::Ordering;

use crate::table::{
    ChainTable, ETagMatch, Filter, InMemoryTable, Key, OpResult, Row, StoredRow, TableError,
    TableOperation, Value,
};

/// Property name marking a new-table row as a tombstone for a deleted key.
pub const TOMBSTONE_PROPERTY: &str = "__tombstone";

/// The migration phases, in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Before migration: everything uses the old table.
    #[default]
    UseOld,
    /// Clients have been told the new table exists; writes still go to the
    /// old table, reads prefer the old table.
    PreferOld,
    /// Writes go to the new table; deletes leave tombstones; reads merge both
    /// backends with the new table winning.
    UseNewWithTombstones,
    /// The migrator has copied the data; reads still merge (and hide
    /// tombstones) until cleanup finishes.
    UseNewHideTombstones,
    /// Migration finished: everything uses the new table.
    UseNew,
}

impl Phase {
    /// Returns `true` when reads should consult the old table in this phase.
    ///
    /// Once the migrator has finished copying and announces
    /// [`Phase::UseNewHideTombstones`], readers stop consulting the old
    /// table; only then may tombstones (and leftover old rows) be cleaned up
    /// without racing against readers.
    pub fn reads_old(self) -> bool {
        matches!(
            self,
            Phase::UseOld | Phase::PreferOld | Phase::UseNewWithTombstones
        )
    }

    /// Returns `true` when reads should consult the new table in this phase.
    pub fn reads_new(self) -> bool {
        !matches!(self, Phase::UseOld)
    }

    /// Returns `true` when an old-table row wins over a new-table row for the
    /// same key (only in [`Phase::PreferOld`]).
    pub fn old_wins(self) -> bool {
        matches!(self, Phase::UseOld | Phase::PreferOld)
    }

    /// Returns `true` when client writes are routed to the new table.
    pub fn writes_new(self) -> bool {
        matches!(
            self,
            Phase::UseNewWithTombstones | Phase::UseNewHideTombstones | Phase::UseNew
        )
    }

    /// Returns `true` when deletes must leave tombstones in the new table.
    ///
    /// Tombstones are only needed while readers still consult the old table
    /// ([`Phase::UseNewWithTombstones`]); once reads are new-table-only a
    /// plain delete suffices, and creating further tombstones would let them
    /// leak past the migrator's cleanup pass into [`Phase::UseNew`].
    pub fn deletes_leave_tombstones(self) -> bool {
        matches!(self, Phase::UseNewWithTombstones)
    }
}

/// The eleven re-introducible defects of the MigratingTable case study
/// (Table 2 of the paper). All flags default to `false` (fixed behaviour).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainBugs {
    /// `QueryAtomicFilterShadowing`: atomic queries push the filter down to
    /// both backends before merging, so a non-matching new-table row fails to
    /// shadow its matching old-table version.
    pub query_atomic_filter_shadowing: bool,
    /// `QueryStreamedLock`: streamed queries keep using the migration phase
    /// observed when the stream started instead of re-validating it at every
    /// step.
    pub query_streamed_lock: bool,
    /// `QueryStreamedBackUpNewStream`: streamed queries do not re-read the
    /// new table before emitting a row, so a row copied to the new table and
    /// deleted from the old one mid-stream is missed.
    pub query_streamed_back_up_new_stream: bool,
    /// `DeleteNoLeaveTombstonesEtag`: deletes that must leave tombstones drop
    /// the caller's ETag precondition.
    pub delete_no_leave_tombstones_etag: bool,
    /// `DeletePrimaryKey`: the tombstone is written under a mangled key, so
    /// the real row is never hidden.
    pub delete_primary_key: bool,
    /// `EnsurePartitionSwitchedFromPopulated`: the migrator skips announcing
    /// the tombstone phase when the new table is already populated.
    pub ensure_partition_switched_from_populated: bool,
    /// `TombstoneOutputETag`: deletes report the tombstone row's ETag to the
    /// caller instead of no ETag.
    pub tombstone_output_etag: bool,
    /// `QueryStreamedFilterShadowing`: the streamed-query variant of the
    /// filter-shadowing defect.
    pub query_streamed_filter_shadowing: bool,
    /// `MigrateSkipPreferOld` (notional): the migrator starts copying (and
    /// deleting from the old table) while clients are still in the
    /// prefer-old phase, so their tombstone-free deletes can be resurrected.
    pub migrate_skip_prefer_old: bool,
    /// `MigrateSkipUseNewWithTombstones` (notional): the migrator announces
    /// the hide-tombstones phase before copying, so deletes performed before
    /// the copy reaches them are resurrected by the copy.
    pub migrate_skip_use_new_with_tombstones: bool,
    /// `InsertBehindMigrator` (notional): inserts in the tombstone phase are
    /// routed to the old table, behind the migrator's copy cursor, and are
    /// lost.
    pub insert_behind_migrator: bool,
    /// `MigratorRestartSkipsStep` (*fault-induced*): after a crash+restart,
    /// the recovering migrator assumes its in-flight plan step already
    /// completed and resumes at the *next* step. Invisible without faults —
    /// the plan only advances on confirmed responses — but a crash injected
    /// mid-copy-pass (`Decision::CrashMachine` + `RestartMachine`) makes the
    /// buggy migrator skip the rest of the copy: the phase advances to
    /// new-table-only reads while rows are still stranded in the old table,
    /// and queries diverge from the reference model.
    pub restart_skips_in_flight_step: bool,
}

impl ChainBugs {
    /// No bugs: the fixed system.
    pub fn none() -> Self {
        ChainBugs::default()
    }
}

/// Identifies one of the two backend tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The table the data set is migrating away from.
    Old,
    /// The table the data set is migrating to.
    New,
}

/// Returns `true` when a stored new-table row is a tombstone.
pub fn is_tombstone(row: &Row) -> bool {
    row.properties.get(TOMBSTONE_PROPERTY) == Some(&Value::Bool(true))
}

/// Builds the tombstone row hiding `key`.
pub fn tombstone_row(key: impl Into<Key>) -> Row {
    Row::empty(key).with_property(TOMBSTONE_PROPERTY, Value::Bool(true))
}

/// The authoritative pair of backend tables plus the current migration phase.
///
/// Virtual-table *writes* are executed here atomically (a single logical
/// write maps to one backend batch in the real system as well); *reads* are
/// performed by the clients through the per-backend query primitives so that
/// the systematic scheduler can interleave other work between the backend
/// reads of one logical query.
#[derive(Debug, Clone, Default)]
pub struct MigratingStore {
    /// The old backend table.
    pub old: InMemoryTable,
    /// The new backend table.
    pub new: InMemoryTable,
    phase: Phase,
    bugs: ChainBugs,
}

impl MigratingStore {
    /// Creates an empty store in [`Phase::UseOld`] with the given bug flags.
    ///
    /// The two backends allocate ETags from disjoint ranges, mirroring the
    /// globally unique ETags of the real service, so a version obtained from
    /// one table can never accidentally match a row in the other.
    pub fn new(bugs: ChainBugs) -> Self {
        MigratingStore {
            old: InMemoryTable::with_etag_base(1 << 32),
            new: InMemoryTable::with_etag_base(2 << 32),
            phase: Phase::UseOld,
            bugs,
        }
    }

    /// The current migration phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Sets the migration phase (performed by the migrator).
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// The bug flags this store was created with.
    pub fn bugs(&self) -> ChainBugs {
        self.bugs
    }

    /// Reads the virtual-table row for `key` under the current phase,
    /// resolving shadowing and tombstones.
    pub fn virtual_read(&self, key: &str) -> Option<StoredRow> {
        self.virtual_entry(key).cloned()
    }

    /// [`MigratingStore::virtual_read`], borrowed.
    fn virtual_entry(&self, key: &str) -> Option<&StoredRow> {
        let new_row = if self.phase.reads_new() {
            self.new.get(key)
        } else {
            None
        };
        let old_row = if self.phase.reads_old() {
            self.old.get(key)
        } else {
            None
        };
        match (new_row, old_row) {
            (Some(new), Some(old)) => {
                if self.phase.old_wins() {
                    Some(old)
                } else if is_tombstone(&new.row) {
                    None
                } else {
                    Some(new)
                }
            }
            (Some(new), None) => {
                if is_tombstone(&new.row) {
                    None
                } else {
                    Some(new)
                }
            }
            (None, old) => old,
        }
    }

    fn check_condition(&self, key: &Key, condition: ETagMatch) -> Result<&Row, TableError> {
        match self.virtual_entry(key) {
            None => Err(TableError::NotFound(key.clone())),
            Some(stored) => match condition {
                ETagMatch::Any => Ok(&stored.row),
                ETagMatch::Exact(expected) if expected == stored.etag => Ok(&stored.row),
                ETagMatch::Exact(_) => Err(TableError::ConditionFailed(key.clone())),
            },
        }
    }

    /// Executes one virtual-table write under the current phase.
    ///
    /// # Errors
    ///
    /// Returns the chain-table error the virtual table semantics prescribe
    /// (or, for seeded defects, whatever the buggy translation produces).
    pub fn execute_write(&mut self, op: &TableOperation) -> Result<OpResult, TableError> {
        if !self.phase.writes_new() {
            // UseOld / PreferOld: the old table is authoritative.
            return self.old.execute_one(op);
        }
        if self.phase == Phase::UseNew {
            return self.new.execute_one(op);
        }
        // Tombstone phases: translate onto the new table.
        match op {
            TableOperation::Insert(row) => {
                if self.bugs.insert_behind_migrator {
                    // BUG: the insert goes to the old table; if the migrator's
                    // copy pass has already moved beyond this key the row is
                    // never copied and is lost once reads stop consulting the
                    // old table.
                    return self.old.execute_one(op);
                }
                if self.virtual_entry(&row.key).is_some() {
                    return Err(TableError::AlreadyExists(row.key.clone()));
                }
                self.new
                    .execute_one(&TableOperation::InsertOrReplace(row.clone()))
            }
            TableOperation::Replace(row, condition) => {
                self.check_condition(&row.key, *condition)?;
                self.new
                    .execute_one(&TableOperation::InsertOrReplace(row.clone()))
            }
            TableOperation::Merge(row, condition) => {
                // Copy on write: the merged row is new; the row it is built
                // from stays as it was wherever it is held.
                let base = self.check_condition(&row.key, *condition)?;
                let merged = Row {
                    key: row.key.clone(),
                    properties: base.properties.merged(&row.properties),
                };
                self.new
                    .execute_one(&TableOperation::InsertOrReplace(merged))
            }
            TableOperation::InsertOrReplace(_) => self.new.execute_one(op),
            TableOperation::Delete(key, condition) => {
                if self.bugs.delete_no_leave_tombstones_etag {
                    // BUG: the ETag precondition is dropped; the delete
                    // succeeds even when a concurrent writer bumped the row.
                    if self.virtual_entry(key).is_none() {
                        return Err(TableError::NotFound(key.clone()));
                    }
                } else {
                    self.check_condition(key, *condition)?;
                }
                if !self.phase.deletes_leave_tombstones() {
                    // Hide-tombstones phase: readers only consult the new
                    // table, so the row (or a leftover tombstone) is simply
                    // removed from it.
                    self.new
                        .execute_one(&TableOperation::Delete(key.clone(), ETagMatch::Any))
                        .ok();
                    return Ok(OpResult {
                        key: key.clone(),
                        etag: None,
                    });
                }
                let tombstone_key = if self.bugs.delete_primary_key {
                    // BUG: the tombstone is written under a mangled key and
                    // never hides the real row.
                    Key::from(format!("{key}#deleted"))
                } else {
                    key.clone()
                };
                let tombstone = TableOperation::InsertOrReplace(tombstone_row(tombstone_key));
                let result = self.new.execute_one(&tombstone)?;
                if self.bugs.tombstone_output_etag {
                    // BUG: the caller sees the tombstone row's ETag instead of
                    // the delete-result contract (no ETag).
                    Ok(OpResult {
                        key: key.clone(),
                        etag: result.etag,
                    })
                } else {
                    Ok(OpResult {
                        key: key.clone(),
                        etag: None,
                    })
                }
            }
        }
    }

    /// One backend query primitive used by clients' streamed reads.
    pub fn backend_first_at_or_after(
        &self,
        backend: Backend,
        start: &str,
        filter: &Filter,
    ) -> Option<StoredRow> {
        match backend {
            Backend::Old => self.old.query_first_at_or_after(start, filter),
            Backend::New => self.new.query_first_at_or_after(start, filter),
        }
    }

    /// One backend snapshot query used by clients' atomic reads.
    pub fn backend_query_atomic(&self, backend: Backend, filter: &Filter) -> Vec<StoredRow> {
        match backend {
            Backend::Old => self.old.query_atomic(filter),
            Backend::New => self.new.query_atomic(filter),
        }
    }

    /// Migrator primitive: copies the first old-table row with key `>= cursor`
    /// into the new table (insert-if-absent) and, when `delete_after_copy` is
    /// set, deletes it from the old table. Returns the copied key, or `None`
    /// when the copy pass is complete.
    pub fn migrator_copy_next(&mut self, cursor: &str, delete_after_copy: bool) -> Option<Key> {
        let next = self.old.query_first_at_or_after(cursor, &Filter::All)?;
        let key = next.row.key.clone();
        // Insert-if-absent: an existing new-table row (client write or
        // tombstone) always wins over the stale old copy.
        if self.new.get(&key).is_none() {
            self.new.execute_one(&TableOperation::Insert(next.row)).ok();
        }
        if delete_after_copy {
            self.old
                .execute_one(&TableOperation::Delete(key.clone(), ETagMatch::Any))
                .ok();
        }
        Some(key)
    }

    /// Migrator primitive: removes one tombstone row from the new table.
    /// Returns `false` when no tombstones remain.
    pub fn migrator_clean_tombstone(&mut self) -> bool {
        let Some(tombstone) = self.new.find_from("", is_tombstone) else {
            return false;
        };
        let delete = TableOperation::Delete(tombstone.row.key.clone(), ETagMatch::Any);
        self.new.execute_one(&delete).ok();
        // Removing the tombstone would un-shadow a leftover old-table row, so
        // cleanup deletes that row as well.
        self.old.execute_one(&delete).ok();
        true
    }

    /// Returns every virtual-table row matching `filter` (the ground truth a
    /// fully synchronized reader would see). Used by tests.
    pub fn virtual_snapshot(&self, filter: &Filter) -> Vec<Row> {
        let mut keys: Vec<Key> = self
            .old
            .query_atomic(&Filter::All)
            .into_iter()
            .map(|s| s.row.key)
            .chain(
                self.new
                    .query_atomic(&Filter::All)
                    .into_iter()
                    .map(|s| s.row.key),
            )
            .collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .filter_map(|key| self.virtual_read(&key).map(|s| s.row))
            .filter(|row| filter.matches(row))
            .collect()
    }
}

/// Merges the two backends' snapshot results into virtual-table rows
/// (client-side logic of an atomic query).
///
/// `old_rows` and `new_rows` must be sorted by key with each key at most once
/// (as returned by the backends). Tombstones and shadowed old rows are
/// resolved per `phase`: the lists are merged by value in one pass, and the
/// rows returned are the ones moved out of them.
pub fn merge_atomic(phase: Phase, old_rows: Vec<StoredRow>, new_rows: Vec<StoredRow>) -> Vec<Row> {
    let old_rows = if phase.reads_old() {
        old_rows
    } else {
        Vec::new()
    };
    let new_rows = if phase.reads_new() {
        new_rows
    } else {
        Vec::new()
    };
    let mut merged = Vec::with_capacity(old_rows.len() + new_rows.len());
    let mut old = old_rows.into_iter().peekable();
    let mut new = new_rows.into_iter().peekable();
    loop {
        let order = match (old.peek(), new.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(o), Some(n)) => o.row.key.cmp(&n.row.key),
        };
        let (old_row, new_row) = match order {
            Ordering::Less => (old.next(), None),
            Ordering::Greater => (None, new.next()),
            Ordering::Equal => (old.next(), new.next()),
        };
        let winner = match (old_row, new_row) {
            (Some(old_row), Some(_)) if phase.old_wins() => Some(old_row.row),
            (_, Some(new_row)) => (!is_tombstone(&new_row.row)).then_some(new_row.row),
            (old_row, None) => old_row.map(|stored| stored.row),
        };
        merged.extend(winner);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ChainTableExt, ETag};

    fn row(key: &str, v: i64) -> Row {
        Row::with_int(key, "v", v)
    }

    fn store_in(phase: Phase, bugs: ChainBugs) -> MigratingStore {
        let mut store = MigratingStore::new(bugs);
        store.set_phase(phase);
        store
    }

    #[test]
    fn phase_predicates_follow_the_protocol() {
        assert!(Phase::UseOld.reads_old() && !Phase::UseOld.reads_new());
        assert!(Phase::PreferOld.reads_old() && Phase::PreferOld.reads_new());
        assert!(Phase::PreferOld.old_wins());
        assert!(Phase::UseNewWithTombstones.writes_new());
        assert!(Phase::UseNewWithTombstones.reads_old());
        assert!(Phase::UseNewWithTombstones.deletes_leave_tombstones());
        assert!(!Phase::UseNewHideTombstones.reads_old());
        assert!(!Phase::UseNewHideTombstones.deletes_leave_tombstones());
        assert!(!Phase::UseNew.reads_old());
        assert!(!Phase::UseNew.deletes_leave_tombstones());
    }

    #[test]
    fn writes_in_early_phases_go_to_the_old_table() {
        let mut store = store_in(Phase::PreferOld, ChainBugs::none());
        store
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        assert!(store.old.read("a").is_some());
        assert!(store.new.read("a").is_none());
    }

    #[test]
    fn writes_in_tombstone_phase_go_to_the_new_table() {
        let mut store = store_in(Phase::UseNewWithTombstones, ChainBugs::none());
        store
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        assert!(store.old.read("a").is_none());
        assert!(store.new.read("a").is_some());
    }

    #[test]
    fn delete_in_tombstone_phase_hides_the_old_row() {
        let mut store = store_in(Phase::UseOld, ChainBugs::none());
        store
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        store.set_phase(Phase::UseNewWithTombstones);
        let result = store
            .execute_write(&TableOperation::Delete("a".into(), ETagMatch::Any))
            .unwrap();
        assert_eq!(result.etag, None, "deletes report no etag");
        assert!(store.old.read("a").is_some(), "old copy still present");
        assert!(store.virtual_read("a").is_none(), "but the VT row is gone");
    }

    #[test]
    fn replace_over_old_row_shadows_it_in_new_table() {
        let mut store = store_in(Phase::UseOld, ChainBugs::none());
        store
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        store.set_phase(Phase::UseNewWithTombstones);
        store
            .execute_write(&TableOperation::Replace(row("a", 2), ETagMatch::Any))
            .unwrap();
        assert_eq!(store.virtual_read("a").unwrap().row, row("a", 2));
        assert_eq!(store.old.read("a").unwrap().row, row("a", 1));
    }

    #[test]
    fn conditional_write_checks_the_virtual_etag() {
        let mut store = store_in(Phase::UseOld, ChainBugs::none());
        let first = store
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        store.set_phase(Phase::UseNewWithTombstones);
        // Using the etag from the old-table insert is valid until someone
        // writes the row again.
        store
            .execute_write(&TableOperation::Replace(
                row("a", 2),
                ETagMatch::Exact(first.etag.unwrap()),
            ))
            .unwrap();
        // The stale etag must now be rejected.
        let err = store
            .execute_write(&TableOperation::Delete(
                "a".into(),
                ETagMatch::Exact(first.etag.unwrap()),
            ))
            .unwrap_err();
        assert_eq!(err, TableError::ConditionFailed("a".into()));
    }

    #[test]
    fn buggy_delete_ignores_the_etag_precondition() {
        let mut store = store_in(Phase::UseOld, ChainBugs::none());
        let first = store
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        let mut store2 = store_in(
            Phase::UseNewWithTombstones,
            ChainBugs {
                delete_no_leave_tombstones_etag: true,
                ..ChainBugs::none()
            },
        );
        store2.old = store.old.clone();
        store2
            .execute_write(&TableOperation::Replace(row("a", 2), ETagMatch::Any))
            .unwrap();
        // The stale etag should be rejected, but the buggy translation
        // deletes anyway.
        let result = store2.execute_write(&TableOperation::Delete(
            "a".into(),
            ETagMatch::Exact(first.etag.unwrap()),
        ));
        assert!(result.is_ok());
        assert!(store2.virtual_read("a").is_none());
    }

    #[test]
    fn buggy_delete_primary_key_leaves_the_row_visible() {
        let mut store = store_in(Phase::UseOld, ChainBugs::none());
        store
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        let mut buggy = store_in(
            Phase::UseNewWithTombstones,
            ChainBugs {
                delete_primary_key: true,
                ..ChainBugs::none()
            },
        );
        buggy.old = store.old.clone();
        buggy
            .execute_write(&TableOperation::Delete("a".into(), ETagMatch::Any))
            .unwrap();
        assert!(
            buggy.virtual_read("a").is_some(),
            "the mangled tombstone fails to hide the row"
        );
    }

    #[test]
    fn buggy_tombstone_output_etag_reports_an_etag_for_deletes() {
        let mut buggy = store_in(
            Phase::UseNewWithTombstones,
            ChainBugs {
                tombstone_output_etag: true,
                ..ChainBugs::none()
            },
        );
        buggy
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        let result = buggy
            .execute_write(&TableOperation::Delete("a".into(), ETagMatch::Any))
            .unwrap();
        assert!(result.etag.is_some(), "the defect leaks the tombstone etag");
    }

    #[test]
    fn buggy_insert_behind_migrator_writes_to_the_old_table() {
        let mut buggy = store_in(
            Phase::UseNewWithTombstones,
            ChainBugs {
                insert_behind_migrator: true,
                ..ChainBugs::none()
            },
        );
        buggy
            .execute_write(&TableOperation::Insert(row("z", 1)))
            .unwrap();
        assert!(buggy.old.read("z").is_some());
        assert!(buggy.new.read("z").is_none());
    }

    #[test]
    fn insert_over_tombstone_succeeds() {
        let mut store = store_in(Phase::UseNewWithTombstones, ChainBugs::none());
        store
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        store
            .execute_write(&TableOperation::Delete("a".into(), ETagMatch::Any))
            .unwrap();
        store
            .execute_write(&TableOperation::Insert(row("a", 2)))
            .unwrap();
        assert_eq!(store.virtual_read("a").unwrap().row, row("a", 2));
    }

    #[test]
    fn migrator_copy_preserves_virtual_rows_and_can_delete_old() {
        let mut store = store_in(Phase::UseOld, ChainBugs::none());
        for (k, v) in [("a", 1), ("b", 2)] {
            store
                .execute_write(&TableOperation::Insert(row(k, v)))
                .unwrap();
        }
        store.set_phase(Phase::UseNewWithTombstones);
        let mut cursor = String::new();
        while let Some(copied) = store.migrator_copy_next(&cursor, true) {
            cursor = format!("{copied}\u{0}");
        }
        assert!(store.old.is_empty());
        assert_eq!(store.virtual_read("a").unwrap().row, row("a", 1));
        assert_eq!(store.virtual_read("b").unwrap().row, row("b", 2));
    }

    #[test]
    fn migrator_copy_does_not_resurrect_tombstoned_rows() {
        let mut store = store_in(Phase::UseOld, ChainBugs::none());
        store
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        store.set_phase(Phase::UseNewWithTombstones);
        store
            .execute_write(&TableOperation::Delete("a".into(), ETagMatch::Any))
            .unwrap();
        store.migrator_copy_next("", true);
        assert!(store.virtual_read("a").is_none(), "the tombstone wins");
    }

    #[test]
    fn tombstone_cleanup_removes_all_tombstones() {
        let mut store = store_in(Phase::UseNewWithTombstones, ChainBugs::none());
        store
            .execute_write(&TableOperation::Insert(row("a", 1)))
            .unwrap();
        store
            .execute_write(&TableOperation::Insert(row("b", 2)))
            .unwrap();
        store
            .execute_write(&TableOperation::Delete("a".into(), ETagMatch::Any))
            .unwrap();
        assert!(store.migrator_clean_tombstone());
        assert!(!store.migrator_clean_tombstone());
        assert!(store.virtual_read("a").is_none());
        assert!(store.virtual_read("b").is_some());
    }

    #[test]
    fn merge_atomic_resolves_shadowing_and_tombstones() {
        let old = vec![
            StoredRow {
                row: row("a", 1),
                etag: ETag(1),
            },
            StoredRow {
                row: row("b", 2),
                etag: ETag(2),
            },
        ];
        let new = vec![
            StoredRow {
                row: row("a", 9),
                etag: ETag(3),
            },
            StoredRow {
                row: tombstone_row("b"),
                etag: ETag(4),
            },
            StoredRow {
                row: row("c", 3),
                etag: ETag(5),
            },
        ];
        let merged = merge_atomic(Phase::UseNewWithTombstones, old.clone(), new.clone());
        assert_eq!(merged, vec![row("a", 9), row("c", 3)]);

        let prefer_old = merge_atomic(Phase::PreferOld, old.clone(), new.clone());
        assert_eq!(prefer_old, vec![row("a", 1), row("b", 2), row("c", 3)]);

        let old_only = merge_atomic(Phase::UseOld, old.clone(), new.clone());
        assert_eq!(old_only, vec![row("a", 1), row("b", 2)]);

        let new_only = merge_atomic(Phase::UseNew, old, new);
        assert_eq!(new_only, vec![row("a", 9), row("c", 3)]);
    }

    #[test]
    fn virtual_snapshot_matches_merge_of_full_backends() {
        let mut store = store_in(Phase::UseOld, ChainBugs::none());
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            store
                .execute_write(&TableOperation::Insert(row(k, v)))
                .unwrap();
        }
        store.set_phase(Phase::UseNewWithTombstones);
        store
            .execute_write(&TableOperation::Replace(row("b", 9), ETagMatch::Any))
            .unwrap();
        store
            .execute_write(&TableOperation::Delete("c".into(), ETagMatch::Any))
            .unwrap();
        let snapshot = store.virtual_snapshot(&Filter::All);
        assert_eq!(snapshot, vec![row("a", 1), row("b", 9)]);
    }
}
