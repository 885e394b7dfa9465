//! The specification side of the MigratingTable harness: a reference model of
//! the virtual table plus the comparison rules used by the safety monitor.
//!
//! The paper's harness mirrors every logical operation onto a reference table
//! at its linearization point and compares outputs. Here:
//!
//! * **writes** are compared exactly: the model computes the outcome the
//!   chain-table specification prescribes (success and whether an ETag is
//!   returned, or which error) and flags any divergence; successful writes
//!   are then applied to the model using the system's returned ETag, so later
//!   conditional writes can be judged;
//! * **queries** are checked with a *stable-rows* rule: any key whose
//!   virtual-table value did not change between the query's start and its
//!   completion must be reported exactly once with exactly the model's value
//!   (and keys that are stably absent must not be reported at all). Keys
//!   written concurrently with the query are exempt. This is weaker than full
//!   linearizability but catches every missed-row, shadowing, tombstone and
//!   resurrection defect seeded in this case study (see DESIGN.md).
//!
//! Stability is decided by write sequence numbers. The model numbers every
//! write it applies and remembers, per key, the number of the key's last
//! write; a query's [`VersionSnapshot`] is the number of writes applied when
//! it started. A key is stable over the query iff its last write is at or
//! before that snapshot, so starting a query copies one counter, not a map.
//!
//! The model records the rows it is handed, shared: a recorded write costs
//! reference-count increments, and a `Merge` builds the merged bag anew.

use std::collections::BTreeMap;

use crate::table::{ETag, ETagMatch, Filter, Key, OpResult, Row, TableError, TableOperation};

/// The outcome the specification prescribes for a write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpectedOutcome {
    /// The write must succeed; `returns_etag` is `false` for deletes.
    Success {
        /// Whether the result must carry a new ETag.
        returns_etag: bool,
    },
    /// The write must fail with [`TableError::AlreadyExists`].
    AlreadyExists,
    /// The write must fail with [`TableError::NotFound`].
    NotFound,
    /// The write must fail with [`TableError::ConditionFailed`].
    ConditionFailed,
}

/// The model's write counter when a query started: a key is stable over the
/// query iff the model's last write to it is numbered at or below this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionSnapshot(u64);

#[derive(Debug, Clone, PartialEq, Eq)]
struct ModelRow {
    row: Row,
    etag: Option<ETag>,
}

/// The reference model of the virtual table.
#[derive(Debug, Clone, Default)]
pub struct SpecModel {
    rows: BTreeMap<Key, ModelRow>,
    /// Writes applied so far; the `n`th applied write is numbered `n`.
    writes: u64,
    /// Per key, the number of its last applied write (absent: never written).
    last_write: BTreeMap<Key, u64>,
}

impl SpecModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        SpecModel::default()
    }

    /// Seeds the model with a pre-existing row (initial data loaded into the
    /// backends before the test starts).
    pub fn seed(&mut self, row: Row, etag: ETag) {
        self.rows.insert(
            row.key.clone(),
            ModelRow {
                row,
                etag: Some(etag),
            },
        );
    }

    /// Number of rows currently present in the model.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the model holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The model's current value for `key`.
    pub fn row(&self, key: &str) -> Option<&Row> {
        self.rows.get(key).map(|m| &m.row)
    }

    /// The write counter, taken when a query starts.
    pub fn version_snapshot(&self) -> VersionSnapshot {
        VersionSnapshot(self.writes)
    }

    /// Whether `key` has not been written since `started` was taken.
    fn stable_since(&self, started: VersionSnapshot, key: &str) -> bool {
        self.last_write.get(key).is_none_or(|&n| n <= started.0)
    }

    fn bump(&mut self, key: &Key) {
        self.writes += 1;
        self.last_write.insert(key.clone(), self.writes);
    }

    fn check_condition(&self, key: &Key, condition: ETagMatch) -> Option<ExpectedOutcome> {
        match self.rows.get(key) {
            None => Some(ExpectedOutcome::NotFound),
            Some(stored) => match condition {
                ETagMatch::Any => None,
                ETagMatch::Exact(expected) if Some(expected) == stored.etag => None,
                ETagMatch::Exact(_) => Some(ExpectedOutcome::ConditionFailed),
            },
        }
    }

    /// Computes the outcome the specification prescribes for `op`.
    pub fn expected_outcome(&self, op: &TableOperation) -> ExpectedOutcome {
        match op {
            TableOperation::Insert(row) => {
                if self.rows.contains_key(&row.key) {
                    ExpectedOutcome::AlreadyExists
                } else {
                    ExpectedOutcome::Success { returns_etag: true }
                }
            }
            TableOperation::Replace(row, condition) | TableOperation::Merge(row, condition) => self
                .check_condition(&row.key, *condition)
                .unwrap_or(ExpectedOutcome::Success { returns_etag: true }),
            TableOperation::InsertOrReplace(_) => ExpectedOutcome::Success { returns_etag: true },
            TableOperation::Delete(key, condition) => self
                .check_condition(key, *condition)
                .unwrap_or(ExpectedOutcome::Success {
                    returns_etag: false,
                }),
        }
    }

    fn apply_success(&mut self, op: &TableOperation, result: &OpResult) {
        match op {
            TableOperation::Insert(row)
            | TableOperation::Replace(row, _)
            | TableOperation::InsertOrReplace(row) => {
                let stored = ModelRow {
                    row: row.clone(),
                    etag: result.etag,
                };
                self.rows.insert(row.key.clone(), stored);
                self.bump(&row.key);
            }
            TableOperation::Merge(row, _) => {
                // Copy on write: a row recorded earlier and held elsewhere
                // keeps its bag.
                let properties = match self.rows.get(&row.key) {
                    Some(model) => model.row.properties.merged(&row.properties),
                    None => row.properties.clone(),
                };
                let merged = Row {
                    key: row.key.clone(),
                    properties,
                };
                self.rows.insert(
                    row.key.clone(),
                    ModelRow {
                        row: merged,
                        etag: result.etag,
                    },
                );
                self.bump(&row.key);
            }
            TableOperation::Delete(key, _) => {
                self.rows.remove(key);
                self.bump(key);
            }
        }
    }

    /// Records the actual outcome of a write at its linearization point.
    ///
    /// Returns a violation message when the actual outcome diverges from the
    /// specification; otherwise updates the model and returns `None`.
    pub fn record_write(
        &mut self,
        op: &TableOperation,
        actual: &Result<OpResult, TableError>,
    ) -> Option<String> {
        let expected = self.expected_outcome(op);
        match (&expected, actual) {
            (ExpectedOutcome::Success { returns_etag }, Ok(result)) => {
                if result.etag.is_some() != *returns_etag {
                    return Some(format!(
                        "write {op:?} returned etag presence {:?}, specification requires {}",
                        result.etag.is_some(),
                        returns_etag
                    ));
                }
                self.apply_success(op, result);
                None
            }
            (ExpectedOutcome::Success { .. }, Err(TableError::ConditionFailed(_))) => {
                // Allowed: migration may refresh a row's stored version (the
                // copy re-writes the row in the new table), so an optimistic
                // concurrency check against an older ETag may spuriously fail.
                // Spurious conflicts are safe — the client retries — whereas
                // the dangerous direction (a write that must fail but
                // succeeds) is still flagged below.
                None
            }
            (ExpectedOutcome::Success { .. }, Err(err)) => Some(format!(
                "write {op:?} must succeed per the specification but failed with {err}"
            )),
            (ExpectedOutcome::AlreadyExists, Err(TableError::AlreadyExists(_)))
            | (ExpectedOutcome::NotFound, Err(TableError::NotFound(_)))
            | (ExpectedOutcome::ConditionFailed, Err(TableError::ConditionFailed(_))) => None,
            (expected, actual) => Some(format!(
                "write {op:?} diverged: specification expects {expected:?}, system returned {actual:?}"
            )),
        }
    }

    /// Checks a completed query against the stable-rows rule.
    ///
    /// `started` is the version snapshot taken when the query began and
    /// `results` the rows the query returned (virtual-table rows, already
    /// merged by the client).
    pub fn check_query(
        &self,
        started: &VersionSnapshot,
        filter: &Filter,
        results: &[Row],
    ) -> Option<String> {
        let stable = |key: &str| self.stable_since(*started, key);

        // 1. Every returned row with a stable key must match the model.
        for returned in results {
            if !stable(&returned.key) {
                continue;
            }
            match self.rows.get(&returned.key) {
                None => {
                    return Some(format!(
                        "query returned row {:?} although the key is stably deleted",
                        returned.key
                    ));
                }
                Some(model) => {
                    if model.row.properties != returned.properties {
                        return Some(format!(
                            "query returned stale contents for stable key {:?}: got {:?}, expected {:?}",
                            returned.key, returned.properties, model.row.properties
                        ));
                    }
                    if !filter.matches(&model.row) {
                        return Some(format!(
                            "query returned key {:?} although its stable value does not match the filter",
                            returned.key
                        ));
                    }
                }
            }
        }

        // 2. Every stable, filter-matching model row must be returned.
        for (key, model) in &self.rows {
            if stable(key) && filter.matches(&model.row) {
                let found = results.iter().filter(|r| r.key == *key).count();
                if found == 0 {
                    return Some(format!(
                        "query missed stable row {key:?} that matches the filter"
                    ));
                }
                if found > 1 {
                    return Some(format!("query returned stable row {key:?} {found} times"));
                }
            }
        }
        None
    }
}

/// The per-key version map the write sequence numbers replaced: every
/// applied write bumps its key's version, a query start clones the whole map,
/// and a key is stable iff its version is unchanged. Kept only so the
/// differential test below can require identical verdicts.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug, Clone, Default)]
    pub(super) struct VersionMap(BTreeMap<String, u64>);

    impl VersionMap {
        fn version(&self, key: &str) -> u64 {
            self.0.get(key).copied().unwrap_or(0)
        }

        pub(super) fn bump(&mut self, key: &str) {
            *self.0.entry(key.to_string()).or_insert(0) += 1;
        }

        /// `SpecModel::check_query` as it read with the version-map rule.
        pub(super) fn check_query(
            &self,
            model: &SpecModel,
            started: &VersionMap,
            filter: &Filter,
            results: &[Row],
        ) -> Option<String> {
            let stable = |key: &str| started.version(key) == self.version(key);

            for returned in results {
                if !stable(&returned.key) {
                    continue;
                }
                match model.rows.get(&returned.key) {
                    None => {
                        return Some(format!(
                            "query returned row {:?} although the key is stably deleted",
                            returned.key
                        ));
                    }
                    Some(stored) => {
                        if stored.row.properties != returned.properties {
                            return Some(format!(
                                "query returned stale contents for stable key {:?}: got {:?}, expected {:?}",
                                returned.key, returned.properties, stored.row.properties
                            ));
                        }
                        if !filter.matches(&stored.row) {
                            return Some(format!(
                                "query returned key {:?} although its stable value does not match the filter",
                                returned.key
                            ));
                        }
                    }
                }
            }

            for (key, stored) in &model.rows {
                if stable(key) && filter.matches(&stored.row) {
                    let found = results.iter().filter(|r| r.key == *key).count();
                    if found == 0 {
                        return Some(format!(
                            "query missed stable row {key:?} that matches the filter"
                        ));
                    }
                    if found > 1 {
                        return Some(format!("query returned stable row {key:?} {found} times"));
                    }
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use psharp::rng::SplitMix64;

    use super::*;
    use crate::table::Value;

    fn row(key: &str, v: i64) -> Row {
        Row::with_int(key, "v", v)
    }

    fn ok(key: &str, etag: Option<u64>) -> Result<OpResult, TableError> {
        Ok(OpResult {
            key: key.into(),
            etag: etag.map(ETag),
        })
    }

    #[test]
    fn successful_insert_updates_the_model() {
        let mut model = SpecModel::new();
        let op = TableOperation::Insert(row("a", 1));
        assert!(model.record_write(&op, &ok("a", Some(1))).is_none());
        assert_eq!(model.row("a"), Some(&row("a", 1)));
        assert_eq!(model.len(), 1);
    }

    #[test]
    fn insert_that_should_conflict_is_flagged() {
        let mut model = SpecModel::new();
        model.record_write(&TableOperation::Insert(row("a", 1)), &ok("a", Some(1)));
        let violation = model.record_write(&TableOperation::Insert(row("a", 2)), &ok("a", Some(2)));
        assert!(violation.is_some());
    }

    #[test]
    fn delete_must_not_return_an_etag() {
        let mut model = SpecModel::new();
        model.record_write(&TableOperation::Insert(row("a", 1)), &ok("a", Some(1)));
        let violation = model.record_write(
            &TableOperation::Delete("a".into(), ETagMatch::Any),
            &ok("a", Some(7)),
        );
        assert!(violation.unwrap().contains("etag"));
    }

    #[test]
    fn conditional_write_is_judged_against_the_recorded_etag() {
        let mut model = SpecModel::new();
        model.record_write(&TableOperation::Insert(row("a", 1)), &ok("a", Some(5)));
        // Correct rejection of a stale etag matches the specification.
        let stale = TableOperation::Replace(row("a", 2), ETagMatch::Exact(ETag(4)));
        assert!(model
            .record_write(&stale, &Err(TableError::ConditionFailed("a".into())))
            .is_none());
        // A system that applies the stale write diverges.
        assert!(model.record_write(&stale, &ok("a", Some(6))).is_some());
    }

    #[test]
    fn expected_outcomes_cover_all_cases() {
        let mut model = SpecModel::new();
        assert_eq!(
            model.expected_outcome(&TableOperation::Delete("a".into(), ETagMatch::Any)),
            ExpectedOutcome::NotFound
        );
        model.record_write(&TableOperation::Insert(row("a", 1)), &ok("a", Some(3)));
        assert_eq!(
            model.expected_outcome(&TableOperation::Insert(row("a", 1))),
            ExpectedOutcome::AlreadyExists
        );
        assert_eq!(
            model.expected_outcome(&TableOperation::Replace(
                row("a", 2),
                ETagMatch::Exact(ETag(3))
            )),
            ExpectedOutcome::Success { returns_etag: true }
        );
        assert_eq!(
            model.expected_outcome(&TableOperation::Replace(
                row("a", 2),
                ETagMatch::Exact(ETag(9))
            )),
            ExpectedOutcome::ConditionFailed
        );
        assert_eq!(
            model.expected_outcome(&TableOperation::Delete("a".into(), ETagMatch::Any)),
            ExpectedOutcome::Success {
                returns_etag: false
            }
        );
    }

    #[test]
    fn stable_row_must_be_returned_exactly_once_with_model_value() {
        let mut model = SpecModel::new();
        model.record_write(&TableOperation::Insert(row("a", 1)), &ok("a", Some(1)));
        let snapshot = model.version_snapshot();
        assert!(model
            .check_query(&snapshot, &Filter::All, &[row("a", 1)])
            .is_none());
        assert!(model
            .check_query(&snapshot, &Filter::All, &[])
            .unwrap()
            .contains("missed"));
        assert!(model
            .check_query(&snapshot, &Filter::All, &[row("a", 2)])
            .unwrap()
            .contains("stale"));
        assert!(model
            .check_query(&snapshot, &Filter::All, &[row("a", 1), row("a", 1)])
            .unwrap()
            .contains("times"));
    }

    #[test]
    fn unstable_keys_are_exempt_from_query_checks() {
        let mut model = SpecModel::new();
        model.record_write(&TableOperation::Insert(row("a", 1)), &ok("a", Some(1)));
        let snapshot = model.version_snapshot();
        // A write lands while the query is in flight.
        model.record_write(
            &TableOperation::Replace(row("a", 9), ETagMatch::Any),
            &ok("a", Some(2)),
        );
        // The query may return the old value, the new value, or even miss the
        // key entirely without being flagged.
        assert!(model
            .check_query(&snapshot, &Filter::All, &[row("a", 1)])
            .is_none());
        assert!(model
            .check_query(&snapshot, &Filter::All, &[row("a", 9)])
            .is_none());
        assert!(model.check_query(&snapshot, &Filter::All, &[]).is_none());
    }

    #[test]
    fn stably_deleted_keys_must_not_reappear() {
        let mut model = SpecModel::new();
        model.record_write(&TableOperation::Insert(row("a", 1)), &ok("a", Some(1)));
        model.record_write(
            &TableOperation::Delete("a".into(), ETagMatch::Any),
            &ok("a", None),
        );
        let snapshot = model.version_snapshot();
        assert!(model
            .check_query(&snapshot, &Filter::All, &[row("a", 1)])
            .unwrap()
            .contains("stably deleted"));
    }

    #[test]
    fn filter_restricts_which_stable_rows_are_required() {
        let mut model = SpecModel::new();
        model.record_write(&TableOperation::Insert(row("a", 1)), &ok("a", Some(1)));
        model.record_write(&TableOperation::Insert(row("b", 2)), &ok("b", Some(2)));
        let snapshot = model.version_snapshot();
        let filter = Filter::PropertyEquals {
            name: "v",
            value: Value::Int(2),
        };
        assert!(model
            .check_query(&snapshot, &filter, &[row("b", 2)])
            .is_none());
        // Returning a stable row that does not match the filter is an error.
        assert!(model
            .check_query(&snapshot, &filter, &[row("a", 1), row("b", 2)])
            .is_some());
    }

    /// A write drawn for the differential test, with the system outcome
    /// reported for it and whether the model applies it.
    fn random_write(
        rng: &mut SplitMix64,
        model: &SpecModel,
        next_etag: &mut u64,
    ) -> (TableOperation, Result<OpResult, TableError>, bool) {
        let key = Key::from(format!("k{}", rng.next_below(5)));
        let row = Row::with_int(key.clone(), "v", rng.next_below(3) as i64);
        let condition = match model.rows.get(&key).and_then(|m| m.etag) {
            Some(etag) if rng.next_below(3) == 0 => ETagMatch::Exact(etag),
            _ if rng.next_below(4) == 0 => ETagMatch::Exact(ETag(0)),
            _ => ETagMatch::Any,
        };
        let op = match rng.next_below(5) {
            0 => TableOperation::Insert(row),
            1 => TableOperation::Replace(row, condition),
            2 => TableOperation::Merge(row, condition),
            3 => TableOperation::InsertOrReplace(row),
            _ => TableOperation::Delete(key.clone(), condition),
        };
        *next_etag += 1;
        let expected = model.expected_outcome(&op);
        let (outcome, applied) = match (expected, rng.next_below(8)) {
            // A spurious conflict the specification tolerates: not applied.
            (ExpectedOutcome::Success { .. }, 0) => {
                (Err(TableError::ConditionFailed(key.clone())), false)
            }
            // A divergent outcome (a violation): not applied.
            (_, 1) => (Err(TableError::NotFound(key.clone())), false),
            (ExpectedOutcome::Success { returns_etag }, _) => (
                Ok(OpResult {
                    key: key.clone(),
                    etag: returns_etag.then_some(ETag(*next_etag)),
                }),
                true,
            ),
            (ExpectedOutcome::AlreadyExists, _) => {
                (Err(TableError::AlreadyExists(key.clone())), false)
            }
            (ExpectedOutcome::NotFound, _) => (Err(TableError::NotFound(key.clone())), false),
            (ExpectedOutcome::ConditionFailed, _) => {
                (Err(TableError::ConditionFailed(key.clone())), false)
            }
        };
        (op, outcome, applied)
    }

    /// Rows a query might return: half the time the model's exact answer,
    /// otherwise one with keys missed, duplicated, stale or foreign.
    fn random_results(rng: &mut SplitMix64, model: &SpecModel, filter: &Filter) -> Vec<Row> {
        let exact = rng.next_below(2) == 0;
        let mut rows = Vec::new();
        for i in 0..5 {
            let key = format!("k{i}");
            let copies = match rng.next_below(6) {
                _ if exact => 1,
                0 => 0,
                1 => 2,
                _ => 1,
            };
            for _ in 0..copies {
                match model.row(&key) {
                    Some(row) if exact || rng.next_below(5) != 0 => rows.push(row.clone()),
                    _ if exact => {}
                    _ => rows.push(Row::with_int(key.clone(), "v", rng.next_below(3) as i64)),
                }
            }
        }
        if exact {
            rows.retain(|row| filter.matches(row));
        }
        rows
    }

    /// The write-sequence rule gives the identical verdict string as the
    /// per-key version map over seeded interleavings of writes and
    /// overlapping queries.
    #[test]
    fn write_sequence_rule_matches_the_version_map_reference() {
        let mut verdicts = BTreeMap::<bool, usize>::new();
        for case in 0..300u64 {
            let mut rng = SplitMix64::new(0x5EC ^ case);
            let mut model = SpecModel::new();
            let mut versions = reference::VersionMap::default();
            for i in 0..rng.next_below(3) {
                model.seed(Row::with_int(format!("k{i}"), "v", 0), ETag(i as u64 + 1));
            }
            let mut next_etag = 100;
            let mut open: Vec<(VersionSnapshot, reference::VersionMap)> = Vec::new();
            for _ in 0..60 {
                match rng.next_below(4) {
                    0 | 1 => {
                        let (op, outcome, applied) = random_write(&mut rng, &model, &mut next_etag);
                        let violation = model.record_write(&op, &outcome);
                        if applied {
                            assert!(violation.is_none(), "case {case}: {op:?}");
                            versions.bump(op.key());
                        }
                    }
                    2 => open.push((model.version_snapshot(), versions.clone())),
                    _ if !open.is_empty() => {
                        let (snapshot, started) = open.swap_remove(rng.next_below(open.len()));
                        let filter = if rng.next_below(2) == 0 {
                            Filter::All
                        } else {
                            Filter::PropertyEquals {
                                name: "v",
                                value: Value::Int(rng.next_below(3) as i64),
                            }
                        };
                        let results = random_results(&mut rng, &model, &filter);
                        let actual = model.check_query(&snapshot, &filter, &results);
                        let expected = versions.check_query(&model, &started, &filter, &results);
                        assert_eq!(actual, expected, "case {case}");
                        *verdicts.entry(actual.is_some()).or_default() += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(
            verdicts.values().all(|&n| n > 500),
            "both verdicts must be exercised: {verdicts:?}"
        );
    }

    #[test]
    fn seeded_rows_participate_in_checks() {
        let mut model = SpecModel::new();
        model.seed(row("a", 1), ETag(1));
        let snapshot = model.version_snapshot();
        assert!(model
            .check_query(&snapshot, &Filter::All, &[])
            .unwrap()
            .contains("missed"));
        assert!(!model.is_empty());
    }
}
