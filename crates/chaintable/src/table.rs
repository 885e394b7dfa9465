//! The chain-table specification and its in-memory reference implementation.
//!
//! `IChainTable` in the paper is an Azure-table-like interface: rows are
//! keyed by a string key, carry a property bag, and are versioned with ETags;
//! writes are conditional on ETags and can be batched atomically; reads are
//! either atomic snapshots or streamed row-by-row with weaker consistency.
//! The same in-memory implementation is used for the backend tables and for
//! the reference table, exactly as in the paper ("this reference
//! implementation was reused for the BTs").

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// A property value stored in a row.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An integer property.
    Int(i64),
    /// A string property.
    Str(String),
    /// A boolean property.
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Version tag assigned by a table to every stored row revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ETag(pub u64);

/// Precondition on the stored row's [`ETag`] for conditional operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ETagMatch {
    /// `*`: apply regardless of the stored version.
    Any,
    /// Apply only when the stored version equals the given tag.
    Exact(ETag),
}

/// A row: a key plus a property bag. The stored ETag is managed by the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The row key (unique within a table).
    pub key: String,
    /// The row's properties.
    pub properties: BTreeMap<String, Value>,
}

impl Row {
    /// Creates a row with a single integer property `v`, the common shape in
    /// the tests and workloads.
    pub fn with_int(key: impl Into<String>, name: impl Into<String>, v: i64) -> Self {
        let mut properties = BTreeMap::new();
        properties.insert(name.into(), Value::Int(v));
        Row {
            key: key.into(),
            properties,
        }
    }

    /// Creates a row with an empty property bag.
    pub fn empty(key: impl Into<String>) -> Self {
        Row {
            key: key.into(),
            properties: BTreeMap::new(),
        }
    }

    /// Returns a copy with one property added or replaced.
    pub fn with_property(mut self, name: impl Into<String>, value: Value) -> Self {
        self.properties.insert(name.into(), value);
        self
    }
}

/// A stored row as returned by queries: the row plus its current ETag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRow {
    /// The row contents.
    pub row: Row,
    /// The row's current version.
    pub etag: ETag,
}

impl StoredRow {
    /// Copies a borrowed stored row out of its table.
    fn copied((row, etag): (&Row, ETag)) -> StoredRow {
        StoredRow {
            row: row.clone(),
            etag,
        }
    }
}

/// A single table operation, applied atomically (possibly within a batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableOperation {
    /// Insert a new row; fails if the key already exists.
    Insert(Row),
    /// Replace an existing row; fails if missing or the ETag mismatches.
    Replace(Row, ETagMatch),
    /// Merge properties into an existing row; fails if missing or mismatched.
    Merge(Row, ETagMatch),
    /// Insert the row or replace whatever is stored, unconditionally.
    InsertOrReplace(Row),
    /// Delete a row; fails if missing or the ETag mismatches.
    Delete(String, ETagMatch),
}

impl TableOperation {
    /// The key this operation addresses.
    pub fn key(&self) -> &str {
        match self {
            TableOperation::Insert(row)
            | TableOperation::Replace(row, _)
            | TableOperation::Merge(row, _)
            | TableOperation::InsertOrReplace(row) => &row.key,
            TableOperation::Delete(key, _) => key,
        }
    }
}

/// Result of one successful operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// The key the operation addressed.
    pub key: String,
    /// The new ETag of the row, or `None` for deletes.
    pub etag: Option<ETag>,
}

/// Errors returned by chain tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Insert of a key that already exists.
    AlreadyExists(String),
    /// Conditional operation on a missing key.
    NotFound(String),
    /// ETag precondition failed.
    ConditionFailed(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::AlreadyExists(k) => write!(f, "row {k:?} already exists"),
            TableError::NotFound(k) => write!(f, "row {k:?} was not found"),
            TableError::ConditionFailed(k) => write!(f, "etag precondition failed for row {k:?}"),
        }
    }
}

impl std::error::Error for TableError {}

/// Row filter used by queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// Match every row.
    All,
    /// Match rows whose key lies in `[from, to]` (inclusive).
    KeyRange {
        /// Lower bound (inclusive).
        from: String,
        /// Upper bound (inclusive).
        to: String,
    },
    /// Match rows whose property `name` equals `value`.
    PropertyEquals {
        /// The property name.
        name: String,
        /// The value to compare against.
        value: Value,
    },
}

impl Filter {
    /// Returns `true` when `row` satisfies the filter.
    pub fn matches(&self, row: &Row) -> bool {
        match self {
            Filter::All => true,
            Filter::KeyRange { from, to } => {
                row.key.as_str() >= from.as_str() && row.key.as_str() <= to.as_str()
            }
            Filter::PropertyEquals { name, value } => row.properties.get(name) == Some(value),
        }
    }
}

/// The chain-table interface (the paper's `IChainTable`).
pub trait ChainTable {
    /// Executes `ops` atomically: either every operation succeeds, or the
    /// first failing operation's error is returned and nothing is applied.
    ///
    /// Later operations see the effects of earlier ones (an insert followed by
    /// a replace of the same key succeeds). Atomicity is a guarantee about the
    /// outcome, not a method: [`InMemoryTable`] applies each operation in
    /// place as it validates and, when one fails, undoes the applied prefix
    /// rather than working on a scratch copy of the table.
    ///
    /// # Errors
    ///
    /// Returns the error of the first failing operation.
    fn execute_batch(&mut self, ops: &[TableOperation]) -> Result<Vec<OpResult>, TableError>;

    /// Returns a point-in-time snapshot of every row matching `filter`,
    /// sorted by key.
    fn query_atomic(&self, filter: &Filter) -> Vec<StoredRow>;

    /// Returns the first row (by key order) with key `>= start` that matches
    /// `filter`, if any. Streaming reads are built from repeated calls with
    /// an advancing cursor, so each returned row may reflect the table state
    /// at a different time — the weak consistency the specification allows.
    fn query_first_at_or_after(&self, start: &str, filter: &Filter) -> Option<StoredRow>;

    /// Returns the row stored under exactly `key`, if any.
    ///
    /// The default scans from `key` with
    /// [`ChainTable::query_first_at_or_after`], which copies the next row
    /// even when `key` itself is absent; an implementation with a point
    /// lookup overrides it so that a miss copies nothing.
    fn query_key(&self, key: &str) -> Option<StoredRow> {
        self.query_first_at_or_after(key, &Filter::All)
            .filter(|stored| stored.row.key == key)
    }
}

/// Convenience helpers shared by every [`ChainTable`].
pub trait ChainTableExt: ChainTable {
    /// Executes a single operation (a one-element batch).
    ///
    /// # Errors
    ///
    /// Returns the operation's error.
    fn execute(&mut self, op: TableOperation) -> Result<OpResult, TableError> {
        let mut results = self.execute_batch(std::slice::from_ref(&op))?;
        Ok(results.remove(0))
    }

    /// Reads one row by key. It allocates only the row it returns.
    fn read(&self, key: &str) -> Option<StoredRow> {
        self.query_key(key)
    }
}

impl<T: ChainTable + ?Sized> ChainTableExt for T {}

/// The in-memory reference implementation of [`ChainTable`].
#[derive(Debug, Clone, Default)]
pub struct InMemoryTable {
    rows: BTreeMap<String, (Row, ETag)>,
    next_etag: u64,
}

impl InMemoryTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        InMemoryTable::default()
    }

    /// Creates an empty table whose ETags start above `base`.
    ///
    /// Useful when several tables coexist and their ETags must never collide
    /// (real table services hand out globally unique version tags).
    pub fn with_etag_base(base: u64) -> Self {
        InMemoryTable {
            rows: BTreeMap::new(),
            next_etag: base,
        }
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table stores no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row stored under `key` and its ETag, borrowed.
    pub(crate) fn get(&self, key: &str) -> Option<(&Row, ETag)> {
        self.rows.get(key).map(|(row, etag)| (row, *etag))
    }

    /// The first row (by key order) with key `>= start` that satisfies
    /// `matches`, borrowed.
    pub(crate) fn find_from(
        &self,
        start: &str,
        matches: impl Fn(&Row) -> bool,
    ) -> Option<(&Row, ETag)> {
        self.rows
            .range::<str, _>((Bound::Included(start), Bound::Unbounded))
            .map(|(_, (row, etag))| (row, *etag))
            .find(|(row, _)| matches(row))
    }

    fn allocate_etag(&mut self) -> ETag {
        self.next_etag += 1;
        ETag(self.next_etag)
    }

    fn check(&self, key: &str, condition: ETagMatch) -> Result<(), TableError> {
        match self.rows.get(key) {
            None => Err(TableError::NotFound(key.to_string())),
            Some((_, stored_etag)) => match condition {
                ETagMatch::Any => Ok(()),
                ETagMatch::Exact(expected) if expected == *stored_etag => Ok(()),
                ETagMatch::Exact(_) => Err(TableError::ConditionFailed(key.to_string())),
            },
        }
    }

    fn validate(&self, op: &TableOperation) -> Result<(), TableError> {
        match op {
            TableOperation::Insert(row) => {
                if self.rows.contains_key(&row.key) {
                    Err(TableError::AlreadyExists(row.key.clone()))
                } else {
                    Ok(())
                }
            }
            TableOperation::Replace(row, condition) | TableOperation::Merge(row, condition) => {
                self.check(&row.key, *condition)
            }
            TableOperation::InsertOrReplace(_) => Ok(()),
            TableOperation::Delete(key, condition) => self.check(key, *condition),
        }
    }

    /// Stores `row` under a fresh ETag, reusing the key of an existing entry,
    /// and returns the entry it overwrote.
    fn put(&mut self, row: &Row) -> (ETag, Option<(Row, ETag)>) {
        let etag = self.allocate_etag();
        let previous = match self.rows.get_mut(&row.key) {
            Some(slot) => Some(std::mem::replace(slot, (row.clone(), etag))),
            None => {
                self.rows.insert(row.key.clone(), (row.clone(), etag));
                None
            }
        };
        (etag, previous)
    }

    /// Applies a validated operation and returns its result plus how to undo
    /// it (built only when `keep_undo`: the last operation of a batch can no
    /// longer be rolled back by a later failure).
    fn apply<'op>(
        &mut self,
        op: &'op TableOperation,
        keep_undo: bool,
    ) -> (OpResult, Option<Undo<'op>>) {
        let (key, etag, undo) = match op {
            TableOperation::Insert(row)
            | TableOperation::InsertOrReplace(row)
            | TableOperation::Replace(row, _) => {
                let (etag, previous) = self.put(row);
                let undo = match previous {
                    Some(entry) => Undo::Overwrote(&row.key, entry),
                    None => Undo::Inserted(&row.key),
                };
                (&row.key, Some(etag), keep_undo.then_some(undo))
            }
            TableOperation::Merge(row, _) => {
                let etag = self.allocate_etag();
                let entry = self
                    .rows
                    .get_mut(&row.key)
                    .expect("validated: row exists for merge");
                let undo = keep_undo.then(|| Undo::Overwrote(&row.key, entry.clone()));
                for (name, value) in &row.properties {
                    entry.0.properties.insert(name.clone(), value.clone());
                }
                entry.1 = etag;
                (&row.key, Some(etag), undo)
            }
            TableOperation::Delete(key, _) => {
                let (stored_key, entry) = self
                    .rows
                    .remove_entry(key.as_str())
                    .expect("validated: row exists for delete");
                (
                    key,
                    None,
                    keep_undo.then_some(Undo::Deleted(stored_key, entry)),
                )
            }
        };
        let result = OpResult {
            key: key.clone(),
            etag,
        };
        (result, undo)
    }

    /// Reverts one applied operation; undone newest first, the table returns
    /// to its state before the batch.
    fn undo(&mut self, undo: Undo<'_>) {
        match undo {
            Undo::Inserted(key) => {
                self.rows.remove(key);
            }
            Undo::Overwrote(key, entry) => {
                *self
                    .rows
                    .get_mut(key)
                    .expect("undo: overwritten row exists") = entry;
            }
            Undo::Deleted(key, entry) => {
                self.rows.insert(key, entry);
            }
        }
    }
}

/// What one applied batch operation replaced, kept until the batch commits.
enum Undo<'op> {
    /// The key was absent before the operation.
    Inserted(&'op str),
    /// The key held this row and ETag before the operation.
    Overwrote(&'op str, (Row, ETag)),
    /// The operation removed this entry (its key string included).
    Deleted(String, (Row, ETag)),
}

impl ChainTable for InMemoryTable {
    fn execute_batch(&mut self, ops: &[TableOperation]) -> Result<Vec<OpResult>, TableError> {
        // Each operation is validated against the state its predecessors
        // left and applied in place. When one fails, the applied prefix is
        // undone newest first and the ETag counter rewound, so a failed batch
        // leaves the table exactly as it found it. A one-operation batch
        // validates before it touches anything and keeps no undo record.
        let etag_before = self.next_etag;
        let mut results = Vec::with_capacity(ops.len());
        let mut undo = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if let Err(err) = self.validate(op) {
                while let Some(step) = undo.pop() {
                    self.undo(step);
                }
                self.next_etag = etag_before;
                return Err(err);
            }
            let (result, step) = self.apply(op, i + 1 < ops.len());
            results.push(result);
            undo.extend(step);
        }
        Ok(results)
    }

    fn query_atomic(&self, filter: &Filter) -> Vec<StoredRow> {
        self.rows
            .values()
            .filter(|(row, _)| filter.matches(row))
            .map(|(row, etag)| StoredRow {
                row: row.clone(),
                etag: *etag,
            })
            .collect()
    }

    fn query_first_at_or_after(&self, start: &str, filter: &Filter) -> Option<StoredRow> {
        self.find_from(start, |row| filter.matches(row))
            .map(StoredRow::copied)
    }

    fn query_key(&self, key: &str) -> Option<StoredRow> {
        self.get(key).map(StoredRow::copied)
    }
}

/// The clone-then-swap batch the in-place undo replaced: validate and apply
/// every operation on a scratch copy of the whole table, then swap it in.
/// Kept only so the differential test below can require the production batch
/// to agree with it.
#[cfg(test)]
mod reference {
    use super::*;

    fn apply(table: &mut InMemoryTable, op: &TableOperation) -> OpResult {
        match op {
            TableOperation::Insert(row)
            | TableOperation::InsertOrReplace(row)
            | TableOperation::Replace(row, _) => {
                let etag = table.allocate_etag();
                table.rows.insert(row.key.clone(), (row.clone(), etag));
                OpResult {
                    key: row.key.clone(),
                    etag: Some(etag),
                }
            }
            TableOperation::Merge(row, _) => {
                let etag = table.allocate_etag();
                let entry = table
                    .rows
                    .get_mut(&row.key)
                    .expect("validated: row exists for merge");
                for (name, value) in &row.properties {
                    entry.0.properties.insert(name.clone(), value.clone());
                }
                entry.1 = etag;
                OpResult {
                    key: row.key.clone(),
                    etag: Some(etag),
                }
            }
            TableOperation::Delete(key, _) => {
                table.rows.remove(key);
                OpResult {
                    key: key.clone(),
                    etag: None,
                }
            }
        }
    }

    pub(super) fn execute_batch(
        table: &mut InMemoryTable,
        ops: &[TableOperation],
    ) -> Result<Vec<OpResult>, TableError> {
        let mut scratch = table.clone();
        let mut results = Vec::with_capacity(ops.len());
        for op in ops {
            scratch.validate(op)?;
            results.push(apply(&mut scratch, op));
        }
        *table = scratch;
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use psharp::rng::SplitMix64;

    use super::*;

    fn row(key: &str, v: i64) -> Row {
        Row::with_int(key, "v", v)
    }

    #[test]
    fn insert_then_read_round_trips() {
        let mut t = InMemoryTable::new();
        let result = t.execute(TableOperation::Insert(row("a", 1))).unwrap();
        assert_eq!(result.key, "a");
        let stored = t.read("a").expect("row exists");
        assert_eq!(stored.row, row("a", 1));
        assert_eq!(Some(stored.etag), result.etag);
    }

    #[test]
    fn insert_duplicate_fails() {
        let mut t = InMemoryTable::new();
        t.execute(TableOperation::Insert(row("a", 1))).unwrap();
        assert_eq!(
            t.execute(TableOperation::Insert(row("a", 2))),
            Err(TableError::AlreadyExists("a".to_string()))
        );
    }

    #[test]
    fn replace_requires_matching_etag() {
        let mut t = InMemoryTable::new();
        let first = t.execute(TableOperation::Insert(row("a", 1))).unwrap();
        let stale = first.etag.unwrap();
        t.execute(TableOperation::Replace(
            row("a", 2),
            ETagMatch::Exact(stale),
        ))
        .unwrap();
        // Replaying with the now-stale etag must fail.
        assert_eq!(
            t.execute(TableOperation::Replace(
                row("a", 3),
                ETagMatch::Exact(stale)
            )),
            Err(TableError::ConditionFailed("a".to_string()))
        );
        assert_eq!(t.read("a").unwrap().row, row("a", 2));
    }

    #[test]
    fn replace_missing_row_fails() {
        let mut t = InMemoryTable::new();
        assert_eq!(
            t.execute(TableOperation::Replace(row("a", 1), ETagMatch::Any)),
            Err(TableError::NotFound("a".to_string()))
        );
    }

    #[test]
    fn merge_updates_only_named_properties() {
        let mut t = InMemoryTable::new();
        t.execute(TableOperation::Insert(
            Row::with_int("a", "x", 1).with_property("y", Value::Int(2)),
        ))
        .unwrap();
        t.execute(TableOperation::Merge(
            Row::with_int("a", "y", 9),
            ETagMatch::Any,
        ))
        .unwrap();
        let stored = t.read("a").unwrap();
        assert_eq!(stored.row.properties.get("x"), Some(&Value::Int(1)));
        assert_eq!(stored.row.properties.get("y"), Some(&Value::Int(9)));
    }

    #[test]
    fn delete_with_wrong_etag_fails_and_keeps_row() {
        let mut t = InMemoryTable::new();
        t.execute(TableOperation::Insert(row("a", 1))).unwrap();
        assert_eq!(
            t.execute(TableOperation::Delete(
                "a".to_string(),
                ETagMatch::Exact(ETag(999))
            )),
            Err(TableError::ConditionFailed("a".to_string()))
        );
        assert!(t.read("a").is_some());
        t.execute(TableOperation::Delete("a".to_string(), ETagMatch::Any))
            .unwrap();
        assert!(t.read("a").is_none());
    }

    #[test]
    fn batch_is_atomic_on_failure() {
        let mut t = InMemoryTable::new();
        t.execute(TableOperation::Insert(row("a", 1))).unwrap();
        let batch = [
            TableOperation::InsertOrReplace(row("b", 2)),
            TableOperation::Insert(row("a", 3)), // fails: already exists
        ];
        assert!(t.execute_batch(&batch).is_err());
        assert!(t.read("b").is_none(), "the first op must be rolled back");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn batch_later_ops_see_earlier_ops() {
        let mut t = InMemoryTable::new();
        let batch = [
            TableOperation::Insert(row("a", 1)),
            TableOperation::Replace(row("a", 2), ETagMatch::Any),
        ];
        let results = t.execute_batch(&batch).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(t.read("a").unwrap().row, row("a", 2));
    }

    #[test]
    fn query_atomic_is_sorted_and_filtered() {
        let mut t = InMemoryTable::new();
        for (k, v) in [("c", 3), ("a", 1), ("b", 2)] {
            t.execute(TableOperation::Insert(row(k, v))).unwrap();
        }
        let all = t.query_atomic(&Filter::All);
        let keys: Vec<&str> = all.iter().map(|s| s.row.key.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);

        let range = t.query_atomic(&Filter::KeyRange {
            from: "a".to_string(),
            to: "b".to_string(),
        });
        assert_eq!(range.len(), 2);

        let by_value = t.query_atomic(&Filter::PropertyEquals {
            name: "v".to_string(),
            value: Value::Int(3),
        });
        assert_eq!(by_value.len(), 1);
        assert_eq!(by_value[0].row.key, "c");
    }

    #[test]
    fn query_first_at_or_after_respects_cursor_and_filter() {
        let mut t = InMemoryTable::new();
        for (k, v) in [("a", 1), ("b", 2), ("c", 1)] {
            t.execute(TableOperation::Insert(row(k, v))).unwrap();
        }
        assert_eq!(
            t.query_first_at_or_after("b", &Filter::All)
                .unwrap()
                .row
                .key,
            "b"
        );
        let filter = Filter::PropertyEquals {
            name: "v".to_string(),
            value: Value::Int(1),
        };
        assert_eq!(
            t.query_first_at_or_after("b", &filter).unwrap().row.key,
            "c"
        );
        assert!(t.query_first_at_or_after("d", &Filter::All).is_none());
    }

    #[test]
    fn failed_batch_rewinds_the_etag_counter() {
        let mut t = InMemoryTable::with_etag_base(10);
        t.execute(TableOperation::Insert(row("a", 1))).unwrap();
        let batch = [
            TableOperation::Merge(row("a", 2), ETagMatch::Any),
            TableOperation::Delete("a".to_string(), ETagMatch::Any),
            TableOperation::Insert(row("b", 3)),
            TableOperation::Replace(row("c", 4), ETagMatch::Any), // fails: missing
        ];
        assert_eq!(
            t.execute_batch(&batch),
            Err(TableError::NotFound("c".to_string()))
        );
        assert_eq!(t.read("a").unwrap().row, row("a", 1));
        assert_eq!(t.read("a").unwrap().etag, ETag(11));
        assert!(t.read("b").is_none());
        let next = t.execute(TableOperation::Insert(row("b", 3))).unwrap();
        assert_eq!(next.etag, Some(ETag(12)), "the failed batch used no etag");
    }

    fn random_op(rng: &mut SplitMix64, etags: &[ETag]) -> TableOperation {
        let key = format!("k{}", rng.next_below(4));
        let row = Row::with_int(
            key.clone(),
            ["v", "w"][rng.next_below(2)],
            rng.next_below(3) as i64,
        );
        let condition = match rng.next_below(3) {
            0 if !etags.is_empty() => ETagMatch::Exact(etags[rng.next_below(etags.len())]),
            1 => ETagMatch::Exact(ETag(rng.next_below(40) as u64)),
            _ => ETagMatch::Any,
        };
        match rng.next_below(5) {
            0 => TableOperation::Insert(row),
            1 => TableOperation::Replace(row, condition),
            2 => TableOperation::Merge(row, condition),
            3 => TableOperation::InsertOrReplace(row),
            _ => TableOperation::Delete(key, condition),
        }
    }

    fn contents(t: &InMemoryTable) -> (Vec<StoredRow>, u64) {
        (t.query_atomic(&Filter::All), t.next_etag)
    }

    /// The in-place batch with undo agrees with the clone-then-swap reference
    /// on results, errors, rows, ETags and the ETag counter after every batch
    /// of 1–4 operations, and a failed batch changes nothing, also when it
    /// fails part-way.
    #[test]
    fn in_place_batch_matches_clone_then_swap_reference() {
        let (mut failed, mut part_way) = (0, 0);
        for case in 0..200u64 {
            let mut rng = SplitMix64::new(0xBA7C4 ^ case);
            let mut table = InMemoryTable::with_etag_base(case);
            let mut reference = table.clone();
            let mut etags = Vec::new();
            for batch_no in 0..30 {
                let len = 1 + rng.next_below(4);
                let ops: Vec<TableOperation> =
                    (0..len).map(|_| random_op(&mut rng, &etags)).collect();
                let before = contents(&table);
                let mut probe = table.clone();
                let applies = ops
                    .iter()
                    .take_while(|op| probe.execute(TableOperation::clone(op)).is_ok())
                    .count();
                let actual = table.execute_batch(&ops);
                let expected = reference::execute_batch(&mut reference, &ops);
                assert_eq!(actual, expected, "case {case} batch {batch_no}: {ops:?}");
                assert_eq!(
                    contents(&table),
                    contents(&reference),
                    "case {case} batch {batch_no}: {ops:?}"
                );
                match actual {
                    Ok(results) => etags.extend(results.iter().filter_map(|r| r.etag)),
                    Err(_) => {
                        assert_eq!(contents(&table), before, "case {case} batch {batch_no}");
                        failed += 1;
                        part_way += usize::from(applies > 0);
                    }
                }
            }
        }
        // The draw covers committed batches, failed ones, and failures after
        // at least one applied operation.
        let committed = 200 * 30 - failed;
        assert!(
            committed > 500 && part_way > 1_000,
            "{committed} committed, {part_way} of {failed} failures part-way"
        );
    }

    #[test]
    fn etags_are_unique_and_increasing() {
        let mut t = InMemoryTable::new();
        let a = t.execute(TableOperation::Insert(row("a", 1))).unwrap();
        let b = t
            .execute(TableOperation::InsertOrReplace(row("a", 2)))
            .unwrap();
        assert!(b.etag.unwrap() > a.etag.unwrap());
    }
}
