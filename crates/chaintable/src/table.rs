//! The chain-table specification and its in-memory reference implementation.
//!
//! `IChainTable` in the paper is an Azure-table-like interface: rows are
//! keyed by a string key, carry a property bag, and are versioned with ETags;
//! writes are conditional on ETags and can be batched atomically; reads are
//! either atomic snapshots or streamed row-by-row with weaker consistency.
//! The same in-memory implementation is used for the backend tables and for
//! the reference table, exactly as in the paper ("this reference
//! implementation was reused for the BTs").
//!
//! A [`Row`] is an immutable value that is shared, not copied: its [`Key`]
//! and its [`Properties`] are reference counted, so storing a row, returning
//! it from a query, recording it in the spec model or handing it to another
//! machine costs a reference-count increment. Nothing mutates a shared row in
//! place; a `Merge` builds a new property bag (copy on write), so every
//! holder of the old row keeps seeing the old value.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// A row key. Shared: putting one into a row, an [`OpResult`] or a
/// [`TableError`] is a reference-count increment, not a string copy.
pub type Key = Arc<str>;

/// A property value stored in a row.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An integer property.
    Int(i64),
    /// A string property (shared, like a [`Key`]).
    Str(Arc<str>),
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

/// A row's property bag: `&'static str` names, each at most once and sorted,
/// with their values.
///
/// The bag is shared and immutable: cloning it is a reference-count
/// increment, and [`Properties::merged`] / [`Properties::with`] build a new
/// bag, leaving every holder of the old one untouched. It prints, compares
/// and looks up like the name-to-value map it stands for.
#[derive(Clone, PartialEq, Eq)]
pub struct Properties(Arc<[(&'static str, Value)]>);

impl Properties {
    /// A bag holding one property.
    pub fn one(name: &'static str, value: Value) -> Self {
        Properties(Arc::from([(name, value)]))
    }

    /// A bag holding no property.
    pub fn empty() -> Self {
        Properties(Arc::from([]))
    }

    /// The value of property `name`, if the bag holds one.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0
            .binary_search_by(|(held, _)| (*held).cmp(name))
            .ok()
            .map(|index| &self.0[index].1)
    }

    /// The properties, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Value)> {
        self.0.iter().map(|(name, value)| (*name, value))
    }

    /// A new bag: this one with every property of `update` added or
    /// replaced (the contents a `Merge` leaves).
    pub fn merged(&self, update: &Properties) -> Properties {
        // Collecting into a map keeps the last value of each name, so
        // `update` wins.
        let merged: BTreeMap<&'static str, Value> =
            self.0.iter().chain(update.0.iter()).cloned().collect();
        Properties(merged.into_iter().collect())
    }

    /// A new bag: this one with property `name` added or replaced.
    pub fn with(&self, name: &'static str, value: Value) -> Properties {
        self.merged(&Properties::one(name, value))
    }
}

impl fmt::Debug for Properties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
///
/// A row is an immutable shared value: both fields are reference counted, so
/// a clone allocates nothing, and no operation changes a row someone holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The row key (unique within a table).
    pub key: Key,
    /// The row's properties.
    pub properties: Properties,
}

impl Row {
    /// Creates a row with a single integer property, the common shape in the
    /// tests and workloads.
    pub fn with_int(key: impl Into<Key>, name: &'static str, v: i64) -> Self {
        Row {
            key: key.into(),
            properties: Properties::one(name, Value::Int(v)),
        }
    }

    /// Creates a row with an empty property bag.
    pub fn empty(key: impl Into<Key>) -> Self {
        Row {
            key: key.into(),
            properties: Properties::empty(),
        }
    }

    /// Returns the row with one property added or replaced.
    pub fn with_property(self, name: &'static str, value: Value) -> Self {
        Row {
            key: self.key,
            properties: self.properties.with(name, value),
        }
    }
}

/// A stored row as returned by queries: the row plus its current ETag.
///
/// The table keeps its rows in this form, so a query result is a clone of
/// the stored entry: two reference-count increments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRow {
    /// The row contents.
    pub row: Row,
    /// The row's current version.
    pub etag: ETag,
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
    Delete(Key, ETagMatch),
}

impl TableOperation {
    /// The key this operation addresses.
    pub fn key(&self) -> &Key {
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
    /// The key the operation addressed (shared with the operation's row).
    pub key: Key,
    /// The new ETag of the row, or `None` for deletes.
    pub etag: Option<ETag>,
}

/// Errors returned by chain tables. Each names the operation's key, shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Insert of a key that already exists.
    AlreadyExists(Key),
    /// Conditional operation on a missing key.
    NotFound(Key),
    /// ETag precondition failed.
    ConditionFailed(Key),
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

/// Row filter used by queries. Cloning one allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// Match every row.
    All,
    /// Match rows whose key lies in `[from, to]` (inclusive).
    KeyRange {
        /// Lower bound (inclusive).
        from: Key,
        /// Upper bound (inclusive).
        to: Key,
    },
    /// Match rows whose property `name` equals `value`.
    PropertyEquals {
        /// The property name.
        name: &'static str,
        /// The value to compare against.
        value: Value,
    },
}

impl Filter {
    /// Returns `true` when `row` satisfies the filter.
    pub fn matches(&self, row: &Row) -> bool {
        match self {
            Filter::All => true,
            Filter::KeyRange { from, to } => row.key >= *from && row.key <= *to,
            Filter::PropertyEquals { name, value } => row.properties.get(name) == Some(value),
        }
    }
}

/// The chain-table interface (the paper's `IChainTable`).
pub trait ChainTable {
    /// Executes one operation: it either succeeds or fails with its error and
    /// changes nothing. This is the write path of a single-row write; a
    /// batch is a loop over it.
    ///
    /// # Errors
    ///
    /// Returns the operation's error.
    fn execute_one(&mut self, op: &TableOperation) -> Result<OpResult, TableError>;

    /// Executes `ops` atomically: either every operation succeeds, or the
    /// first failing operation's error is returned and nothing is applied.
    ///
    /// Later operations see the effects of earlier ones (an insert followed by
    /// a replace of the same key succeeds). Atomicity is a guarantee about the
    /// outcome, not a method: [`InMemoryTable`] applies each operation with
    /// [`ChainTable::execute_one`] and, when one fails, puts back the entries
    /// the applied prefix replaced. Rows are shared, so remembering an entry
    /// is a reference-count increment, not a copy.
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
}

/// Convenience helpers shared by every [`ChainTable`].
pub trait ChainTableExt: ChainTable {
    /// Executes a single owned operation ([`ChainTable::execute_one`]).
    ///
    /// # Errors
    ///
    /// Returns the operation's error.
    fn execute(&mut self, op: TableOperation) -> Result<OpResult, TableError> {
        self.execute_one(&op)
    }

    /// Reads one row by key. It allocates nothing: the row is shared.
    fn read(&self, key: &str) -> Option<StoredRow> {
        self.query_first_at_or_after(key, &Filter::All)
            .filter(|stored| &*stored.row.key == key)
    }
}

impl<T: ChainTable + ?Sized> ChainTableExt for T {}

/// The in-memory reference implementation of [`ChainTable`].
#[derive(Debug, Clone, Default)]
pub struct InMemoryTable {
    rows: BTreeMap<Key, StoredRow>,
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

    /// The entry stored under `key`, borrowed.
    pub(crate) fn get(&self, key: &str) -> Option<&StoredRow> {
        self.rows.get(key)
    }

    /// The first entry (by key order) with key `>= start` whose row
    /// satisfies `matches`, borrowed.
    pub(crate) fn find_from(
        &self,
        start: &str,
        matches: impl Fn(&Row) -> bool,
    ) -> Option<&StoredRow> {
        self.rows
            .range::<str, _>((Bound::Included(start), Bound::Unbounded))
            .map(|(_, stored)| stored)
            .find(|stored| matches(&stored.row))
    }

    fn allocate_etag(&mut self) -> ETag {
        self.next_etag += 1;
        ETag(self.next_etag)
    }

    fn check(&self, key: &Key, condition: ETagMatch) -> Result<(), TableError> {
        match self.rows.get(key) {
            None => Err(TableError::NotFound(key.clone())),
            Some(stored) => match condition {
                ETagMatch::Any => Ok(()),
                ETagMatch::Exact(expected) if expected == stored.etag => Ok(()),
                ETagMatch::Exact(_) => Err(TableError::ConditionFailed(key.clone())),
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
}

impl ChainTable for InMemoryTable {
    fn execute_one(&mut self, op: &TableOperation) -> Result<OpResult, TableError> {
        // Validation reads only, so a failing operation changes nothing, the
        // ETag counter included.
        self.validate(op)?;
        let etag = match op {
            TableOperation::Insert(row)
            | TableOperation::InsertOrReplace(row)
            | TableOperation::Replace(row, _) => {
                let etag = self.allocate_etag();
                let stored = StoredRow {
                    row: row.clone(),
                    etag,
                };
                self.rows.insert(row.key.clone(), stored);
                Some(etag)
            }
            TableOperation::Merge(row, _) => {
                let etag = self.allocate_etag();
                let stored = self
                    .rows
                    .get_mut(&row.key)
                    .expect("validated: row exists for merge");
                // Copy on write: the merged bag is new, and whoever holds the
                // old row keeps the old bag.
                stored.row.properties = stored.row.properties.merged(&row.properties);
                stored.etag = etag;
                Some(etag)
            }
            TableOperation::Delete(key, _) => {
                self.rows.remove(key);
                None
            }
        };
        Ok(OpResult {
            key: op.key().clone(),
            etag,
        })
    }

    fn execute_batch(&mut self, ops: &[TableOperation]) -> Result<Vec<OpResult>, TableError> {
        // Each operation runs through `execute_one` against the state its
        // predecessors left. Before it does, the entry it addresses is
        // remembered (shared, so this copies nothing); when one fails, the
        // remembered entries go back newest first and the ETag counter is
        // rewound, so a failed batch leaves the table exactly as it found it.
        // The last operation needs no record: if it fails it changed nothing.
        let etag_before = self.next_etag;
        let mut results = Vec::with_capacity(ops.len());
        let mut replaced: Vec<(&Key, Option<StoredRow>)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if i + 1 < ops.len() {
                replaced.push((op.key(), self.rows.get(op.key()).cloned()));
            }
            match self.execute_one(op) {
                Ok(result) => results.push(result),
                Err(err) => {
                    while let Some((key, entry)) = replaced.pop() {
                        match entry {
                            Some(stored) => self.rows.insert(key.clone(), stored),
                            None => self.rows.remove(key),
                        };
                    }
                    self.next_etag = etag_before;
                    return Err(err);
                }
            }
        }
        Ok(results)
    }

    fn query_atomic(&self, filter: &Filter) -> Vec<StoredRow> {
        self.rows
            .values()
            .filter(|stored| filter.matches(&stored.row))
            .cloned()
            .collect()
    }

    fn query_first_at_or_after(&self, start: &str, filter: &Filter) -> Option<StoredRow> {
        self.find_from(start, |row| filter.matches(row)).cloned()
    }
}

/// The table as it was before rows were shared: every row owns its key and a
/// `String`-keyed property map, and a batch validates and applies every
/// operation on a scratch copy of the whole table, then swaps it in. Kept
/// only so the differential test below can require the shared-row table to
/// agree with it.
#[cfg(test)]
mod reference {
    use super::*;

    /// A row that owns its key and its property map.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(super) struct OwnedRow {
        key: String,
        properties: BTreeMap<String, Value>,
    }

    impl From<&Row> for OwnedRow {
        fn from(row: &Row) -> Self {
            OwnedRow {
                key: row.key.to_string(),
                properties: row
                    .properties
                    .iter()
                    .map(|(name, value)| (name.to_string(), value.clone()))
                    .collect(),
            }
        }
    }

    #[derive(Debug, Clone)]
    pub(super) struct Table {
        rows: BTreeMap<String, (OwnedRow, ETag)>,
        next_etag: u64,
    }

    impl Table {
        pub(super) fn with_etag_base(base: u64) -> Self {
            Table {
                rows: BTreeMap::new(),
                next_etag: base,
            }
        }

        /// Every stored row and its ETag, by key, and the ETag counter.
        pub(super) fn contents(&self) -> (Vec<(OwnedRow, ETag)>, u64) {
            (self.rows.values().cloned().collect(), self.next_etag)
        }

        fn validate(&self, op: &TableOperation) -> Result<(), TableError> {
            let key = op.key();
            let stored = self.rows.get(&**key);
            let condition = match op {
                TableOperation::Insert(_) if stored.is_some() => {
                    return Err(TableError::AlreadyExists(key.clone()))
                }
                TableOperation::Insert(_) | TableOperation::InsertOrReplace(_) => return Ok(()),
                TableOperation::Replace(_, condition)
                | TableOperation::Merge(_, condition)
                | TableOperation::Delete(_, condition) => *condition,
            };
            match (stored, condition) {
                (None, _) => Err(TableError::NotFound(key.clone())),
                (Some(_), ETagMatch::Any) => Ok(()),
                (Some((_, etag)), ETagMatch::Exact(expected)) if expected == *etag => Ok(()),
                (Some(_), ETagMatch::Exact(_)) => Err(TableError::ConditionFailed(key.clone())),
            }
        }

        fn apply(&mut self, op: &TableOperation) -> OpResult {
            let etag = match op {
                TableOperation::Insert(row)
                | TableOperation::InsertOrReplace(row)
                | TableOperation::Replace(row, _) => {
                    self.next_etag += 1;
                    let etag = ETag(self.next_etag);
                    let row = OwnedRow::from(row);
                    self.rows.insert(row.key.clone(), (row, etag));
                    Some(etag)
                }
                TableOperation::Merge(row, _) => {
                    self.next_etag += 1;
                    let etag = ETag(self.next_etag);
                    let entry = self
                        .rows
                        .get_mut(&*row.key)
                        .expect("validated: row exists for merge");
                    for (name, value) in row.properties.iter() {
                        entry.0.properties.insert(name.to_string(), value.clone());
                    }
                    entry.1 = etag;
                    Some(etag)
                }
                TableOperation::Delete(key, _) => {
                    self.rows.remove(&**key);
                    None
                }
            };
            OpResult {
                key: op.key().clone(),
                etag,
            }
        }

        pub(super) fn execute_batch(
            &mut self,
            ops: &[TableOperation],
        ) -> Result<Vec<OpResult>, TableError> {
            let mut scratch = self.clone();
            let mut results = Vec::with_capacity(ops.len());
            for op in ops {
                scratch.validate(op)?;
                results.push(scratch.apply(op));
            }
            *self = scratch;
            Ok(results)
        }
    }

    /// The shared-row table's contents in the owned form.
    pub(super) fn contents_of(table: &InMemoryTable) -> (Vec<(OwnedRow, ETag)>, u64) {
        let rows = table
            .query_atomic(&Filter::All)
            .iter()
            .map(|stored| (OwnedRow::from(&stored.row), stored.etag))
            .collect();
        (rows, table.next_etag)
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
        assert_eq!(&*result.key, "a");
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
            Err(TableError::AlreadyExists("a".into()))
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
            Err(TableError::ConditionFailed("a".into()))
        );
        assert_eq!(t.read("a").unwrap().row, row("a", 2));
    }

    #[test]
    fn replace_missing_row_fails() {
        let mut t = InMemoryTable::new();
        assert_eq!(
            t.execute(TableOperation::Replace(row("a", 1), ETagMatch::Any)),
            Err(TableError::NotFound("a".into()))
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
                "a".into(),
                ETagMatch::Exact(ETag(999))
            )),
            Err(TableError::ConditionFailed("a".into()))
        );
        assert!(t.read("a").is_some());
        t.execute(TableOperation::Delete("a".into(), ETagMatch::Any))
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
        let keys: Vec<&str> = all.iter().map(|s| &*s.row.key).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);

        let range = t.query_atomic(&Filter::KeyRange {
            from: "a".into(),
            to: "b".into(),
        });
        assert_eq!(range.len(), 2);

        let by_value = t.query_atomic(&Filter::PropertyEquals {
            name: "v",
            value: Value::Int(3),
        });
        assert_eq!(by_value.len(), 1);
        assert_eq!(&*by_value[0].row.key, "c");
    }

    #[test]
    fn query_first_at_or_after_respects_cursor_and_filter() {
        let mut t = InMemoryTable::new();
        for (k, v) in [("a", 1), ("b", 2), ("c", 1)] {
            t.execute(TableOperation::Insert(row(k, v))).unwrap();
        }
        assert_eq!(
            &*t.query_first_at_or_after("b", &Filter::All)
                .unwrap()
                .row
                .key,
            "b"
        );
        let filter = Filter::PropertyEquals {
            name: "v",
            value: Value::Int(1),
        };
        assert_eq!(
            &*t.query_first_at_or_after("b", &filter).unwrap().row.key,
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
            TableOperation::Delete("a".into(), ETagMatch::Any),
            TableOperation::Insert(row("b", 3)),
            TableOperation::Replace(row("c", 4), ETagMatch::Any), // fails: missing
        ];
        assert_eq!(
            t.execute_batch(&batch),
            Err(TableError::NotFound("c".into()))
        );
        assert_eq!(t.read("a").unwrap().row, row("a", 1));
        assert_eq!(t.read("a").unwrap().etag, ETag(11));
        assert!(t.read("b").is_none());
        let next = t.execute(TableOperation::Insert(row("b", 3))).unwrap();
        assert_eq!(next.etag, Some(ETag(12)), "the failed batch used no etag");
    }

    fn random_op(rng: &mut SplitMix64, etags: &[ETag]) -> TableOperation {
        let key = Key::from(format!("k{}", rng.next_below(4)));
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

    /// The shared-row batch agrees with the owned-row, clone-then-swap
    /// reference on results, errors, rows, ETags and the ETag counter after
    /// every batch of 1–4 operations, and a failed batch changes nothing,
    /// also when it fails part-way.
    #[test]
    fn in_place_batch_matches_clone_then_swap_reference() {
        let (mut failed, mut part_way) = (0, 0);
        for case in 0..200u64 {
            let mut rng = SplitMix64::new(0xBA7C4 ^ case);
            let mut table = InMemoryTable::with_etag_base(case);
            let mut reference = reference::Table::with_etag_base(case);
            let mut etags = Vec::new();
            for batch_no in 0..30 {
                let len = 1 + rng.next_below(4);
                let ops: Vec<TableOperation> =
                    (0..len).map(|_| random_op(&mut rng, &etags)).collect();
                let before = reference::contents_of(&table);
                let mut probe = table.clone();
                let applies = ops
                    .iter()
                    .take_while(|op| probe.execute_one(op).is_ok())
                    .count();
                let actual = table.execute_batch(&ops);
                let expected = reference.execute_batch(&ops);
                assert_eq!(actual, expected, "case {case} batch {batch_no}: {ops:?}");
                assert_eq!(
                    reference::contents_of(&table),
                    reference.contents(),
                    "case {case} batch {batch_no}: {ops:?}"
                );
                match actual {
                    Ok(results) => etags.extend(results.iter().filter_map(|r| r.etag)),
                    Err(_) => {
                        assert_eq!(
                            reference::contents_of(&table),
                            before,
                            "case {case} batch {batch_no}"
                        );
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
    fn merge_copies_the_bag_on_write() {
        let base = Properties::one("x", Value::Int(1));
        let merged = base.merged(&Properties::one("y", Value::Int(2)).with("x", Value::Int(3)));
        assert_eq!(format!("{base:?}"), r#"{"x": Int(1)}"#);
        assert_eq!(format!("{merged:?}"), r#"{"x": Int(3), "y": Int(2)}"#);
        assert_eq!(merged.get("y"), Some(&Value::Int(2)));
        assert_eq!(merged.get("z"), None);
        assert_eq!(format!("{:?}", Properties::empty()), "{}");
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
