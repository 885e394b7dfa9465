//! Property-style tests of the chain-table implementation and the migration
//! protocol's key invariant: migration never changes what the virtual table
//! contains.
//!
//! Written against the crate's own deterministic [`SplitMix64`] generator
//! instead of `proptest` (the build environment is hermetic); each failing
//! case names the seed that reproduces it.

use std::collections::BTreeMap;

use psharp::rng::SplitMix64;

use chaintable::migrate::{ChainBugs, MigratingStore, Phase};
use chaintable::spec::SpecModel;
use chaintable::table::{
    ChainTable, ChainTableExt, ETag, ETagMatch, Filter, InMemoryTable, Key, Row, TableOperation,
    Value,
};

fn gen_key(rng: &mut SplitMix64) -> Key {
    Key::from(format!("k{}", rng.next_below(6)))
}

fn gen_row(rng: &mut SplitMix64) -> Row {
    let key = gen_key(rng);
    let v = rng.next_below(5) as i64;
    Row::with_int(key, "v", v)
}

fn gen_op(rng: &mut SplitMix64) -> TableOperation {
    match rng.next_below(5) {
        0 => TableOperation::Insert(gen_row(rng)),
        1 => TableOperation::Replace(gen_row(rng), ETagMatch::Any),
        2 => TableOperation::Merge(gen_row(rng), ETagMatch::Any),
        3 => TableOperation::InsertOrReplace(gen_row(rng)),
        _ => TableOperation::Delete(gen_key(rng), ETagMatch::Any),
    }
}

fn gen_ops(rng: &mut SplitMix64, max: usize) -> Vec<TableOperation> {
    (0..rng.next_below(max.max(1)))
        .map(|_| gen_op(rng))
        .collect()
}

/// A trivial model of a table: key → value of the "v" property.
fn apply_to_model(model: &mut BTreeMap<String, i64>, op: &TableOperation) {
    let value_of = |row: &Row| match row.properties.get("v") {
        Some(Value::Int(v)) => *v,
        _ => 0,
    };
    match op {
        TableOperation::Insert(row) => {
            model
                .entry(row.key.to_string())
                .or_insert_with(|| value_of(row));
        }
        TableOperation::Replace(row, _) | TableOperation::Merge(row, _) => {
            if model.contains_key(&*row.key) {
                model.insert(row.key.to_string(), value_of(row));
            }
        }
        TableOperation::InsertOrReplace(row) => {
            model.insert(row.key.to_string(), value_of(row));
        }
        TableOperation::Delete(key, _) => {
            model.remove(&**key);
        }
    }
}

/// The in-memory table agrees with a simple map model under arbitrary
/// unconditional operation sequences.
#[test]
fn in_memory_table_matches_map_model() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::new(0x7AB1E ^ case);
        let ops = gen_ops(&mut rng, 60);
        let mut table = InMemoryTable::new();
        let mut model: BTreeMap<String, i64> = BTreeMap::new();
        for op in &ops {
            let _ = table.execute(op.clone());
            apply_to_model(&mut model, op);
        }
        let rows = table.query_atomic(&Filter::All);
        assert_eq!(rows.len(), model.len(), "case {case}");
        for stored in rows {
            let expected = model.get(&*stored.row.key).copied();
            let actual = match stored.row.properties.get("v") {
                Some(Value::Int(v)) => Some(*v),
                _ => Some(0),
            };
            assert_eq!(actual, expected, "case {case}");
        }
    }
}

/// Query results are always sorted by key and respect the key-range filter.
#[test]
fn queries_are_sorted_and_filtered() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::new(0xF117E4 ^ case);
        let ops = gen_ops(&mut rng, 40);
        let mut table = InMemoryTable::new();
        for op in &ops {
            let _ = table.execute(op.clone());
        }
        let a = rng.next_below(6) as u8;
        let b = rng.next_below(6) as u8;
        let (from, to) = (a.min(b), a.max(b));
        let filter = Filter::KeyRange {
            from: format!("k{from}").into(),
            to: format!("k{to}").into(),
        };
        let rows = table.query_atomic(&filter);
        for pair in rows.windows(2) {
            assert!(pair[0].row.key < pair[1].row.key, "case {case}");
        }
        for stored in &rows {
            assert!(filter.matches(&stored.row), "case {case}");
        }
    }
}

/// A full (fixed) migration pass never changes the virtual table: whatever
/// rows were written before the migration are still exactly the rows visible
/// after it, with the old table drained.
#[test]
fn migration_preserves_the_virtual_table() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::new(0x416C4 ^ case);
        let ops = gen_ops(&mut rng, 40);
        let delete_after_copy = rng.next_bool();
        let mut store = MigratingStore::new(ChainBugs::none());
        for op in &ops {
            let _ = store.execute_write(op);
        }
        let before = store.virtual_snapshot(&Filter::All);

        // Run the migrator's plan to completion, phase by phase.
        store.set_phase(Phase::PreferOld);
        store.set_phase(Phase::UseNewWithTombstones);
        let mut cursor = String::new();
        while let Some(copied) = store.migrator_copy_next(&cursor, delete_after_copy) {
            cursor = format!("{copied}\u{0}");
        }
        store.set_phase(Phase::UseNewHideTombstones);
        while store.migrator_clean_tombstone() {}
        store.set_phase(Phase::UseNew);

        let after = store.virtual_snapshot(&Filter::All);
        assert_eq!(before, after, "case {case}");
    }
}

/// Conditional writes against the virtual table enforce ETag semantics in
/// every phase: a stale tag is rejected, the stored row is untouched.
#[test]
fn stale_etags_are_rejected_in_every_phase() {
    let phases = [
        Phase::UseOld,
        Phase::PreferOld,
        Phase::UseNewWithTombstones,
        Phase::UseNewHideTombstones,
        Phase::UseNew,
    ];
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xE7A6 ^ case);
        let value = rng.next_below(5) as i64;
        let phase = phases[rng.next_below(phases.len())];
        let mut store = MigratingStore::new(ChainBugs::none());
        let first = store
            .execute_write(&TableOperation::Insert(Row::with_int("k0", "v", value)))
            .expect("insert succeeds");
        let current = store
            .execute_write(&TableOperation::Replace(
                Row::with_int("k0", "v", value + 1),
                ETagMatch::Any,
            ))
            .expect("replace succeeds");
        store.set_phase(phase);
        if phase == Phase::UseNewWithTombstones {
            // In the merge phase the row may live in either backend (here it
            // still lives in the old table); the stale tag from the very
            // first write must still be rejected.
            let result = store.execute_write(&TableOperation::Replace(
                Row::with_int("k0", "v", 99),
                ETagMatch::Exact(first.etag.expect("insert returned an etag")),
            ));
            assert!(result.is_err(), "case {case}");
            let visible = store.virtual_read("k0").expect("row still present");
            assert_eq!(Some(visible.etag), current.etag, "case {case}");
        }
    }
}

/// A row's key and properties as owned strings, taken when a shared row is
/// first held, to check it against later.
type OwnedRow = (String, Vec<(String, Value)>);

fn owned(row: &Row) -> OwnedRow {
    let properties = row
        .properties
        .iter()
        .map(|(name, value)| (name.to_string(), value.clone()))
        .collect();
    (row.key.to_string(), properties)
}

/// One row somebody holds: where it came from, the shared row, its ETag
/// (`None` for the spec model's copy) and its contents when it was taken.
struct Held {
    source: &'static str,
    row: Row,
    etag: Option<ETag>,
    taken: (OwnedRow, Option<ETag>),
}

impl Held {
    fn new(source: &'static str, row: Row, etag: Option<ETag>) -> Self {
        let taken = (owned(&row), etag);
        Held {
            source,
            row,
            etag,
            taken,
        }
    }
}

/// A write of `key`: a `Merge` (of a second property, so the merged bag
/// differs from every held one), a `Replace`, an `InsertOrReplace` or a
/// `Delete`, unconditional so the spec model expects what the table does.
fn gen_write(rng: &mut SplitMix64, key: Key) -> TableOperation {
    let v = rng.next_below(5) as i64;
    match rng.next_below(4) {
        0 => TableOperation::Merge(Row::with_int(key, "w", v), ETagMatch::Any),
        1 => TableOperation::Replace(Row::with_int(key, "v", v), ETagMatch::Any),
        2 => TableOperation::InsertOrReplace(Row::with_int(key, "v", v)),
        _ => TableOperation::Delete(key, ETagMatch::Any),
    }
}

/// Rows are shared values, not views of the table: a row held from
/// `read`, `query_first_at_or_after`, `query_atomic` or the spec model keeps
/// its key, properties and ETag after later writes of the same key, and
/// after a failed batch that undid its applied prefix.
#[test]
fn held_rows_keep_their_values_across_later_writes() {
    let (mut merges, mut undone) = (0, 0);
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x5AA7ED ^ case);
        let mut table = InMemoryTable::new();
        let mut model = SpecModel::new();
        let mut held: Vec<Held> = Vec::new();
        for step in 0..40 {
            let key = gen_key(&mut rng);
            if let Some(stored) = table.read(&key) {
                held.push(Held::new("read", stored.row, Some(stored.etag)));
            }
            if let Some(stored) = table.query_first_at_or_after(&key, &Filter::All) {
                held.push(Held::new("query_first", stored.row, Some(stored.etag)));
            }
            if let Some(stored) = table.query_atomic(&Filter::All).into_iter().next() {
                held.push(Held::new("query_atomic", stored.row, Some(stored.etag)));
            }
            if let Some(row) = model.row(&key) {
                held.push(Held::new("spec model", row.clone(), None));
            }

            if rng.next_below(4) == 0 {
                // A batch whose last operation fails: the prefix is applied
                // and then undone.
                let mut ops: Vec<TableOperation> = (0..1 + rng.next_below(3))
                    .map(|_| gen_write(&mut rng, key.clone()))
                    .collect();
                ops.push(TableOperation::Replace(
                    Row::with_int("absent", "v", 0),
                    ETagMatch::Any,
                ));
                let before = table.query_atomic(&Filter::All);
                let mut probe = table.clone();
                let prefix_applies = ops[..ops.len() - 1]
                    .iter()
                    .all(|op| probe.execute_one(op).is_ok());
                assert!(
                    table.execute_batch(&ops).is_err(),
                    "case {case} step {step}"
                );
                assert_eq!(table.query_atomic(&Filter::All), before, "case {case}");
                undone += usize::from(prefix_applies);
            } else {
                let op = gen_write(&mut rng, key.clone());
                merges += usize::from(matches!(op, TableOperation::Merge(..)));
                let outcome = table.execute_one(&op);
                let violation = model.record_write(&op, &outcome);
                assert_eq!(violation, None, "case {case} step {step}: {op:?}");
            }

            for h in &held {
                assert_eq!(
                    (owned(&h.row), h.etag),
                    h.taken,
                    "case {case} step {step}: a row held from {} changed",
                    h.source
                );
            }
        }
    }
    assert!(
        merges > 200 && undone > 100,
        "{merges} merges, {undone} undone prefixes"
    );
}
