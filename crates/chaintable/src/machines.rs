//! The P# test harness machines for the MigratingTable case study
//! (Figure 12 of the paper): the Tables machine that owns and serializes the
//! backend tables, the Service machines that issue random logical operations
//! through the migration protocol, the Migrator machine that moves the data
//! in the background, and the spec-compliance safety monitor.
//!
//! Rows cross machine boundaries shared, never copied: a row a service
//! draws, the Tables machine stores, a query returns and the monitor records
//! is the same immutable value. A stream's cursor buffer travels inside its
//! request and comes back in the response, so the requester never copies it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use psharp::prelude::*;

use crate::migrate::{is_tombstone, merge_atomic, Backend, ChainBugs, MigratingStore, Phase};
use crate::spec::{SpecModel, VersionSnapshot};
use crate::table::{
    ETag, ETagMatch, Filter, Key, OpResult, Properties, Row, StoredRow, TableError, TableOperation,
    Value,
};

/// Identifier of one logical query, unique within an execution.
pub type QueryId = (u64, u64);

/// Number of values of property `v` a service writes and filters on: `0`,
/// `1` and `2`.
pub const WRITE_VALUES: usize = 3;

/// The keys and `v` property bags a harness's rows are drawn from, built
/// once per harness. A drawn row shares them (two reference-count
/// increments) instead of formatting a key and building a bag.
#[derive(Debug, Clone)]
pub struct RowPool {
    keys: Arc<[Key]>,
    values: Arc<[Properties]>,
}

impl RowPool {
    /// Keys `k0`, `k1`, … for `key_space` keys (at least one), and a bag
    /// `{"v": n}` for every `n` below `values`.
    pub fn new(key_space: usize, values: usize) -> Self {
        let mut name = String::new();
        RowPool {
            keys: (0..key_space.max(1))
                .map(|index| {
                    name.clear();
                    write!(name, "k{index}").expect("writing to a String cannot fail");
                    Key::from(name.as_str())
                })
                .collect(),
            values: (0..values)
                .map(|v| Properties::one("v", Value::Int(v as i64)))
                .collect(),
        }
    }

    /// Number of keys.
    pub fn key_space(&self) -> usize {
        self.keys.len()
    }

    /// Key number `index`.
    pub fn key(&self, index: usize) -> &Key {
        &self.keys[index]
    }

    /// The row of key number `index` whose property `v` is `value`.
    pub fn row(&self, index: usize, value: usize) -> Row {
        Row {
            key: self.keys[index].clone(),
            properties: self.values[value].clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A logical virtual-table write, executed atomically by the Tables machine.
#[derive(Debug, Clone)]
pub struct WriteRequest {
    /// The machine to reply to.
    pub from: MachineId,
    /// The logical operation.
    pub op: TableOperation,
}

/// Reply to a [`WriteRequest`].
#[derive(Debug, Clone)]
pub struct WriteResponse {
    /// The outcome of the write.
    pub outcome: Result<OpResult, TableError>,
}

/// A snapshot read of one backend table.
#[derive(Debug, Clone)]
pub struct ReadAtomicRequest {
    /// The machine to reply to.
    pub from: MachineId,
    /// Which backend to read.
    pub backend: Backend,
    /// The filter pushed down to the backend; it comes back in the response.
    pub filter: Filter,
}

/// Reply to a [`ReadAtomicRequest`].
#[derive(Debug, Clone)]
pub struct ReadAtomicResponse {
    /// The backend that was read.
    pub backend: Backend,
    /// The matching rows.
    pub rows: Vec<StoredRow>,
    /// The migration phase at the time of the read.
    pub phase: Phase,
    /// The request's filter, handed back.
    pub filter: Filter,
}

/// A single-row streaming read of one backend table.
#[derive(Debug, Clone)]
pub struct ReadNextRequest {
    /// The machine to reply to.
    pub from: MachineId,
    /// Which backend to read.
    pub backend: Backend,
    /// The stream cursor: the first key (inclusive) still of interest. The
    /// buffer comes back in the response.
    pub cursor: String,
    /// The filter pushed down to the backend.
    pub filter: Filter,
}

/// Reply to a [`ReadNextRequest`].
#[derive(Debug, Clone)]
pub struct ReadNextResponse {
    /// The backend that was read.
    pub backend: Backend,
    /// The first matching row at or after the cursor, if any.
    pub row: Option<StoredRow>,
    /// The migration phase at the time of the read.
    pub phase: Phase,
    /// The request's cursor, handed back.
    pub cursor: String,
}

/// A background-migration step, executed by the Tables machine.
#[derive(Debug, Clone)]
pub struct MigratorRequest {
    /// The machine to reply to.
    pub from: MachineId,
    /// The step to perform.
    pub action: MigratorAction,
    /// The migrator's incarnation epoch (bumped on every crash-restart).
    /// Echoed in the response so a recovered migrator can discard responses
    /// to requests issued by its previous incarnation — without this, a
    /// stale `SetPhase` response arriving after a restart would be
    /// misattributed to the re-issued step.
    pub epoch: u64,
}

/// The migration steps the migrator can ask for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigratorAction {
    /// Advance the migration phase.
    SetPhase(Phase),
    /// Advance the migration phase unless the new table already contains
    /// rows (the seeded `EnsurePartitionSwitchedFromPopulated` defect skips
    /// the switch in that case).
    SetPhaseUnlessPopulated(Phase),
    /// Copy the next old-table row at or after `cursor` into the new table.
    CopyNext {
        /// Resume position of the copy pass; the buffer comes back in the
        /// response.
        cursor: String,
        /// Whether the old-table row is deleted after copying.
        delete_after_copy: bool,
    },
    /// Remove one tombstone (and its shadowed old row) from the tables.
    CleanTombstone,
}

/// Reply to a [`MigratorRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigratorResponse {
    /// For copy steps: the key that was copied, or `None` when the pass is
    /// complete. For cleanup steps: `None` when no tombstones remain.
    pub copied_key: Option<Key>,
    /// For cleanup steps: whether a tombstone was removed.
    pub progressed: bool,
    /// The requesting incarnation's epoch, echoed back.
    pub epoch: u64,
    /// For copy steps: the request's cursor, handed back (empty otherwise).
    pub cursor: String,
}

/// Monitor notification: a logical write executed (its linearization point).
#[derive(Debug, Clone)]
pub struct NotifyWrite {
    /// The logical operation.
    pub op: TableOperation,
    /// The outcome the system produced.
    pub outcome: Result<OpResult, TableError>,
}

/// Monitor notification: a logical query started.
#[derive(Debug, Clone)]
pub struct NotifyQueryStart {
    /// The query's identifier.
    pub qid: QueryId,
}

/// Monitor notification: a logical query completed with these rows.
#[derive(Debug, Clone)]
pub struct NotifyQueryResult {
    /// The query's identifier.
    pub qid: QueryId,
    /// The filter the client asked for.
    pub filter: Filter,
    /// The virtual-table rows the client obtained.
    pub rows: Vec<Row>,
}

// ---------------------------------------------------------------------------
// Tables machine
// ---------------------------------------------------------------------------

/// Owns the backend tables (and the migration phase) and serializes every
/// backend operation, mirroring the paper's Tables machine.
#[derive(Clone)]
pub struct TablesMachine {
    store: MigratingStore,
}

impl TablesMachine {
    /// Creates the machine around a pre-loaded store.
    pub fn new(store: MigratingStore) -> Self {
        TablesMachine { store }
    }

    /// Read access to the store (for tests and examples).
    pub fn store(&self) -> &MigratingStore {
        &self.store
    }
}

impl TablesMachine {
    fn write(&mut self, ctx: &mut Context<'_>, WriteRequest { from, op }: WriteRequest) {
        let outcome = self.store.execute_write(&op);
        ctx.notify_monitor::<SpecMonitor>(Event::new(NotifyWrite {
            op,
            outcome: outcome.clone(),
        }));
        ctx.send(from, Event::new(WriteResponse { outcome }));
    }

    fn read_atomic(&mut self, ctx: &mut Context<'_>, req: ReadAtomicRequest) {
        let rows = self.store.backend_query_atomic(req.backend, &req.filter);
        ctx.send(
            req.from,
            Event::new(ReadAtomicResponse {
                backend: req.backend,
                rows,
                phase: self.store.phase(),
                filter: req.filter,
            }),
        );
    }

    fn read_next(&mut self, ctx: &mut Context<'_>, req: ReadNextRequest) {
        let row = self
            .store
            .backend_first_at_or_after(req.backend, &req.cursor, &req.filter);
        ctx.send(
            req.from,
            Event::new(ReadNextResponse {
                backend: req.backend,
                row,
                phase: self.store.phase(),
                cursor: req.cursor,
            }),
        );
    }

    fn migrate(&mut self, ctx: &mut Context<'_>, req: MigratorRequest) {
        let epoch = req.epoch;
        let response = match req.action {
            MigratorAction::SetPhase(phase) => {
                self.store.set_phase(phase);
                MigratorResponse {
                    copied_key: None,
                    progressed: true,
                    epoch,
                    cursor: String::new(),
                }
            }
            MigratorAction::SetPhaseUnlessPopulated(phase) => {
                let populated = !self.store.new.is_empty();
                if !populated {
                    self.store.set_phase(phase);
                }
                MigratorResponse {
                    copied_key: None,
                    progressed: !populated,
                    epoch,
                    cursor: String::new(),
                }
            }
            MigratorAction::CopyNext {
                cursor,
                delete_after_copy,
            } => {
                let copied = self.store.migrator_copy_next(&cursor, delete_after_copy);
                MigratorResponse {
                    progressed: copied.is_some(),
                    copied_key: copied,
                    epoch,
                    cursor,
                }
            }
            MigratorAction::CleanTombstone => {
                let progressed = self.store.migrator_clean_tombstone();
                MigratorResponse {
                    copied_key: None,
                    progressed,
                    epoch,
                    cursor: String::new(),
                }
            }
        };
        ctx.send(req.from, Event::new(response));
    }
}

impl Machine for TablesMachine {
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        // Each request is taken by value, so what it carries (the write's
        // rows, a cursor, a filter) moves on instead of being copied.
        let event = match event.downcast::<WriteRequest>() {
            Ok(req) => return self.write(ctx, req),
            Err(event) => event,
        };
        let event = match event.downcast::<ReadNextRequest>() {
            Ok(req) => return self.read_next(ctx, req),
            Err(event) => event,
        };
        let event = match event.downcast::<ReadAtomicRequest>() {
            Ok(req) => return self.read_atomic(ctx, req),
            Err(event) => event,
        };
        if let Ok(req) = event.downcast::<MigratorRequest>() {
            self.migrate(ctx, req);
        }
    }

    fn name(&self) -> &str {
        "TablesMachine"
    }

    psharp::impl_machine_snapshot!();
}

// ---------------------------------------------------------------------------
// Spec monitor
// ---------------------------------------------------------------------------

/// Safety monitor comparing the system against the reference model (§4 of the
/// paper: "issued the same operations … to a reference table … and compared
/// the output").
#[derive(Clone, Default)]
pub struct SpecMonitor {
    model: SpecModel,
    open_queries: BTreeMap<QueryId, VersionSnapshot>,
    writes_checked: usize,
    queries_checked: usize,
}

impl SpecMonitor {
    /// Creates a monitor whose model starts with the given pre-seeded rows.
    pub fn new(model: SpecModel) -> Self {
        SpecMonitor {
            model,
            open_queries: BTreeMap::new(),
            writes_checked: 0,
            queries_checked: 0,
        }
    }

    /// Number of writes validated so far (exposed for tests).
    pub fn writes_checked(&self) -> usize {
        self.writes_checked
    }

    /// Number of queries validated so far (exposed for tests).
    pub fn queries_checked(&self) -> usize {
        self.queries_checked
    }

    /// Read access to the reference model (exposed for tests).
    pub fn model(&self) -> &SpecModel {
        &self.model
    }
}

impl Monitor for SpecMonitor {
    fn observe(&mut self, ctx: &mut MonitorContext<'_>, event: &Event) {
        if let Some(write) = event.downcast_ref::<NotifyWrite>() {
            self.writes_checked += 1;
            if let Some(violation) = self.model.record_write(&write.op, &write.outcome) {
                ctx.report_violation(violation);
            }
        } else if let Some(start) = event.downcast_ref::<NotifyQueryStart>() {
            self.open_queries
                .insert(start.qid, self.model.version_snapshot());
        } else if let Some(result) = event.downcast_ref::<NotifyQueryResult>() {
            self.queries_checked += 1;
            if let Some(started) = self.open_queries.remove(&result.qid) {
                if let Some(violation) =
                    self.model
                        .check_query(&started, &result.filter, &result.rows)
                {
                    ctx.report_violation(violation);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "SpecMonitor"
    }

    fn clone_state(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }
}

// ---------------------------------------------------------------------------
// Service machine
// ---------------------------------------------------------------------------

/// One in-flight logical operation of a service.
#[derive(Clone)]
enum OpState {
    Idle,
    AwaitingWrite,
    /// Waiting for the old-table snapshot (read first: the migration only
    /// moves rows old → new, so reading the source before the destination
    /// guarantees a row in flight is seen on at least one side).
    /// The filter pushed down to the backends is in the request.
    AtomicAwaitOld {
        filter: Filter,
        qid: QueryId,
    },
    /// Waiting for the new-table snapshot.
    AtomicAwaitNew {
        filter: Filter,
        qid: QueryId,
        old_rows: Vec<StoredRow>,
    },
    StreamFetchNew(StreamState),
    StreamFetchOld(StreamState, Option<StoredRow>),
    StreamRecheckNew(StreamState, Option<StoredRow>),
}

#[derive(Clone)]
struct StreamState {
    filter: Filter,
    fetch_filter: Filter,
    qid: QueryId,
    /// Empty while a fetch is in flight: the buffer travels with it.
    cursor: String,
    collected: Vec<Row>,
    phase_at_start: Option<Phase>,
}

/// A modeled application process: issues a P#-controlled random sequence of
/// logical operations through the migration protocol and reports results to
/// the [`SpecMonitor`].
#[derive(Clone)]
pub struct ServiceMachine {
    tables: MachineId,
    bugs: ChainBugs,
    ops_remaining: usize,
    pool: RowPool,
    last_etags: BTreeMap<Key, ETag>,
    next_query_seq: u64,
    state: OpState,
    completed_ops: usize,
}

impl ServiceMachine {
    /// Creates a service that will issue `ops` logical operations on rows
    /// drawn from `pool`.
    pub fn new(tables: MachineId, bugs: ChainBugs, ops: usize, pool: RowPool) -> Self {
        ServiceMachine {
            tables,
            bugs,
            ops_remaining: ops,
            pool,
            last_etags: BTreeMap::new(),
            next_query_seq: 0,
            state: OpState::Idle,
            completed_ops: 0,
        }
    }

    /// Number of logical operations completed (exposed for tests).
    pub fn completed_ops(&self) -> usize {
        self.completed_ops
    }

    fn random_key(&self, ctx: &mut Context<'_>) -> Key {
        self.pool
            .key(ctx.random_index(self.pool.key_space()))
            .clone()
    }

    fn random_row(&self, ctx: &mut Context<'_>) -> Row {
        let index = ctx.random_index(self.pool.key_space());
        let value = ctx.random_index(WRITE_VALUES);
        self.pool.row(index, value)
    }

    fn random_condition(&self, ctx: &mut Context<'_>, key: &str) -> ETagMatch {
        match self.last_etags.get(key) {
            Some(&etag) if ctx.random_bool() => ETagMatch::Exact(etag),
            _ => ETagMatch::Any,
        }
    }

    fn random_filter(&self, ctx: &mut Context<'_>) -> Filter {
        if ctx.random_bool() {
            Filter::All
        } else {
            Filter::PropertyEquals {
                name: "v",
                value: Value::Int(ctx.random_index(WRITE_VALUES) as i64),
            }
        }
    }

    fn next_qid(&mut self, ctx: &Context<'_>) -> QueryId {
        let qid = (ctx.id().raw(), self.next_query_seq);
        self.next_query_seq += 1;
        qid
    }

    fn start_next_op(&mut self, ctx: &mut Context<'_>) {
        if self.ops_remaining == 0 {
            ctx.halt();
            return;
        }
        self.ops_remaining -= 1;
        match ctx.random_index(6) {
            0 => self.start_write(ctx, |this, ctx| {
                TableOperation::Insert(this.random_row(ctx))
            }),
            1 => self.start_write(ctx, |this, ctx| {
                let row = this.random_row(ctx);
                let condition = this.random_condition(ctx, &row.key);
                TableOperation::Replace(row, condition)
            }),
            2 => self.start_write(ctx, |this, ctx| {
                let key = this.random_key(ctx);
                let condition = this.random_condition(ctx, &key);
                TableOperation::Delete(key, condition)
            }),
            3 => self.start_write(ctx, |this, ctx| {
                TableOperation::InsertOrReplace(this.random_row(ctx))
            }),
            4 => self.start_query_atomic(ctx),
            _ => self.start_query_streamed(ctx),
        }
    }

    fn start_write(
        &mut self,
        ctx: &mut Context<'_>,
        make: impl Fn(&Self, &mut Context<'_>) -> TableOperation,
    ) {
        let op = make(self, ctx);
        let from = ctx.id();
        ctx.send(self.tables, Event::new(WriteRequest { from, op }));
        self.state = OpState::AwaitingWrite;
    }

    fn start_query_atomic(&mut self, ctx: &mut Context<'_>) {
        let filter = self.random_filter(ctx);
        let fetch_filter = if self.bugs.query_atomic_filter_shadowing {
            // BUG: the filter is pushed down to both backends, so rows that
            // shadow filtered-out rows are never fetched.
            filter.clone()
        } else {
            Filter::All
        };
        let qid = self.next_qid(ctx);
        ctx.notify_monitor::<SpecMonitor>(Event::new(NotifyQueryStart { qid }));
        let from = ctx.id();
        ctx.send(
            self.tables,
            Event::new(ReadAtomicRequest {
                from,
                backend: Backend::Old,
                filter: fetch_filter,
            }),
        );
        self.state = OpState::AtomicAwaitOld { filter, qid };
    }

    fn start_query_streamed(&mut self, ctx: &mut Context<'_>) {
        let filter = self.random_filter(ctx);
        let fetch_filter = if self.bugs.query_streamed_filter_shadowing {
            filter.clone()
        } else {
            Filter::All
        };
        let qid = self.next_qid(ctx);
        ctx.notify_monitor::<SpecMonitor>(Event::new(NotifyQueryStart { qid }));
        let mut stream = StreamState {
            filter,
            fetch_filter,
            qid,
            cursor: String::new(),
            collected: Vec::new(),
            phase_at_start: None,
        };
        self.send_stream_fetch(ctx, Backend::New, &mut stream);
        self.state = OpState::StreamFetchNew(stream);
    }

    /// Sends the stream's next fetch; the cursor buffer goes with it.
    fn send_stream_fetch(&self, ctx: &mut Context<'_>, backend: Backend, stream: &mut StreamState) {
        let from = ctx.id();
        ctx.send(
            self.tables,
            Event::new(ReadNextRequest {
                from,
                backend,
                cursor: std::mem::take(&mut stream.cursor),
                filter: stream.fetch_filter.clone(),
            }),
        );
    }

    fn finish_op(&mut self, ctx: &mut Context<'_>) {
        self.completed_ops += 1;
        self.state = OpState::Idle;
        self.start_next_op(ctx);
    }

    fn complete_query(
        &mut self,
        ctx: &mut Context<'_>,
        qid: QueryId,
        filter: Filter,
        rows: Vec<Row>,
    ) {
        ctx.notify_monitor::<SpecMonitor>(Event::new(NotifyQueryResult { qid, filter, rows }));
        self.finish_op(ctx);
    }

    fn finish_atomic(
        &mut self,
        ctx: &mut Context<'_>,
        filter: Filter,
        qid: QueryId,
        new_rows: Vec<StoredRow>,
        old_rows: Vec<StoredRow>,
        phase: Phase,
    ) {
        let mut merged = merge_atomic(phase, old_rows, new_rows);
        if !self.bugs.query_atomic_filter_shadowing {
            // Fixed behaviour: fetch everything, merge, then filter.
            merged.retain(|row| filter.matches(row));
        }
        self.complete_query(ctx, qid, filter, merged);
    }

    /// Decides what the merged stream emits next, advances the cursor and
    /// either continues the stream or completes the query.
    fn finish_stream_step(
        &mut self,
        ctx: &mut Context<'_>,
        mut stream: StreamState,
        new_next: Option<StoredRow>,
        old_next: Option<StoredRow>,
        latest_phase: Phase,
    ) {
        let phase_used = if self.bugs.query_streamed_lock {
            // BUG: keep using the phase observed when the stream started.
            stream.phase_at_start.unwrap_or(latest_phase)
        } else {
            latest_phase
        };
        let old_candidate = old_next.filter(|_| phase_used.reads_old());
        let new_candidate = new_next.filter(|_| phase_used.reads_new());

        let picked: Option<(StoredRow, bool)> = match (old_candidate, new_candidate) {
            (None, None) => None,
            (Some(old), None) => Some((old, false)),
            (None, Some(new)) => Some((new, true)),
            (Some(old), Some(new)) => {
                if old.row.key < new.row.key {
                    Some((old, false))
                } else if new.row.key < old.row.key {
                    Some((new, true))
                } else if phase_used.old_wins() {
                    Some((old, false))
                } else {
                    Some((new, true))
                }
            }
        };

        match picked {
            None => {
                let StreamState {
                    filter,
                    qid,
                    collected,
                    ..
                } = stream;
                self.complete_query(ctx, qid, filter, collected);
            }
            Some((stored, from_new)) => {
                // The cursor moves just past the emitted key; its buffer is
                // reused for the whole stream.
                stream.cursor.clear();
                stream.cursor.push_str(&stored.row.key);
                stream.cursor.push('\u{0}');
                // Tombstones are never emitted; non-matching rows are skipped
                // (the fixed path fetches unfiltered rows and filters here).
                let emit =
                    !(from_new && is_tombstone(&stored.row)) && stream.filter.matches(&stored.row);
                if emit {
                    stream.collected.push(stored.row);
                }
                self.send_stream_fetch(ctx, Backend::New, &mut stream);
                self.state = OpState::StreamFetchNew(stream);
            }
        }
    }
}

impl Machine for ServiceMachine {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.start_next_op(ctx);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        let state = std::mem::replace(&mut self.state, OpState::Idle);
        match state {
            OpState::Idle => {
                // Unexpected event while idle (e.g. a stale response after the
                // workload finished); ignore it.
            }
            OpState::AwaitingWrite => {
                if let Ok(response) = event.downcast::<WriteResponse>() {
                    if let Ok(result) = response.outcome {
                        match (result.etag, self.last_etags.get_mut(&result.key)) {
                            (Some(etag), Some(last)) => *last = etag,
                            (Some(etag), None) => {
                                self.last_etags.insert(result.key, etag);
                            }
                            (None, _) => {
                                self.last_etags.remove(&result.key);
                            }
                        }
                    }
                    self.finish_op(ctx);
                } else {
                    self.state = OpState::AwaitingWrite;
                }
            }
            OpState::AtomicAwaitOld { filter, qid } => {
                if let Ok(response) = event.downcast::<ReadAtomicResponse>() {
                    let from = ctx.id();
                    ctx.send(
                        self.tables,
                        Event::new(ReadAtomicRequest {
                            from,
                            backend: Backend::New,
                            filter: response.filter,
                        }),
                    );
                    self.state = OpState::AtomicAwaitNew {
                        filter,
                        qid,
                        old_rows: response.rows,
                    };
                } else {
                    self.state = OpState::AtomicAwaitOld { filter, qid };
                }
            }
            OpState::AtomicAwaitNew {
                filter,
                qid,
                old_rows,
            } => {
                if let Ok(response) = event.downcast::<ReadAtomicResponse>() {
                    self.finish_atomic(ctx, filter, qid, response.rows, old_rows, response.phase);
                } else {
                    self.state = OpState::AtomicAwaitNew {
                        filter,
                        qid,
                        old_rows,
                    };
                }
            }
            OpState::StreamFetchNew(mut stream) => {
                if let Ok(response) = event.downcast::<ReadNextResponse>() {
                    stream.cursor = response.cursor;
                    if stream.phase_at_start.is_none() {
                        stream.phase_at_start = Some(response.phase);
                    }
                    self.send_stream_fetch(ctx, Backend::Old, &mut stream);
                    self.state = OpState::StreamFetchOld(stream, response.row);
                } else {
                    self.state = OpState::StreamFetchNew(stream);
                }
            }
            OpState::StreamFetchOld(mut stream, new_next) => {
                if let Ok(response) = event.downcast::<ReadNextResponse>() {
                    stream.cursor = response.cursor;
                    let old_next = response.row;
                    let phase = response.phase;
                    if self.bugs.query_streamed_back_up_new_stream {
                        // BUG: trust the possibly-stale new-table row fetched
                        // before the old-table read.
                        self.finish_stream_step(ctx, stream, new_next, old_next, phase);
                    } else {
                        // Fixed: re-read the new table ("back up the new
                        // stream") so rows copied in the meantime are seen.
                        self.send_stream_fetch(ctx, Backend::New, &mut stream);
                        self.state = OpState::StreamRecheckNew(stream, old_next);
                    }
                } else {
                    self.state = OpState::StreamFetchOld(stream, new_next);
                }
            }
            OpState::StreamRecheckNew(mut stream, old_next) => {
                if let Ok(response) = event.downcast::<ReadNextResponse>() {
                    stream.cursor = response.cursor;
                    self.finish_stream_step(ctx, stream, response.row, old_next, response.phase);
                } else {
                    self.state = OpState::StreamRecheckNew(stream, old_next);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "ServiceMachine"
    }

    psharp::impl_machine_snapshot!();
}

// ---------------------------------------------------------------------------
// Migrator machine
// ---------------------------------------------------------------------------

/// One step of the migrator's plan.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MigrationStep {
    SetPhase(Phase),
    SetPhaseUnlessPopulated(Phase),
    CopyPass,
    CleanPass,
}

/// The background migrator job (the paper's Migrator machine).
///
/// The migrator is the crate's crashable/restartable component: the harness
/// marks it `restartable`, so under a fault budget the core scheduler may
/// crash it mid-plan (losing the in-flight `MigratorResponse` with its
/// mailbox) and later restart it. The fixed recovery path re-issues the
/// current plan step from the beginning of its pass — every step is
/// idempotent (phase announcements repeat, copies are insert-if-absent) — so
/// migration completes correctly after any crash. The seeded
/// `restart_skips_in_flight_step` defect recovers optimistically instead.
#[derive(Clone)]
pub struct MigratorMachine {
    tables: MachineId,
    bugs: ChainBugs,
    plan: Vec<MigrationStep>,
    step: usize,
    /// The copy pass's resume position. Empty while a copy request is in
    /// flight: the buffer travels with it and comes back in the response.
    copy_cursor: String,
    delete_after_copy: bool,
    finished: bool,
    restarts: usize,
    /// Incarnation epoch: bumped on every crash-restart and carried on every
    /// request, so responses addressed to a previous incarnation are ignored.
    epoch: u64,
}

impl MigratorMachine {
    /// Creates a migrator whose plan reflects the seeded bug flags.
    pub fn new(tables: MachineId, bugs: ChainBugs, delete_after_copy: bool) -> Self {
        let plan = if bugs.migrate_skip_prefer_old {
            // BUG: copying (and deleting from the old table) starts while the
            // clients are still in the prefer-old phase, so their deletes do
            // not leave tombstones and can be resurrected by the copy.
            vec![
                MigrationStep::SetPhase(Phase::PreferOld),
                MigrationStep::CopyPass,
                MigrationStep::SetPhase(Phase::UseNewWithTombstones),
                MigrationStep::SetPhase(Phase::UseNewHideTombstones),
                MigrationStep::CleanPass,
                MigrationStep::SetPhase(Phase::UseNew),
            ]
        } else if bugs.migrate_skip_use_new_with_tombstones {
            // BUG: the tombstone phase is skipped; deletes performed before
            // the copy pass reaches their key are resurrected.
            vec![
                MigrationStep::SetPhase(Phase::PreferOld),
                MigrationStep::SetPhase(Phase::UseNewHideTombstones),
                MigrationStep::CopyPass,
                MigrationStep::CleanPass,
                MigrationStep::SetPhase(Phase::UseNew),
            ]
        } else {
            let switch = if bugs.ensure_partition_switched_from_populated {
                MigrationStep::SetPhaseUnlessPopulated(Phase::UseNewWithTombstones)
            } else {
                MigrationStep::SetPhase(Phase::UseNewWithTombstones)
            };
            vec![
                MigrationStep::SetPhase(Phase::PreferOld),
                switch,
                MigrationStep::CopyPass,
                MigrationStep::SetPhase(Phase::UseNewHideTombstones),
                MigrationStep::CleanPass,
                MigrationStep::SetPhase(Phase::UseNew),
            ]
        };
        MigratorMachine {
            tables,
            bugs,
            plan,
            step: 0,
            copy_cursor: String::new(),
            delete_after_copy,
            finished: false,
            restarts: 0,
            epoch: 0,
        }
    }

    /// Whether the migration plan has completed (exposed for tests).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Number of times the migrator was crash-restarted (exposed for tests).
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    fn issue_current_step(&mut self, ctx: &mut Context<'_>) {
        let Some(step) = self.plan.get(self.step) else {
            self.finished = true;
            ctx.halt();
            return;
        };
        let action = match step {
            MigrationStep::SetPhase(phase) => MigratorAction::SetPhase(*phase),
            MigrationStep::SetPhaseUnlessPopulated(phase) => {
                MigratorAction::SetPhaseUnlessPopulated(*phase)
            }
            MigrationStep::CopyPass => MigratorAction::CopyNext {
                cursor: std::mem::take(&mut self.copy_cursor),
                delete_after_copy: self.delete_after_copy,
            },
            MigrationStep::CleanPass => MigratorAction::CleanTombstone,
        };
        let from = ctx.id();
        let epoch = self.epoch;
        ctx.send(
            self.tables,
            Event::new(MigratorRequest {
                from,
                action,
                epoch,
            }),
        );
    }
}

impl Machine for MigratorMachine {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.issue_current_step(ctx);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        let Ok(response) = event.downcast::<MigratorResponse>() else {
            return;
        };
        if response.epoch != self.epoch {
            // A response to a request issued before the last crash: the
            // recovered incarnation already re-issued its step, so acting on
            // the stale reply would double-advance the plan.
            return;
        }
        match self.plan.get(self.step) {
            Some(MigrationStep::CopyPass) => {
                self.copy_cursor = response.cursor;
                if let Some(copied) = &response.copied_key {
                    // Resume just past the copied key, in the cursor's own
                    // buffer.
                    self.copy_cursor.clear();
                    self.copy_cursor.push_str(copied);
                    self.copy_cursor.push('\u{0}');
                } else {
                    self.step += 1;
                }
            }
            Some(MigrationStep::CleanPass) if !response.progressed => {
                self.step += 1;
            }
            Some(MigrationStep::CleanPass) => {}
            Some(_) => {
                self.step += 1;
            }
            None => {}
        }
        self.issue_current_step(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        // The crash discarded the migrator's mailbox, so the response to its
        // in-flight request (if any) is lost: the plan step's completion is
        // unknown. Bump the incarnation epoch so any response still in
        // flight from before the crash is discarded on arrival.
        self.restarts += 1;
        self.epoch += 1;
        if self.bugs.restart_skips_in_flight_step {
            // BUG: recover optimistically — assume the in-flight step
            // finished. A copy pass interrupted mid-way is abandoned with
            // rows stranded in the old table.
            self.step += 1;
        } else {
            // Fixed: redo the current step from the beginning of its pass.
            // Every step is idempotent (phase announcements repeat, copies
            // are insert-if-absent), so redoing is always safe. (A copy
            // cursor in flight was lost with the request; start afresh.)
            self.copy_cursor.clear();
        }
        self.issue_current_step(ctx);
    }

    fn name(&self) -> &str {
        "MigratorMachine"
    }

    psharp::impl_machine_snapshot!();
}
