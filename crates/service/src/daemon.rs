//! The daemon core: client registry, shared-session multiplexing, and
//! the fair round-robin scheduler.
//!
//! [`Daemon`] is a transport-agnostic state machine. Transports feed it
//! raw frame lines ([`Daemon::ingest`]) and crank the scheduler
//! ([`Daemon::step`]); it hands back response frames tagged with the
//! client they belong to. Everything is deterministic given the frame
//! sequence — the wall clock is consulted only when a client actually
//! requests a deadline — which is what lets the differential fuzzer
//! drive the daemon in-process and judge its answers byte-for-byte
//! against a clean single-client [`Session`].
//!
//! # Session multiplexing
//!
//! Clients negotiating the same analysis — same PAG (by
//! [`pag_fingerprint`]), same [`EngineConfig::semantic_digest`], same
//! engine kind — share one [`Session`], so summaries computed for one
//! client warm every other. Sessions are created lazily at `hello` and
//! warm-started from the snapshot directory when one is configured,
//! degrading to a cold start exactly like
//! [`Session::load_snapshot_from_path`] always has. Sharing is safe
//! because reuse charges each summary's recorded cold cost: results are
//! independent of cache state, so one client's traffic never changes
//! another's answers.
//!
//! # Scheduler fairness
//!
//! Work is queued per client and scheduled round-robin, one query per
//! turn: a client that submits a budget-exhausting 4096-query batch
//! waits its turn between every other client's queries, so cheap
//! interactive queries never starve behind it. Per-client edge
//! allowances bound total work (admission control — exhausted clients
//! get a structured `budget-exhausted` error, never a silently degraded
//! answer), and per-query deadlines bound latency.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynsum_cfl::sync::{Mutex, MutexGuard, PoisonError};

use dynsum_cfl::{CancelToken, Outcome};
use dynsum_core::{
    pag_fingerprint, BatchControl, EngineConfig, EngineKind, Session, SessionQuery, SnapshotLoad,
};
use dynsum_pag::{MethodId, Pag, VarId};

use crate::json::Json;
use crate::proto::{
    encode_query_result, engine_name, error_frame, ok_frame, parse_request, ErrorCode, ProtoError,
    Request, VarRef,
};

/// A client identifier, unique per daemon lifetime. Transports that
/// manage their own connection ids register them with
/// [`Daemon::connect_as`].
pub type ClientId = u64;

/// Daemon-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Base engine configuration; `hello` frames may override the
    /// negotiable fields ([`crate::proto::CONFIG_KEYS`]).
    pub engine_config: EngineConfig,
    /// Directory snapshots are loaded from at session creation and
    /// written to by `save_snapshot`. `None` disables both.
    pub snapshot_dir: Option<PathBuf>,
    /// Default and maximum per-client edge allowance. A `hello` may
    /// request less; requests for more are capped here.
    pub max_client_budget: u64,
    /// Cap applied to every negotiated or per-request deadline. `None`
    /// leaves deadlines uncapped.
    pub max_deadline_ms: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine_config: EngineConfig::default(),
            snapshot_dir: None,
            // Generous but bounded: ~13 million default-budget queries.
            max_client_budget: 1 << 40,
            max_deadline_ms: None,
        }
    }
}

/// One workload the daemon serves, selected by name in `hello`.
#[derive(Debug, Clone, Copy)]
pub struct ServedWorkload<'p> {
    /// Wire name (`"workload"` field of `hello`).
    pub name: &'p str,
    /// The frozen graph.
    pub pag: &'p Pag,
}

/// Shared handle that lets transport reader threads cancel an in-flight
/// request **while the scheduler thread is executing it**: tokens are
/// registered at ingest and observed by the running query at
/// budget-charge granularity, so a `cancel` frame takes effect without
/// waiting for the scheduler to come around to parsing it.
#[derive(Clone, Default)]
pub struct CancelRegistry {
    inner: Arc<Mutex<TokenMap>>,
}

/// In-flight cancel tokens keyed by `(client, request)`.
type TokenMap = HashMap<(ClientId, u64), Arc<CancelToken>>;

impl CancelRegistry {
    /// Cancels `(client, request)` if it is registered. Returns whether
    /// a token was found.
    pub fn cancel(&self, client: ClientId, request: u64) -> bool {
        match self.lock().get(&(client, request)) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    fn lock(&self) -> MutexGuard<'_, TokenMap> {
        // A reader thread that panicked while holding the lock poisons
        // it; the map itself is still consistent (no partial writes).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // `insert`/`remove` are hidden-public rather than private so the
    // out-of-workspace model-check harness (crates/modelcheck) can
    // drive the real registration/cancel/unregister protocol under the
    // schedule explorer. They are not part of the supported API.
    #[doc(hidden)]
    pub fn insert(&self, client: ClientId, request: u64, token: Arc<CancelToken>) {
        self.lock().insert((client, request), token);
    }

    #[doc(hidden)]
    pub fn remove(&self, client: ClientId, request: u64) {
        self.lock().remove(&(client, request));
    }
}

impl std::fmt::Debug for CancelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CancelRegistry({} tokens)", self.lock().len())
    }
}

/// Per-client protocol counters, reported by `health`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Queries executed (batch queries count individually).
    pub queries: u64,
    /// Queries that resolved in full.
    pub resolved: u64,
    /// Queries that exhausted their per-query engine budget.
    pub over_budget: u64,
    /// Queries that observed a cancellation.
    pub cancelled: u64,
    /// Queries that tripped their deadline.
    pub deadline_trips: u64,
    /// Queries isolated after a panic.
    pub panicked: u64,
    /// Whole requests rejected before running (allowance exhausted,
    /// unknown vars, duplicate ids).
    pub rejected: u64,
    /// Malformed frames answered with an error.
    pub errors: u64,
    /// Edges charged against the client allowance.
    pub edges_spent: u64,
}

/// One queued query evaluation.
#[derive(Debug)]
struct Unit {
    request: u64,
    index: usize,
    var: VarId,
    deadline_ms: Option<u64>,
}

/// Book-keeping for one in-flight `query`/`batch` request.
#[derive(Debug)]
struct Flight {
    token: Arc<CancelToken>,
    done: Vec<Option<Json>>,
    completed: usize,
    batch: bool,
}

#[derive(Debug)]
struct ClientState {
    name: String,
    session: Option<usize>,
    budget_left: u64,
    default_deadline_ms: Option<u64>,
    queue: VecDeque<Unit>,
    inflight: HashMap<u64, Flight>,
    counters: ClientCounters,
    in_ready: bool,
}

impl ClientState {
    fn new() -> Self {
        ClientState {
            name: String::new(),
            session: None,
            budget_left: 0,
            default_deadline_ms: None,
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            counters: ClientCounters::default(),
            in_ready: false,
        }
    }
}

struct SessionEntry<'p> {
    key: SessionKeyView,
    workload: usize,
    session: Session<'p>,
    warm_summaries: usize,
    clients: usize,
}

/// The daemon state machine. See the [module docs](self) for the
/// scheduling and multiplexing model.
pub struct Daemon<'p> {
    workloads: Vec<ServedWorkload<'p>>,
    config: ServiceConfig,
    sessions: Vec<SessionEntry<'p>>,
    clients: HashMap<ClientId, ClientState>,
    ready: VecDeque<ClientId>,
    registry: CancelRegistry,
    shutdown: bool,
    next_client: ClientId,
}

impl<'p> Daemon<'p> {
    /// Builds a daemon serving `workloads` (the first is the default
    /// for `hello` frames that name none).
    pub fn new(workloads: Vec<ServedWorkload<'p>>, config: ServiceConfig) -> Self {
        Daemon {
            workloads,
            config,
            sessions: Vec::new(),
            clients: HashMap::new(),
            ready: VecDeque::new(),
            registry: CancelRegistry::default(),
            shutdown: false,
            next_client: 0,
        }
    }

    /// The shared cancel registry for transport reader threads.
    pub fn cancel_registry(&self) -> CancelRegistry {
        self.registry.clone()
    }

    /// Registers a new client and returns its id.
    pub fn connect(&mut self) -> ClientId {
        self.next_client += 1;
        let id = self.next_client;
        self.clients.insert(id, ClientState::new());
        id
    }

    /// Registers a client under a transport-chosen id (transports that
    /// allocate connection ids themselves). No-op if taken.
    pub fn connect_as(&mut self, id: ClientId) {
        self.next_client = self.next_client.max(id);
        self.clients.entry(id).or_insert_with(ClientState::new);
    }

    /// Deregisters a client: queued work is dropped, in-flight cancel
    /// tokens are released, and its session share is returned.
    pub fn disconnect(&mut self, id: ClientId) {
        if let Some(client) = self.clients.remove(&id) {
            for request in client.inflight.keys() {
                self.registry.remove(id, *request);
            }
            if let Some(si) = client.session {
                self.sessions[si].clients = self.sessions[si].clients.saturating_sub(1);
            }
        }
        // Stale `ready` entries for this id are skipped by `step`.
    }

    /// `true` once a `shutdown` frame was accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// `true` while any client has queued work.
    pub fn has_work(&self) -> bool {
        self.clients.values().any(|c| !c.queue.is_empty())
    }

    /// Number of connected clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Number of materialized shared sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Feeds one raw frame line from `client`, returning any response
    /// frames that are ready immediately (errors, acks; query answers
    /// arrive via [`step`](Self::step)). Malformed input of any shape
    /// is answered with a structured error frame — never a panic, never
    /// a dropped connection.
    pub fn ingest(&mut self, client: ClientId, line: &str) -> Vec<String> {
        if !self.clients.contains_key(&client) {
            // A frame from a connection the transport already tore
            // down; nothing to answer.
            return Vec::new();
        }
        let request = match parse_request(line) {
            Ok(r) => r,
            Err((id, e)) => {
                self.client_mut(client).counters.errors += 1;
                return vec![error_frame(id, &e)];
            }
        };
        let id = request.id();
        if self.shutdown && !matches!(request, Request::Shutdown { .. }) {
            return vec![error_frame(
                Some(id),
                &ProtoError::new(ErrorCode::ShuttingDown, "daemon is shutting down"),
            )];
        }
        let outcome = match request {
            Request::Hello {
                id,
                name,
                workload,
                engine,
                config,
                budget,
                deadline_ms,
            } => self.op_hello(
                client,
                id,
                name,
                workload,
                engine,
                &config,
                budget,
                deadline_ms,
            ),
            Request::Query {
                id,
                var,
                deadline_ms,
            } => self.op_enqueue(client, id, vec![var], deadline_ms, false),
            Request::Batch {
                id,
                vars,
                deadline_ms,
            } => self.op_enqueue(client, id, vars, deadline_ms, true),
            Request::Cancel { id, target } => self.op_cancel(client, id, target),
            Request::InvalidateMethod { id, method } => self.op_invalidate(client, id, method),
            Request::Health { id } => self.op_health(client, id),
            Request::SaveSnapshot { id } => self.op_save_snapshot(client, id),
            Request::Shutdown { id } => {
                self.shutdown = true;
                Ok(vec![ok_frame(
                    id,
                    vec![("shutdown".to_owned(), Json::Bool(true))],
                )])
            }
        };
        match outcome {
            Ok(frames) => frames,
            Err(e) => {
                let c = self.client_mut(client);
                c.counters.errors += 1;
                vec![error_frame(Some(id), &e)]
            }
        }
    }

    /// Runs one scheduler turn — at most one query of one client — and
    /// returns any response frames it completed. Returns an empty list
    /// when there is no work, or when the turn finished a batch query
    /// whose siblings are still pending.
    pub fn step(&mut self) -> Vec<(ClientId, String)> {
        let cid = loop {
            let cid = match self.ready.pop_front() {
                Some(c) => c,
                None => return Vec::new(),
            };
            match self.clients.get_mut(&cid) {
                Some(client) if !client.queue.is_empty() => break cid,
                Some(client) => client.in_ready = false,
                None => {} // disconnected since it was queued
            }
        };
        // Pull everything the execution needs out of the client entry,
        // then release the borrow so the session can be borrowed.
        let (unit, token, si) = {
            let client = self.clients.get_mut(&cid).expect("client checked above");
            let unit = client.queue.pop_front().expect("queue checked above");
            let token = client
                .inflight
                .get(&unit.request)
                .map(|f| Arc::clone(&f.token))
                .expect("flight registered at ingest");
            let si = client.session.expect("units only enqueued post-hello");
            (unit, token, si)
        };
        let deadline = unit
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let control = BatchControl {
            cancel: Some(token),
            deadline,
            ..BatchControl::default()
        };
        let query = [SessionQuery::new(unit.var)];
        let result = self.sessions[si]
            .session
            .run_batch_with(&query, 1, &control)
            .pop()
            .expect("one result per query");
        let encoded = encode_query_result(&result);
        let mut frames = Vec::new();
        let client = self.clients.get_mut(&cid).expect("client checked above");
        client.budget_left = client
            .budget_left
            .saturating_sub(result.stats.edges_traversed);
        client.counters.queries += 1;
        client.counters.edges_spent += result.stats.edges_traversed;
        match result.outcome {
            Outcome::Resolved => client.counters.resolved += 1,
            Outcome::OverBudget => client.counters.over_budget += 1,
            Outcome::Cancelled => client.counters.cancelled += 1,
            Outcome::DeadlineExceeded => client.counters.deadline_trips += 1,
            Outcome::Panicked => client.counters.panicked += 1,
        }
        let flight = client
            .inflight
            .get_mut(&unit.request)
            .expect("flight registered at ingest");
        flight.done[unit.index] = Some(encoded);
        flight.completed += 1;
        if flight.completed == flight.done.len() {
            let flight = client
                .inflight
                .remove(&unit.request)
                .expect("present just above");
            self.registry.remove(cid, unit.request);
            let results: Vec<Json> = flight
                .done
                .into_iter()
                .map(|r| r.expect("all results recorded"))
                .collect();
            let frame = if flight.batch {
                ok_frame(
                    unit.request,
                    vec![("results".to_owned(), Json::Arr(results))],
                )
            } else {
                let mut results = results;
                ok_frame(
                    unit.request,
                    vec![(
                        "result".to_owned(),
                        results.pop().expect("single-query flight"),
                    )],
                )
            };
            frames.push((cid, frame));
        }
        if client.queue.is_empty() {
            client.in_ready = false;
        } else {
            self.ready.push_back(cid);
        }
        frames
    }

    /// Cranks [`step`](Self::step) until no work remains, collecting
    /// every completed frame — the single-threaded convenience used by
    /// tests and the fuzzer.
    pub fn drain(&mut self) -> Vec<(ClientId, String)> {
        let mut out = Vec::new();
        while self.has_work() {
            out.extend(self.step());
        }
        out
    }

    fn client_mut(&mut self, id: ClientId) -> &mut ClientState {
        self.clients.get_mut(&id).expect("caller checked presence")
    }

    #[allow(clippy::too_many_arguments)]
    fn op_hello(
        &mut self,
        client: ClientId,
        id: u64,
        name: String,
        workload: Option<String>,
        engine: EngineKind,
        overrides: &[(String, Json)],
        budget: Option<u64>,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<String>, ProtoError> {
        if self.client_mut(client).session.is_some() {
            return Err(ProtoError::new(
                ErrorCode::BadFrame,
                "session already negotiated on this connection",
            ));
        }
        let wi = match &workload {
            None if self.workloads.is_empty() => {
                return Err(ProtoError::new(
                    ErrorCode::UnknownWorkload,
                    "daemon serves no workloads",
                ))
            }
            None => 0,
            Some(name) => self
                .workloads
                .iter()
                .position(|w| w.name == name)
                .ok_or_else(|| {
                    ProtoError::new(
                        ErrorCode::UnknownWorkload,
                        format!("unknown workload `{name}`"),
                    )
                })?,
        };
        let config = apply_overrides(self.config.engine_config, overrides)?;
        let si = self.session_for(wi, engine, config)?;
        let entry = &mut self.sessions[si];
        entry.clients += 1;
        let allowance = budget
            .unwrap_or(self.config.max_client_budget)
            .min(self.config.max_client_budget);
        let deadline_default = cap_deadline(deadline_ms, self.config.max_deadline_ms);
        let shared = entry.clients;
        let warm = entry.warm_summaries;
        let key = entry.key;
        let c = self.client_mut(client);
        c.name = name;
        c.session = Some(si);
        c.budget_left = allowance;
        c.default_deadline_ms = deadline_default;
        Ok(vec![ok_frame(
            id,
            vec![
                ("engine".to_owned(), Json::str(engine_name(engine))),
                ("workload".to_owned(), Json::str(self.workloads[wi].name)),
                (
                    "pag_fingerprint".to_owned(),
                    Json::str(format!("{:016x}", key.fingerprint)),
                ),
                (
                    "semantic_digest".to_owned(),
                    Json::str(format!("{:016x}", key.digest)),
                ),
                ("warm".to_owned(), Json::Bool(warm > 0)),
                ("warm_summaries".to_owned(), Json::num(warm as u64)),
                ("shared_clients".to_owned(), Json::num(shared as u64)),
                ("budget".to_owned(), Json::num(allowance)),
            ],
        )])
    }

    /// Finds or creates the shared session for `(workload, engine,
    /// config)`, warm-starting from the snapshot directory when
    /// configured.
    fn session_for(
        &mut self,
        wi: usize,
        kind: EngineKind,
        config: EngineConfig,
    ) -> Result<usize, ProtoError> {
        let pag = self.workloads[wi].pag;
        let key = SessionKeyView {
            fingerprint: pag_fingerprint(pag),
            digest: config.semantic_digest(),
            kind,
        };
        if let Some(i) = self
            .sessions
            .iter()
            .position(|e| e.key == key && e.workload == wi)
        {
            return Ok(i);
        }
        let (session, warm_summaries) = match &self.config.snapshot_dir {
            Some(dir) => {
                let path = dir.join(snapshot_file_name(&key));
                let (session, load) = Session::load_snapshot_from_path(&path, pag, kind, config);
                let warm = match load {
                    SnapshotLoad::Warm { summaries, .. } => summaries,
                    SnapshotLoad::Cold(_) => 0,
                };
                (session, warm)
            }
            None => (Session::with_config(pag, kind, config), 0),
        };
        self.sessions.push(SessionEntry {
            key,
            workload: wi,
            session,
            warm_summaries,
            clients: 0,
        });
        Ok(self.sessions.len() - 1)
    }

    fn op_enqueue(
        &mut self,
        client: ClientId,
        id: u64,
        vars: Vec<VarRef>,
        deadline_ms: Option<u64>,
        batch: bool,
    ) -> Result<Vec<String>, ProtoError> {
        let (si, default_deadline, budget_left, duplicate) = {
            let c = self.client_mut(client);
            (
                c.session,
                c.default_deadline_ms,
                c.budget_left,
                c.inflight.contains_key(&id),
            )
        };
        let si = si
            .ok_or_else(|| ProtoError::new(ErrorCode::NeedHello, "send `hello` before querying"))?;
        let reject = |this: &mut Self, e: ProtoError| -> Result<Vec<String>, ProtoError> {
            this.client_mut(client).counters.rejected += 1;
            Err(e)
        };
        if duplicate {
            return reject(
                self,
                ProtoError::new(
                    ErrorCode::DuplicateId,
                    format!("request id {id} is still in flight"),
                ),
            );
        }
        if budget_left == 0 {
            return reject(
                self,
                ProtoError::new(ErrorCode::BudgetExhausted, "client edge allowance is spent"),
            );
        }
        let pag = self.workloads[self.sessions[si].workload].pag;
        let mut resolved = Vec::with_capacity(vars.len());
        for var in &vars {
            match var {
                VarRef::Raw(raw) => {
                    if (*raw as usize) >= pag.num_vars() {
                        return reject(
                            self,
                            ProtoError::new(
                                ErrorCode::UnknownVar,
                                format!("no variable with raw id {raw}"),
                            ),
                        );
                    }
                    resolved.push(VarId::from_raw(*raw));
                }
                VarRef::Named(name) => match pag.find_var(name) {
                    Some(v) => resolved.push(v),
                    None => {
                        return reject(
                            self,
                            ProtoError::new(
                                ErrorCode::UnknownVar,
                                format!("no variable named `{name}`"),
                            ),
                        )
                    }
                },
            }
        }
        let deadline = cap_deadline(deadline_ms, self.config.max_deadline_ms).or(default_deadline);
        let token = Arc::new(CancelToken::new());
        self.registry.insert(client, id, Arc::clone(&token));
        let c = self.client_mut(client);
        c.inflight.insert(
            id,
            Flight {
                token,
                done: resolved.iter().map(|_| None).collect(),
                completed: 0,
                batch,
            },
        );
        for (index, var) in resolved.into_iter().enumerate() {
            c.queue.push_back(Unit {
                request: id,
                index,
                var,
                deadline_ms: deadline,
            });
        }
        if !c.in_ready {
            c.in_ready = true;
            self.ready.push_back(client);
        }
        Ok(Vec::new())
    }

    fn op_cancel(
        &mut self,
        client: ClientId,
        id: u64,
        target: u64,
    ) -> Result<Vec<String>, ProtoError> {
        let c = self.client_mut(client);
        let active = match c.inflight.get(&target) {
            Some(flight) => {
                flight.token.cancel();
                true
            }
            None => false,
        };
        Ok(vec![ok_frame(
            id,
            vec![("active".to_owned(), Json::Bool(active))],
        )])
    }

    fn op_invalidate(
        &mut self,
        client: ClientId,
        id: u64,
        method: u32,
    ) -> Result<Vec<String>, ProtoError> {
        let si = self.client_mut(client).session.ok_or_else(|| {
            ProtoError::new(ErrorCode::NeedHello, "send `hello` before invalidating")
        })?;
        let pag = self.workloads[self.sessions[si].workload].pag;
        if (method as usize) >= pag.num_methods() {
            return Err(ProtoError::new(
                ErrorCode::UnknownMethod,
                format!("no method with raw id {method}"),
            ));
        }
        let evicted = self.sessions[si]
            .session
            .invalidate_method(MethodId::from_raw(method));
        Ok(vec![ok_frame(
            id,
            vec![("evicted".to_owned(), Json::num(evicted as u64))],
        )])
    }

    fn op_health(&mut self, client: ClientId, id: u64) -> Result<Vec<String>, ProtoError> {
        let daemon = Json::Obj(vec![
            ("clients".to_owned(), Json::num(self.clients.len() as u64)),
            ("sessions".to_owned(), Json::num(self.sessions.len() as u64)),
            ("shutdown".to_owned(), Json::Bool(self.shutdown)),
        ]);
        let c = self.clients.get(&client).expect("caller checked presence");
        let n = c.counters;
        let client_obj = Json::Obj(vec![
            ("name".to_owned(), Json::str(&*c.name)),
            ("queries".to_owned(), Json::num(n.queries)),
            ("resolved".to_owned(), Json::num(n.resolved)),
            ("over_budget".to_owned(), Json::num(n.over_budget)),
            ("cancelled".to_owned(), Json::num(n.cancelled)),
            ("deadline_trips".to_owned(), Json::num(n.deadline_trips)),
            ("panicked".to_owned(), Json::num(n.panicked)),
            ("rejected".to_owned(), Json::num(n.rejected)),
            ("errors".to_owned(), Json::num(n.errors)),
            ("edges_spent".to_owned(), Json::num(n.edges_spent)),
            ("budget_left".to_owned(), Json::num(c.budget_left)),
            ("queued".to_owned(), Json::num(c.queue.len() as u64)),
        ]);
        let session_obj = match c.session {
            None => Json::Null,
            Some(si) => {
                let entry = &self.sessions[si];
                let h = entry.session.health();
                Json::Obj(vec![
                    ("engine".to_owned(), Json::str(engine_name(entry.key.kind))),
                    ("shared_clients".to_owned(), Json::num(entry.clients as u64)),
                    (
                        "warm_summaries".to_owned(),
                        Json::num(entry.warm_summaries as u64),
                    ),
                    ("spawn_failures".to_owned(), Json::num(h.spawn_failures)),
                    ("stale_rejections".to_owned(), Json::num(h.stale_rejections)),
                    ("evictions".to_owned(), Json::num(h.evictions)),
                    ("cancellations".to_owned(), Json::num(h.cancellations)),
                    ("deadline_trips".to_owned(), Json::num(h.deadline_trips)),
                    ("query_panics".to_owned(), Json::num(h.query_panics)),
                ])
            }
        };
        Ok(vec![ok_frame(
            id,
            vec![
                ("daemon".to_owned(), daemon),
                ("client".to_owned(), client_obj),
                ("session".to_owned(), session_obj),
            ],
        )])
    }

    fn op_save_snapshot(&mut self, client: ClientId, id: u64) -> Result<Vec<String>, ProtoError> {
        let si = self
            .client_mut(client)
            .session
            .ok_or_else(|| ProtoError::new(ErrorCode::NeedHello, "send `hello` before saving"))?;
        let dir = self.config.snapshot_dir.clone().ok_or_else(|| {
            ProtoError::new(ErrorCode::SnapshotIo, "no snapshot directory configured")
        })?;
        let entry = &self.sessions[si];
        let path = dir.join(snapshot_file_name(&entry.key));
        entry.session.save_snapshot_to_path(&path).map_err(|e| {
            ProtoError::new(ErrorCode::SnapshotIo, format!("snapshot write failed: {e}"))
        })?;
        Ok(vec![ok_frame(
            id,
            vec![(
                "path".to_owned(),
                Json::str(path.to_string_lossy().into_owned()),
            )],
        )])
    }
}

impl std::fmt::Debug for Daemon<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("workloads", &self.workloads.len())
            .field("clients", &self.clients.len())
            .field("sessions", &self.sessions.len())
            .field("shutdown", &self.shutdown)
            .finish_non_exhaustive()
    }
}

/// The snapshot file a session key maps to inside the snapshot
/// directory.
pub fn snapshot_file_name(key: &SessionKeyView) -> String {
    format!(
        "dynsum-{}-{:016x}-{:016x}.snap",
        engine_name(key.kind),
        key.fingerprint,
        key.digest
    )
}

/// Public view of a session key (used to derive snapshot file names in
/// the serve bin, e.g. to pre-warm a directory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionKeyView {
    /// [`pag_fingerprint`] of the workload.
    pub fingerprint: u64,
    /// [`EngineConfig::semantic_digest`].
    pub digest: u64,
    /// Engine kind.
    pub kind: EngineKind,
}

fn cap_deadline(requested: Option<u64>, cap: Option<u64>) -> Option<u64> {
    match (requested, cap) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (Some(r), None) => Some(r),
        (None, _) => None,
    }
}

fn apply_overrides(
    mut config: EngineConfig,
    overrides: &[(String, Json)],
) -> Result<EngineConfig, ProtoError> {
    let bad = |key: &str, want: &str| {
        ProtoError::new(
            ErrorCode::BadConfig,
            format!("config key `{key}` must be {want}"),
        )
    };
    for (key, value) in overrides {
        match key.as_str() {
            "budget" => {
                config.budget = value.as_u64().ok_or_else(|| bad(key, "an integer"))?;
            }
            "max_field_depth" => {
                config.max_field_depth =
                    value.as_u64().ok_or_else(|| bad(key, "an integer"))? as usize;
            }
            "max_ctx_depth" => {
                config.max_ctx_depth =
                    value.as_u64().ok_or_else(|| bad(key, "an integer"))? as usize;
            }
            "max_refinements" => {
                let n = value.as_u64().ok_or_else(|| bad(key, "an integer"))?;
                config.max_refinements = u32::try_from(n).map_err(|_| bad(key, "a u32 integer"))?;
            }
            "max_cached_summaries" => {
                config.max_cached_summaries = match value {
                    Json::Null => None,
                    v => Some(v.as_u64().ok_or_else(|| bad(key, "an integer or null"))? as usize),
                };
            }
            "context_sensitive" => {
                config.context_sensitive = value.as_bool().ok_or_else(|| bad(key, "a boolean"))?;
            }
            "cache_summaries" => {
                config.cache_summaries = value.as_bool().ok_or_else(|| bad(key, "a boolean"))?;
            }
            // parse_request already filtered unknown keys; keep the
            // error anyway so the two layers cannot drift apart.
            other => {
                return Err(ProtoError::new(
                    ErrorCode::BadConfig,
                    format!("unknown config key `{other}`"),
                ))
            }
        }
    }
    Ok(config)
}
