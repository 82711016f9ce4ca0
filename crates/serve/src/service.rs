//! The service: a supervised worker pool behind a transport trait.
//!
//! [`Transport`] is the request/reply seam a remote carrier (HTTP, gRPC,
//! a message bus) would implement; this crate ships two in-process
//! implementations:
//!
//! * [`InProcessTransport`] — the real service shape: requests flow over
//!   bounded crossbeam channels to a pool of worker threads, each
//!   request carrying its own rendezvous reply channel. Clone the handle
//!   freely; it is the client stub.
//! * [`DirectTransport`] — calls the engine inline on the caller's
//!   thread. Zero queueing; the harness for tests and for measuring the
//!   engine floor without channel overhead.
//!
//! Both share one [`DecisionEngine`], so a policy install through the
//! service is visible to every worker's next decision.
//!
//! # Overload protection (SRV-011 / SRV-012)
//!
//! Admission is two-lane. [`Priority::Emergency`] (break-the-glass)
//! requests go to a dedicated bounded lane that workers always drain
//! first and that is never load-shed; [`Priority::Bulk`] requests go to
//! the main lane. With a [`ServeConfig::shed_threshold`] configured, a
//! bulk request arriving while the lane is at or past the threshold is
//! rejected *at admission* with a [`DenyReason::Overloaded`] (`SRV-011`)
//! reply — the caller learns immediately instead of queueing into a
//! collapse; without a threshold the lane exerts classic back-pressure
//! (senders block at capacity). A [`ServeConfig::max_queue_age`] adds
//! age-based shedding at dequeue: bulk work that sat queued longer than
//! the bound is answered `SRV-011` without burning a worker.
//!
//! Requests may carry a deadline budget ([`DecisionRequest::deadline_us`],
//! measured from admission). Deadlines are checked at enqueue, at
//! dequeue, and again at reply; expired work is abandoned with
//! [`DenyReason::DeadlineExceeded`] (`SRV-012`).
//!
//! # Supervision and degraded mode
//!
//! Every job runs under `catch_unwind`: a panicking decision answers its
//! client fail-closed (`SRV-010`) and the worker thread exits. A
//! supervisor thread joins dead workers and respawns them (mirroring
//! prima-stream's dead-shard respawn), counting restarts into the
//! `prima_serve_*` metrics. Repeated crash loops trip a service-level
//! [`CircuitBreaker`]: while it is open, respawns pause for the cooldown
//! and policy installs are held ([`InstallError::InstallsHeld`]) — the
//! engine keeps answering from the pinned last-known-good snapshot with
//! the cache read-only. [`PolicyService::health`] surfaces the whole
//! state machine as a [`ServeHealth`] report.

use crate::api::{
    DecisionReply, DecisionRequest, DenyReason, Priority, RewriteReply, RewriteRequest, Verdict,
};
use crate::cache::ServeCacheStats;
use crate::engine::{DecisionEngine, InstallError};
use crate::obs::ServeObs;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;
use prima_audit::{BreakerConfig, BreakerState, CircuitBreaker};
use prima_hdb::ColumnMap;
use prima_model::Policy;
use prima_obs::{
    FlightRecorder, MetricsRegistry, SloEngine, SloHealth, SloSpec, SpanGuard, Tracer,
};
use prima_vocab::Vocabulary;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker blocks on the bulk lane before re-checking
/// the emergency lane. Bounds the extra latency an emergency request
/// can see when every worker is parked on an empty bulk lane.
const EMERGENCY_POLL: Duration = Duration::from_micros(100);

/// Service configuration. Builder-style; the defaults serve a test
/// deployment (workers = available parallelism, back-pressure
/// admission, no shedding, no supervision-breaker tripping in practice).
#[derive(Debug)]
pub struct ServeConfig {
    workers: usize,
    queue_capacity: usize,
    emergency_capacity: usize,
    shed_threshold: Option<usize>,
    max_queue_age: Option<Duration>,
    supervision_interval: Duration,
    breaker: BreakerConfig,
    decision_delay: Duration,
    panic_token: Option<Arc<str>>,
    metrics: MetricsRegistry,
    tracer: Tracer,
    flight: Option<FlightRecorder>,
    columns: Option<ColumnMap>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            workers,
            queue_capacity: 1024,
            emergency_capacity: 1024,
            shed_threshold: None,
            max_queue_age: None,
            supervision_interval: Duration::from_millis(2),
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown_rounds: 5,
            },
            decision_delay: Duration::ZERO,
            panic_token: None,
            metrics: MetricsRegistry::disabled(),
            tracer: Tracer::disabled(),
            flight: None,
            columns: None,
        }
    }
}

impl ServeConfig {
    /// Starts from the defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker-pool size (clamped to ≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Bulk-lane depth before senders block (back-pressure bound).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Emergency-lane depth. Emergency admission blocks (never sheds)
    /// when the lane is full, so this bounds worst-case emergency queue
    /// wait to `capacity / service_rate`.
    pub fn emergency_capacity(mut self, n: usize) -> Self {
        self.emergency_capacity = n.max(1);
        self
    }

    /// Enables admission-control shedding: a bulk request arriving while
    /// the bulk lane holds ≥ `n` queued jobs is answered `SRV-011`
    /// immediately instead of queueing. Without this, bulk admission
    /// exerts back-pressure (blocks at capacity) — the right default for
    /// cooperative in-process clients; a fronting RPC server enables
    /// shedding so overload is rejected early instead of queued into
    /// collapse.
    pub fn shed_threshold(mut self, n: usize) -> Self {
        self.shed_threshold = Some(n);
        self
    }

    /// Enables age-based shedding at dequeue: bulk work that waited
    /// longer than `age` in the queue is answered `SRV-011` without
    /// occupying a worker.
    pub fn max_queue_age(mut self, age: Duration) -> Self {
        self.max_queue_age = Some(age);
        self
    }

    /// Supervisor poll interval (also the service breaker's round clock).
    pub fn supervision_interval(mut self, interval: Duration) -> Self {
        self.supervision_interval = interval.max(Duration::from_micros(100));
        self
    }

    /// Tunes the service-level crash-loop breaker: `failure_threshold`
    /// consecutive supervision ticks with worker crashes open it;
    /// respawns and policy installs resume after `cooldown_rounds` ticks
    /// if the probe respawn survives.
    pub fn breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = config;
        self
    }

    /// Adds a fixed simulated per-decision service time (surge bench and
    /// chaos suites use this to model downstream HDB latency and make
    /// offered load exceed capacity deterministically).
    pub fn decision_delay(mut self, delay: Duration) -> Self {
        self.decision_delay = delay;
        self
    }

    /// Arms deterministic panic injection: a request whose `principal`
    /// equals `token` panics the worker that picks it up (the client
    /// still gets a fail-closed `SRV-010` reply). Chaos suites pair this
    /// with [`crate::FaultyTransport`]'s panic-inject script.
    pub fn panic_token(mut self, token: &str) -> Self {
        self.panic_token = Some(Arc::from(token));
        self
    }

    /// Registers serve metrics on `registry`.
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = registry;
        self
    }

    /// Emits serve spans to `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a flight recorder for the incident paths (worker panic,
    /// breaker open, degraded entry) to dump. Defaults to the tracer's
    /// own recorder (see [`Tracer::configured`]), so a traced service
    /// gets black-box dumps without extra wiring.
    pub fn flight(mut self, recorder: FlightRecorder) -> Self {
        self.flight = Some(recorder);
        self
    }

    /// Installs a column→category schema map for rewrite requests.
    pub fn columns(mut self, map: ColumnMap) -> Self {
        self.columns = Some(map);
        self
    }
}

/// Transport-level failures: the request was not decided — distinct
/// from a `Deny` verdict, which *is* a decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The worker pool has shut down; the request was not served.
    Closed,
    /// An injected transport fault dropped the request before it reached
    /// the service (see [`crate::FaultyTransport`]).
    Dropped,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Closed => write!(f, "policy-decision service is shut down"),
            ServeError::Dropped => write!(f, "request dropped by an injected transport fault"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The request/reply seam. Implementations must be shareable across
/// client threads.
pub trait Transport: Send + Sync {
    /// Decides one request.
    fn decide(&self, req: DecisionRequest) -> Result<DecisionReply, ServeError>;

    /// Decides a batch in request order. The default round-trips one by
    /// one; [`InProcessTransport`] ships the whole batch in one message.
    fn decide_batch(&self, reqs: Vec<DecisionRequest>) -> Result<Vec<DecisionReply>, ServeError> {
        reqs.into_iter().map(|r| self.decide(r)).collect()
    }

    /// Rewrites a multi-column query.
    fn rewrite(&self, req: RewriteRequest) -> Result<RewriteReply, ServeError>;
}

/// One queued unit of work, carrying its rendezvous reply channel.
enum Job {
    Decide(DecisionRequest, Sender<DecisionReply>),
    DecideBatch(Vec<DecisionRequest>, Sender<Vec<DecisionReply>>),
    Rewrite(RewriteRequest, Sender<RewriteReply>),
    /// Poison pill: the receiving worker exits. One is queued per live
    /// worker on shutdown, behind all in-flight bulk requests.
    Shutdown,
}

/// A job plus its admission instant — the clock deadlines and queue-age
/// shedding are measured against.
struct Envelope {
    admitted: Instant,
    job: Job,
}

/// How a worker thread ended.
enum WorkerExit {
    /// Orderly: poison pill or disconnected channels.
    Shutdown,
    /// A job panicked; the supervisor should respawn.
    Crashed,
}

/// Everything a worker (or a respawn of one) needs. Cheap to clone.
#[derive(Clone)]
struct WorkerCtx {
    engine: Arc<DecisionEngine>,
    bulk: Receiver<Envelope>,
    emergency: Receiver<Envelope>,
    max_queue_age: Option<Duration>,
    decision_delay: Duration,
    panic_token: Option<Arc<str>>,
}

/// The cloneable client stub of a running [`PolicyService`].
#[derive(Clone)]
pub struct InProcessTransport {
    bulk: Sender<Envelope>,
    emergency: Sender<Envelope>,
    engine: Arc<DecisionEngine>,
    closed: Arc<AtomicBool>,
    shed_threshold: Option<usize>,
}

/// Attaches decision provenance to the root span of a traced request:
/// the verdict (and structured deny code), the policy revision that
/// answered, and whether the cache did. Denied decisions are marked
/// interesting so tail-based sampling always keeps them.
fn finish_root(root: &mut SpanGuard, reply: &DecisionReply) {
    root.field("policy_revision", reply.policy_revision);
    root.field("cached", reply.cached);
    match &reply.verdict {
        Verdict::Allow => root.field("verdict", "allow"),
        Verdict::Deny(reason) => {
            root.field("verdict", "deny");
            root.field("deny_code", reason.code());
            root.mark_interesting();
        }
    }
}

impl InProcessTransport {
    fn deny(&self, reason: DenyReason) -> DecisionReply {
        DecisionReply {
            verdict: Verdict::Deny(reason),
            rewritten_query: None,
            policy_revision: self.engine.policy_revision(),
            cached: false,
        }
    }

    /// Sheds one bulk request at admission.
    fn shed(&self) -> DecisionReply {
        self.engine.obs().shed.inc();
        self.deny(DenyReason::Overloaded)
    }

    /// True when admission control should reject more bulk work now.
    fn bulk_saturated(&self) -> bool {
        self.shed_threshold
            .is_some_and(|limit| self.bulk.len() >= limit)
    }

    /// Routes an envelope to its lane. Emergency traffic bypasses the
    /// shedder entirely (blocking send — bounded by the lane capacity);
    /// bulk traffic is shed when the lane is saturated.
    fn admit(&self, priority: Priority, env: Envelope) -> Result<(), Rejected> {
        if self.closed.load(Ordering::Acquire) {
            return Err(Rejected::Closed);
        }
        match priority {
            Priority::Emergency => self.emergency.send(env).map_err(|_| Rejected::Closed),
            Priority::Bulk => {
                if self.bulk_saturated() {
                    return Err(Rejected::Shed);
                }
                match self.shed_threshold {
                    // Shedding mode: never block the caller.
                    Some(_) => self.bulk.try_send(env).map_err(|e| match e {
                        TrySendError::Full(_) => Rejected::Shed,
                        TrySendError::Disconnected(_) => Rejected::Closed,
                    }),
                    // Back-pressure mode: block at capacity.
                    None => self.bulk.send(env).map_err(|_| Rejected::Closed),
                }
            }
        }
    }
}

/// Why admission refused an envelope.
enum Rejected {
    /// Bulk lane saturated — answer `SRV-011` without queueing.
    Shed,
    /// Service closed (or the lane disconnected mid-send).
    Closed,
}

impl Transport for InProcessTransport {
    fn decide(&self, mut req: DecisionRequest) -> Result<DecisionReply, ServeError> {
        let admitted = Instant::now();
        // The trace starts at admission: the root span owns the whole
        // client-observed latency, and its context rides the request
        // through the queue so the worker span parents under it.
        let mut root = self.engine.obs().tracer.root_span("serve.decide");
        req = req.with_trace(root.context());
        root.field("priority", req.priority.label());
        if req.priority == Priority::Emergency {
            // Break-the-glass is always interesting to the tail sampler.
            root.mark_interesting();
        }
        // Enqueue-time deadline check: a zero (or already-spent) budget
        // never enters the queue.
        if req.deadline_us == Some(0) {
            self.engine.obs().deadline_expired.inc();
            let reply = self.deny(DenyReason::DeadlineExceeded);
            finish_root(&mut root, &reply);
            return Ok(reply);
        }
        let (tx, rx) = bounded(1);
        let priority = req.priority;
        let env = Envelope {
            admitted,
            job: Job::Decide(req, tx),
        };
        match self.admit(priority, env) {
            Ok(()) => {
                let reply = rx.recv().map_err(|_| ServeError::Closed)?;
                finish_root(&mut root, &reply);
                Ok(reply)
            }
            Err(Rejected::Shed) => {
                let reply = self.shed();
                finish_root(&mut root, &reply);
                Ok(reply)
            }
            Err(Rejected::Closed) => Err(ServeError::Closed),
        }
    }

    fn decide_batch(
        &self,
        mut reqs: Vec<DecisionRequest>,
    ) -> Result<Vec<DecisionReply>, ServeError> {
        let admitted = Instant::now();
        // One root span covers the batch; every member is stamped with
        // its context so per-request worker spans share the trace.
        let mut root = self.engine.obs().tracer.root_span("serve.decide_batch");
        let ctx = root.context();
        for req in &mut reqs {
            req.trace_id = ctx.trace_id;
            req.trace_span = ctx.parent_span;
        }
        root.field("batch", reqs.len());
        // A batch rides the emergency lane iff any member is emergency.
        let priority = if reqs.iter().any(|r| r.priority == Priority::Emergency) {
            Priority::Emergency
        } else {
            Priority::Bulk
        };
        root.field("priority", priority.label());
        if priority == Priority::Emergency {
            root.mark_interesting();
        }
        let n = reqs.len();
        let (tx, rx) = bounded(1);
        let env = Envelope {
            admitted,
            job: Job::DecideBatch(reqs, tx),
        };
        match self.admit(priority, env) {
            Ok(()) => {
                let replies = rx.recv().map_err(|_| ServeError::Closed)?;
                if replies.iter().any(|r| !matches!(r.verdict, Verdict::Allow)) {
                    root.mark_interesting();
                }
                Ok(replies)
            }
            Err(Rejected::Shed) => {
                root.mark_interesting();
                Ok((0..n).map(|_| self.shed()).collect())
            }
            Err(Rejected::Closed) => Err(ServeError::Closed),
        }
    }

    fn rewrite(&self, req: RewriteRequest) -> Result<RewriteReply, ServeError> {
        let (tx, rx) = bounded(1);
        let env = Envelope {
            admitted: Instant::now(),
            job: Job::Rewrite(req, tx),
        };
        match self.admit(Priority::Bulk, env) {
            Ok(()) => rx.recv().map_err(|_| ServeError::Closed),
            // A rewrite has no single-verdict shed shape; saturation is
            // reported as unavailability.
            Err(_) => Err(ServeError::Closed),
        }
    }
}

/// A transport that calls the engine inline on the caller's thread — no
/// queue, no workers. Shares the engine (and cache) with the pool.
#[derive(Clone)]
pub struct DirectTransport {
    engine: Arc<DecisionEngine>,
}

impl Transport for DirectTransport {
    fn decide(&self, req: DecisionRequest) -> Result<DecisionReply, ServeError> {
        Ok(self.engine.decide(&req))
    }

    fn rewrite(&self, req: RewriteRequest) -> Result<RewriteReply, ServeError> {
        Ok(self.engine.rewrite(&req))
    }
}

/// A point-in-time view of service counters, taken by
/// [`PolicyService::snapshot`] (and returned once more by
/// [`PolicyService::shutdown`]).
#[derive(Debug, Clone, Copy)]
pub struct ServeSnapshot {
    /// Cache counters.
    pub cache: ServeCacheStats,
    /// Total decisions served.
    pub decisions: u64,
    /// The revision of the installed policy.
    pub policy_revision: u64,
}

/// The service's overall condition, derived in [`PolicyService::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceState {
    /// Full service: all workers alive, breaker closed, installs flowing.
    Healthy,
    /// Serving, but something is pinned or reduced: a failed install
    /// pinned the last-known-good policy, installs are held, or part of
    /// the worker pool is down awaiting respawn.
    Degraded,
    /// The crash-loop breaker is open (or probing): respawns paused,
    /// installs held, decisions served from the pinned snapshot.
    CrashLoop,
}

/// A structured health report: the supervisor state machine, the
/// engine's degraded/pinned status, and the overload counters, in one
/// sample.
#[derive(Debug, Clone, Copy)]
pub struct ServeHealth {
    /// Derived overall state.
    pub state: ServiceState,
    /// The policy revision currently serving (the pinned last-known-good
    /// revision while degraded).
    pub policy_revision: u64,
    /// True while the engine is pinned to last-known-good after a failed
    /// install (cache read-only).
    pub degraded: bool,
    /// True while policy installs are held (service breaker not closed).
    pub installs_held: bool,
    /// Service-level crash-loop breaker state.
    pub breaker: BreakerState,
    /// Configured worker-pool size.
    pub workers_configured: usize,
    /// Workers currently alive.
    pub workers_alive: usize,
    /// Workers respawned by the supervisor since start.
    pub worker_restarts: u64,
    /// Worker panics caught since start.
    pub worker_panics: u64,
    /// Requests shed under overload (`SRV-011`) since start.
    pub shed: u64,
    /// Requests expired past their deadline (`SRV-012`) since start.
    pub deadline_expired: u64,
    /// Bulk-lane depth at sampling time.
    pub queued_bulk: usize,
    /// Emergency-lane depth at sampling time.
    pub queued_emergency: usize,
    /// Burn-rate roll-up of the serving SLOs (p99 latency, shed rate,
    /// worker-panic rate), clocked on supervision ticks.
    pub slo: SloHealth,
    /// Flight-recorder dumps triggered by incidents since start.
    pub flight_dumps: u64,
}

impl ServeHealth {
    /// True iff the service is fully healthy.
    pub fn healthy(&self) -> bool {
        self.state == ServiceState::Healthy
    }
}

/// Supervisor bookkeeping shared between the service handle and the
/// supervisor thread.
struct SupervisorShared {
    /// One slot per configured worker; `None` while dead/awaiting respawn.
    slots: Mutex<Vec<Option<JoinHandle<WorkerExit>>>>,
    breaker: Mutex<CircuitBreaker>,
    restarts: AtomicU64,
    shutting_down: AtomicBool,
}

/// The running service: engine + supervised worker pool.
pub struct PolicyService {
    engine: Arc<DecisionEngine>,
    bulk_tx: Sender<Envelope>,
    emergency_tx: Sender<Envelope>,
    bulk_rx: Receiver<Envelope>,
    emergency_rx: Receiver<Envelope>,
    closed: Arc<AtomicBool>,
    sup: Arc<SupervisorShared>,
    supervisor: Option<JoinHandle<()>>,
    workers_configured: usize,
    shed_threshold: Option<usize>,
    slo: SloEngine,
}

/// Processes one decision; returns the reply, or `None` when the job
/// panicked (the panic is already counted and the worker must restart).
fn decide_one(
    ctx: &WorkerCtx,
    admitted: Instant,
    req: &DecisionRequest,
    batched: bool,
) -> Option<DecisionReply> {
    let obs = ctx.engine.obs();
    // Restore the admission-side trace context: the worker span parents
    // under the `serve.decide` root even though it runs on a pool thread
    // on the far side of the queue hop. Batch members share their
    // batch's worker span instead (one span per channel hop, not one per
    // request — the instrumentation-overhead gate depends on it) and
    // only materialize a per-request span for an interesting outcome.
    let mut span = (!batched).then(|| {
        let mut s = obs.tracer.span_in("serve.worker", req.trace_context());
        s.field("queue_wait_us", admitted.elapsed().as_micros());
        s
    });
    let deny = |reason| DecisionReply {
        verdict: Verdict::Deny(reason),
        rewritten_query: None,
        policy_revision: ctx.engine.policy_revision(),
        cached: false,
    };
    // Age-based shedding: stale bulk work is not worth a worker.
    if req.priority == Priority::Bulk {
        if let Some(max_age) = ctx.max_queue_age {
            if admitted.elapsed() > max_age {
                obs.shed.inc();
                let s = span
                    .get_or_insert_with(|| obs.tracer.span_in("serve.worker", req.trace_context()));
                s.field("outcome", "aged_out");
                s.mark_interesting();
                return Some(deny(DenyReason::Overloaded));
            }
        }
    }
    let deadline = req
        .deadline_us
        .map(|us| admitted + Duration::from_micros(us));
    // Dequeue-time deadline check: work whose remaining budget cannot
    // cover the known decision latency is abandoned unstarted — a
    // worker's time is never spent computing a verdict that could only
    // ever be reported late.
    if deadline.is_some_and(|d| Instant::now() + ctx.decision_delay >= d) {
        obs.deadline_expired.inc();
        let s = span.get_or_insert_with(|| obs.tracer.span_in("serve.worker", req.trace_context()));
        s.field("outcome", "deadline_at_dequeue");
        s.mark_interesting();
        return Some(deny(DenyReason::DeadlineExceeded));
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(token) = &ctx.panic_token {
            assert!(
                req.principal != token.as_ref(),
                "injected worker panic (chaos)"
            );
        }
        if !ctx.decision_delay.is_zero() {
            std::thread::sleep(ctx.decision_delay);
        }
        ctx.engine.decide(req)
    }));
    match outcome {
        Ok(reply) => {
            // Reply-time deadline check: a verdict computed too late is
            // answered honestly as expired, never as a late Allow.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                obs.deadline_expired.inc();
                let s = span
                    .get_or_insert_with(|| obs.tracer.span_in("serve.worker", req.trace_context()));
                s.field("outcome", "deadline_at_reply");
                s.mark_interesting();
                return Some(deny(DenyReason::DeadlineExceeded));
            }
            if req.priority == Priority::Emergency {
                obs.emergency.inc();
            }
            Some(reply)
        }
        Err(_) => {
            obs.worker_panics.inc();
            let s =
                span.get_or_insert_with(|| obs.tracer.span_in("serve.worker", req.trace_context()));
            s.field("outcome", "panic");
            s.mark_interesting();
            // Close the span *before* dumping so the panicking
            // request's own span is in the black box it triggers.
            drop(span);
            obs.incident("worker_panic", req.trace_id);
            None
        }
    }
}

/// Runs one envelope. Returns `true` when the worker must exit because a
/// job panicked. Replies to dead clients are silently discarded.
fn process(ctx: &WorkerCtx, env: Envelope) -> bool {
    match env.job {
        Job::Decide(req, reply) => match decide_one(ctx, env.admitted, &req, false) {
            Some(out) => {
                let _ = reply.send(out);
                false
            }
            None => {
                // Fail closed to the client, then crash the worker.
                let _ = reply.send(DecisionReply {
                    verdict: Verdict::Deny(DenyReason::Internal),
                    rewritten_query: None,
                    policy_revision: ctx.engine.policy_revision(),
                    cached: false,
                });
                true
            }
        },
        Job::DecideBatch(reqs, reply) => {
            // One worker span covers the whole batch (its members were
            // all stamped with the same admission context).
            let batch_ctx = reqs
                .first()
                .map(|r| r.trace_context())
                .unwrap_or(prima_obs::TraceContext::NONE);
            let mut batch_span = ctx
                .engine
                .obs()
                .tracer
                .span_in("serve.worker_batch", batch_ctx);
            batch_span.field("batch", reqs.len());
            batch_span.field("queue_wait_us", env.admitted.elapsed().as_micros());
            let mut crashed = false;
            let mut out = Vec::with_capacity(reqs.len());
            for req in &reqs {
                if crashed {
                    // The worker is already doomed; answer the rest of
                    // the batch fail-closed rather than deciding under a
                    // possibly-poisoned thread state.
                    out.push(DecisionReply {
                        verdict: Verdict::Deny(DenyReason::Internal),
                        rewritten_query: None,
                        policy_revision: ctx.engine.policy_revision(),
                        cached: false,
                    });
                    continue;
                }
                match decide_one(ctx, env.admitted, req, true) {
                    Some(r) => out.push(r),
                    None => {
                        crashed = true;
                        batch_span.mark_interesting();
                        out.push(DecisionReply {
                            verdict: Verdict::Deny(DenyReason::Internal),
                            rewritten_query: None,
                            policy_revision: ctx.engine.policy_revision(),
                            cached: false,
                        });
                    }
                }
            }
            let _ = reply.send(out);
            crashed
        }
        Job::Rewrite(req, reply) => {
            match catch_unwind(AssertUnwindSafe(|| ctx.engine.rewrite(&req))) {
                Ok(out) => {
                    let _ = reply.send(out);
                    false
                }
                Err(_) => {
                    ctx.engine.obs().worker_panics.inc();
                    true
                }
            }
        }
        Job::Shutdown => unreachable!("pills are intercepted by worker_loop"),
    }
}

fn worker_loop(ctx: WorkerCtx) -> WorkerExit {
    loop {
        // Emergency lane first, always: break-the-glass work never waits
        // behind bulk.
        match ctx.emergency.try_recv() {
            Ok(env) => {
                if matches!(env.job, Job::Shutdown) {
                    return WorkerExit::Shutdown;
                }
                if process(&ctx, env) {
                    return WorkerExit::Crashed;
                }
                continue;
            }
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => {}
        }
        // Then block (briefly) on the bulk lane; the timeout bounds how
        // long an emergency request can wait for a parked worker.
        match ctx.bulk.recv_timeout(EMERGENCY_POLL) {
            Ok(env) => {
                if matches!(env.job, Job::Shutdown) {
                    return WorkerExit::Shutdown;
                }
                if process(&ctx, env) {
                    return WorkerExit::Crashed;
                }
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                // Bulk senders all gone; drain any emergency leftovers,
                // then exit cleanly.
                while let Ok(env) = ctx.emergency.try_recv() {
                    if matches!(env.job, Job::Shutdown) {
                        return WorkerExit::Shutdown;
                    }
                    if process(&ctx, env) {
                        return WorkerExit::Crashed;
                    }
                }
                return WorkerExit::Shutdown;
            }
        }
    }
}

fn spawn_worker(index: usize, generation: u64, ctx: WorkerCtx) -> JoinHandle<WorkerExit> {
    std::thread::Builder::new()
        .name(format!("prima-serve-{index}.{generation}"))
        .spawn(move || worker_loop(ctx))
        .expect("spawn serve worker")
}

/// The supervisor: joins dead workers, respawns them, and trips the
/// service breaker on crash loops. The breaker is clocked on supervision
/// ticks (a logical round clock, like the federation breaker), so its
/// behaviour is a function of the configured interval, not wall-clock
/// noise.
/// How slow a per-tick p99 decision latency may be before the tick
/// counts against the `decision_p99` SLO budget (seconds).
const SLO_P99_TARGET_SECONDS: f64 = 1e-3;

/// Per-tick SLO accounting state: the previous tick's counter values,
/// so each supervision tick feeds the burn-rate windows a delta.
struct SloTicker {
    decisions: u64,
    shed: u64,
    panics: u64,
    latency: prima_obs::HistogramSnapshot,
}

impl SloTicker {
    fn new(obs: &ServeObs) -> Self {
        Self {
            decisions: obs.decisions.get(),
            shed: obs.shed.get(),
            panics: obs.worker_panics.get(),
            latency: obs.decision_latency.snapshot(),
        }
    }

    /// Feeds one supervision tick into the burn-rate windows.
    fn tick(&mut self, obs: &ServeObs, slo: &SloEngine) {
        let decisions = obs.decisions.get();
        let shed = obs.shed.get();
        let panics = obs.worker_panics.get();
        let d_dec = decisions.saturating_sub(self.decisions) as f64;
        let d_shed = shed.saturating_sub(self.shed) as f64;
        let d_panics = panics.saturating_sub(self.panics) as f64;
        // Shed rate: shed admissions never reach the decisions counter,
        // so offered load this tick is decided + shed.
        slo.record("shed_rate", d_shed, d_dec + d_shed);
        // Panic rate: a panicked request is abandoned before the
        // decisions counter, so it joins the denominator explicitly.
        slo.record("worker_panic_rate", d_panics, d_dec + d_panics);
        // Latency: a tick is bad when its own p99 (the delta histogram,
        // not the lifetime one) exceeds the target.
        let latency = obs.decision_latency.snapshot();
        if let Some(this_tick) = latency.delta(&self.latency) {
            let (bad, total) = if this_tick.count() == 0 {
                (0.0, 0.0) // quiet tick still ages the windows
            } else {
                match this_tick.quantile(0.99) {
                    Some(p99) if p99 > SLO_P99_TARGET_SECONDS => (1.0, 1.0),
                    _ => (0.0, 1.0),
                }
            };
            slo.record("decision_p99", bad, total);
        }
        self.decisions = decisions;
        self.shed = shed;
        self.panics = panics;
        self.latency = latency;
    }
}

/// Books one supervision tick on the restart breaker: `crashed` workers
/// died this tick, `all_alive` says no slot is left dead, and `clean`
/// counts the clean ticks (no crash, no dead worker) in a row. A
/// half-open breaker closes on a clean tick (its probe respawn survived);
/// a closed one forgets its failure streak only after `cooldown_rounds`
/// clean ticks in a row, so crashes a few ticks apart still add up to a
/// crash loop. Returns whether dead workers may be respawned.
fn breaker_tick(
    breaker: &mut CircuitBreaker,
    clean: &mut u64,
    tick: u64,
    crashed: usize,
    all_alive: bool,
) -> bool {
    if crashed > 0 {
        breaker.record_failure(tick);
    }
    let allows = breaker.allows(tick);
    *clean = if crashed == 0 && all_alive {
        *clean + 1
    } else {
        0
    };
    let forgets =
        breaker.state() == BreakerState::HalfOpen || *clean >= breaker.config().cooldown_rounds;
    if allows && *clean > 0 && forgets {
        breaker.record_success();
    }
    allows
}

fn supervisor_loop(
    shared: Arc<SupervisorShared>,
    ctx: WorkerCtx,
    interval: Duration,
    obs: ServeObs,
    slo: SloEngine,
) {
    let mut tick = 0u64;
    let mut clean = 0u64;
    let mut slo_ticker = SloTicker::new(&obs);
    let mut was_degraded = ctx.engine.is_degraded();
    while !shared.shutting_down.load(Ordering::Acquire) {
        std::thread::sleep(interval);
        tick += 1;
        let mut crashed = 0usize;
        let mut dead: Vec<usize> = Vec::new();
        {
            let mut slots = shared.slots.lock();
            for (i, slot) in slots.iter_mut().enumerate() {
                match slot {
                    Some(handle) if handle.is_finished() => {
                        let exit = slot.take().expect("slot checked Some").join();
                        match exit {
                            Ok(WorkerExit::Shutdown) => {}
                            // A caught crash, or a panic that escaped the
                            // per-job guard entirely.
                            Ok(WorkerExit::Crashed) | Err(_) => {
                                crashed += 1;
                                dead.push(i);
                            }
                        }
                    }
                    None => dead.push(i),
                    Some(_) => {}
                }
            }
        }
        let mut breaker = shared.breaker.lock();
        let before = breaker.state();
        if breaker_tick(&mut breaker, &mut clean, tick, crashed, dead.is_empty())
            && !dead.is_empty()
        {
            let mut slots = shared.slots.lock();
            for i in dead {
                if slots[i].is_none() {
                    slots[i] = Some(spawn_worker(i, tick, ctx.clone()));
                    shared.restarts.fetch_add(1, Ordering::Relaxed);
                    obs.worker_restarts.inc();
                }
            }
        }
        let after = breaker.state();
        if before != BreakerState::Open && after == BreakerState::Open {
            obs.breaker_open.inc();
            let mut span = obs.tracer.span("serve.breaker_open");
            span.field("tick", tick);
            drop(span);
            // The crash loop is exactly when the recent past matters:
            // dump the black box before the evidence is overwritten.
            obs.incident("breaker_open", 0);
        }
        // Installs are held (and the cache is read-only) until the
        // breaker proves the pool stable again.
        ctx.engine.hold_installs(after != BreakerState::Closed);
        // Degraded-mode *entry* (a failed install pinned last-known-good)
        // is an incident; staying degraded is not.
        let degraded = ctx.engine.is_degraded();
        if degraded && !was_degraded {
            obs.incident("degraded", 0);
        }
        was_degraded = degraded;
        slo_ticker.tick(&obs, &slo);
    }
}

impl PolicyService {
    /// Builds the engine over `policy`/`vocab` and starts the supervised
    /// worker pool.
    pub fn start(config: ServeConfig, policy: &Policy, vocab: &Vocabulary) -> Self {
        // The incident recorder: an explicit one wins, otherwise the
        // tracer's own (so a traced service dumps the spans it records).
        let flight = config
            .flight
            .clone()
            .unwrap_or_else(|| config.tracer.flight());
        let obs = ServeObs::with_flight(&config.metrics, config.tracer.clone(), flight);
        // The serving SLOs (burn-rate windows are clocked on supervision
        // ticks): p99 decision latency under 1ms, at most 5% of offered
        // load shed, at most 0.1% of requests lost to worker panics.
        let slo = SloEngine::new(&config.metrics);
        slo.track(SloSpec::new("decision_p99", 0.01));
        slo.track(SloSpec::new("shed_rate", 0.05));
        slo.track(SloSpec::new("worker_panic_rate", 0.001));
        let engine = Arc::new(DecisionEngine::new(
            policy,
            Arc::new(vocab.clone()),
            config.columns,
            obs.clone(),
        ));
        // Two bounded lanes: bulk exerts back-pressure (or sheds, when a
        // threshold is configured); emergency is drained first and never
        // shed.
        let (bulk_tx, bulk_rx) = bounded(config.queue_capacity);
        let (emergency_tx, emergency_rx) = bounded(config.emergency_capacity);
        let ctx = WorkerCtx {
            engine: Arc::clone(&engine),
            bulk: bulk_rx.clone(),
            emergency: emergency_rx.clone(),
            max_queue_age: config.max_queue_age,
            decision_delay: config.decision_delay,
            panic_token: config.panic_token.clone(),
        };
        let slots = (0..config.workers)
            .map(|i| Some(spawn_worker(i, 0, ctx.clone())))
            .collect();
        let sup = Arc::new(SupervisorShared {
            slots: Mutex::new(slots),
            breaker: Mutex::new(CircuitBreaker::new(config.breaker)),
            restarts: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        });
        let supervisor = {
            let shared = Arc::clone(&sup);
            let obs = obs.clone();
            let slo = slo.clone();
            let interval = config.supervision_interval;
            let ctx = ctx.clone();
            std::thread::Builder::new()
                .name("prima-serve-supervisor".into())
                .spawn(move || supervisor_loop(shared, ctx, interval, obs, slo))
                .expect("spawn serve supervisor")
        };
        Self {
            engine,
            bulk_tx,
            emergency_tx,
            bulk_rx,
            emergency_rx,
            closed: Arc::new(AtomicBool::new(false)),
            sup,
            supervisor: Some(supervisor),
            workers_configured: config.workers,
            shed_threshold: config.shed_threshold,
            slo,
        }
    }

    /// A cloneable client stub over the worker pool.
    pub fn handle(&self) -> InProcessTransport {
        InProcessTransport {
            bulk: self.bulk_tx.clone(),
            emergency: self.emergency_tx.clone(),
            engine: Arc::clone(&self.engine),
            closed: Arc::clone(&self.closed),
            shed_threshold: self.shed_threshold,
        }
    }

    /// A transport that bypasses the pool and calls the shared engine
    /// inline (tests; engine-floor measurements).
    pub fn direct(&self) -> DirectTransport {
        DirectTransport {
            engine: Arc::clone(&self.engine),
        }
    }

    /// The shared engine (for installs and uncached oracle probes).
    pub fn engine(&self) -> &Arc<DecisionEngine> {
        &self.engine
    }

    /// The serving-SLO burn-rate engine (dashboards, tests).
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// The flight recorder the incident paths dump into (disabled unless
    /// configured via [`ServeConfig::flight`] or a recording tracer).
    pub fn flight(&self) -> FlightRecorder {
        self.engine.obs().flight.clone()
    }

    /// Installs a new policy snapshot; every worker's next decision sees
    /// it. Returns `true` when the snapshot differed. A rejected or held
    /// install returns `false` and pins the last-known-good snapshot —
    /// use [`Self::try_install_policy`] to observe the reason.
    pub fn install_policy(&self, policy: &Policy) -> bool {
        self.engine.install_policy(policy)
    }

    /// Fallible install: surfaces validation failures and install holds
    /// (see [`DecisionEngine::try_install_policy`]).
    pub fn try_install_policy(&self, policy: &Policy) -> Result<bool, InstallError> {
        self.engine.try_install_policy(policy)
    }

    /// Samples service counters.
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            cache: self.engine.cache_stats(),
            decisions: self.engine.obs().decisions.get(),
            policy_revision: self.engine.policy_revision(),
        }
    }

    /// Samples the full health state machine: supervisor, breaker,
    /// degraded/pinned engine status, overload counters, lane depths.
    pub fn health(&self) -> ServeHealth {
        let workers_alive = {
            let slots = self.sup.slots.lock();
            slots
                .iter()
                .filter(|s| s.as_ref().is_some_and(|h| !h.is_finished()))
                .count()
        };
        let breaker = self.sup.breaker.lock().state();
        let obs = self.engine.obs();
        let degraded = self.engine.is_degraded();
        let installs_held = self.engine.installs_held();
        let state = if breaker != BreakerState::Closed {
            ServiceState::CrashLoop
        } else if degraded || installs_held || workers_alive < self.workers_configured {
            ServiceState::Degraded
        } else {
            ServiceState::Healthy
        };
        ServeHealth {
            state,
            policy_revision: self.engine.policy_revision(),
            degraded,
            installs_held,
            breaker,
            workers_configured: self.workers_configured,
            workers_alive,
            worker_restarts: self.sup.restarts.load(Ordering::Relaxed),
            worker_panics: obs.worker_panics.get(),
            shed: obs.shed.get(),
            deadline_expired: obs.deadline_expired.get(),
            queued_bulk: self.bulk_rx.len(),
            queued_emergency: self.emergency_rx.len(),
            slo: self.slo.health(),
            flight_dumps: obs.flight.dump_count(),
        }
    }

    /// Drains the pool and returns the final snapshot.
    ///
    /// Order matters for the no-hang guarantee: (1) new admissions are
    /// refused (`closed`), (2) the supervisor stops (no more respawns),
    /// (3) one poison pill per live worker is queued on the bulk lane —
    /// behind in-flight bulk work — and the workers are joined, (4) a
    /// detached reaper drains both lanes until every transport handle is
    /// dropped. Step (4) closes the classic shutdown race: a client that
    /// passed the `closed` check concurrently with shutdown may enqueue
    /// *behind* the pills; its envelope (and rendezvous reply sender) is
    /// dropped by the reaper, so its `recv` fails with
    /// [`ServeError::Closed`] instead of hanging forever.
    pub fn shutdown(mut self) -> ServeSnapshot {
        self.closed.store(true, Ordering::Release);
        self.sup.shutting_down.store(true, Ordering::Release);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let handles: Vec<JoinHandle<WorkerExit>> = {
            let mut slots = self.sup.slots.lock();
            slots.iter_mut().filter_map(|s| s.take()).collect()
        };
        for _ in 0..handles.len() {
            let _ = self.bulk_tx.send(Envelope {
                admitted: Instant::now(),
                job: Job::Shutdown,
            });
        }
        for handle in handles {
            let _ = handle.join();
        }
        // The reaper: drop leftover envelopes (failing their clients
        // closed) until both lanes disconnect — i.e. until the service's
        // own senders (dropped below) and every client handle are gone.
        let bulk_rx = self.bulk_rx.clone();
        let emergency_rx = self.emergency_rx.clone();
        std::thread::Builder::new()
            .name("prima-serve-reaper".into())
            .spawn(move || loop {
                let mut drained = false;
                let mut disconnected = 0;
                for rx in [&bulk_rx, &emergency_rx] {
                    match rx.try_recv() {
                        Ok(env) => {
                            drop(env);
                            drained = true;
                        }
                        Err(TryRecvError::Disconnected) => disconnected += 1,
                        Err(TryRecvError::Empty) => {}
                    }
                }
                if disconnected == 2 {
                    return;
                }
                if !drained {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
            .expect("spawn serve reaper");
        ServeSnapshot {
            cache: self.engine.cache_stats(),
            decisions: self.engine.obs().decisions.get(),
            policy_revision: self.engine.policy_revision(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DenyReason, Verdict};
    use prima_model::{Rule, StoreTag};
    use prima_vocab::{ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};

    fn fixture() -> (Policy, Vocabulary) {
        let vocab = Vocabulary::builder()
            .attribute(ATTR_DATA)
            .category("clinical", &["referral", "lab-result"])
            .attribute(ATTR_PURPOSE)
            .category("care", &["treatment"])
            .attribute(ATTR_AUTHORIZED)
            .category("staff", &["nurse", "physician"])
            .build()
            .expect("test vocabulary");
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[
                (ATTR_DATA, "referral"),
                (ATTR_PURPOSE, "treatment"),
                (ATTR_AUTHORIZED, "nurse"),
            ])],
        );
        (policy, vocab)
    }

    /// Runs `crashes` (one entry per tick: workers crashed that tick)
    /// through `breaker_tick` under threshold 3 and a 5-tick cooldown;
    /// a crash tick leaves its worker dead for that tick.
    fn breaker_after(crashes: &[usize]) -> BreakerState {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_rounds: 5,
        });
        let mut clean = 0;
        for (tick, &crashed) in crashes.iter().enumerate() {
            breaker_tick(&mut breaker, &mut clean, tick as u64, crashed, crashed == 0);
        }
        breaker.state()
    }

    #[test]
    fn clean_ticks_clear_a_closed_breakers_failure_streak() {
        // Two crashes (one short of the threshold), a cooldown's worth of
        // clean ticks, then one crash on the recovered pool: a new streak.
        assert_eq!(
            breaker_after(&[1, 1, 0, 0, 0, 0, 0, 1]),
            BreakerState::Closed
        );
    }

    #[test]
    fn crashes_spaced_by_clean_ticks_still_open_the_breaker() {
        // Fewer clean ticks between crashes than the cooldown: one loop.
        assert_eq!(breaker_after(&[1, 0, 1, 0, 1]), BreakerState::Open);
        assert_eq!(breaker_after(&[1, 0, 0, 0, 0, 1, 1]), BreakerState::Open);
    }

    fn allow_req() -> DecisionRequest {
        DecisionRequest::new("p-1", "nurse", "referral", "treatment", "granted")
    }

    #[test]
    fn pool_serves_decisions_from_many_clients() {
        let (policy, vocab) = fixture();
        let service = PolicyService::start(
            ServeConfig::new()
                .workers(4)
                .metrics(MetricsRegistry::new()),
            &policy,
            &vocab,
        );
        let handle = service.handle();
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    (0..50)
                        .map(|_| h.decide(allow_req()).expect("service up"))
                        .filter(|r| r.verdict.is_allow())
                        .count()
                })
            })
            .collect();
        let allowed: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(allowed, 400);
        let snap = service.shutdown();
        assert_eq!(snap.decisions, 400);
        // Concurrent cold misses can race before the first insert lands,
        // but once warm every decision hits.
        assert!(snap.cache.hits >= 390, "cache hits: {}", snap.cache.hits);
    }

    #[test]
    fn batch_replies_preserve_request_order() {
        let (policy, vocab) = fixture();
        let service = PolicyService::start(ServeConfig::new().workers(2), &policy, &vocab);
        let batch = vec![
            allow_req(),
            DecisionRequest::new("p-2", "physician", "referral", "treatment", "granted"),
            DecisionRequest::new("p-3", "nurse", "referral", "treatment", "opted-out"),
        ];
        let replies = service.handle().decide_batch(batch).expect("service up");
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0].verdict, Verdict::Allow);
        assert_eq!(replies[1].verdict, Verdict::Deny(DenyReason::PolicyDenied));
        assert_eq!(
            replies[2].verdict,
            Verdict::Deny(DenyReason::ConsentWithheld)
        );
        service.shutdown();
    }

    #[test]
    fn install_through_the_service_reaches_every_worker() {
        let (mut policy, vocab) = fixture();
        let service = PolicyService::start(ServeConfig::new().workers(3), &policy, &vocab);
        let handle = service.handle();
        let denied = DecisionRequest::new("p-1", "physician", "lab-result", "treatment", "granted");
        assert!(!handle.decide(denied.clone()).unwrap().verdict.is_allow());

        policy.push(Rule::of(&[
            (ATTR_DATA, "lab-result"),
            (ATTR_PURPOSE, "treatment"),
            (ATTR_AUTHORIZED, "physician"),
        ]));
        assert!(service.install_policy(&policy));
        // Every subsequent decision — from any worker — sees the new rule.
        for _ in 0..20 {
            assert!(handle.decide(denied.clone()).unwrap().verdict.is_allow());
        }
        service.shutdown();
    }

    #[test]
    fn requests_after_shutdown_fail_closed() {
        let (policy, vocab) = fixture();
        let service = PolicyService::start(ServeConfig::new().workers(1), &policy, &vocab);
        let handle = service.handle();
        service.shutdown();
        assert_eq!(handle.decide(allow_req()), Err(ServeError::Closed));
    }

    #[test]
    fn direct_transport_shares_the_pool_cache() {
        let (policy, vocab) = fixture();
        let service = PolicyService::start(ServeConfig::new().workers(1), &policy, &vocab);
        service.handle().decide(allow_req()).unwrap(); // warm via pool
        let direct = service.direct();
        direct.decide(allow_req()).unwrap(); // hit via direct path
        let snap = service.shutdown();
        assert_eq!(snap.cache.hits, 1);
        assert_eq!(snap.cache.misses, 1);
    }

    /// Regression (shutdown race): clients racing the poison pills must
    /// all resolve — a reply or `ServeError::Closed` — never a hang. The
    /// whole race runs under a watchdog so a regression fails fast
    /// instead of wedging the suite.
    #[test]
    fn clients_racing_shutdown_never_hang() {
        let (done_tx, done_rx) = bounded(1);
        std::thread::spawn(move || {
            for round in 0..20 {
                let (policy, vocab) = fixture();
                let service = PolicyService::start(ServeConfig::new().workers(2), &policy, &vocab);
                let handle = service.handle();
                let clients: Vec<_> = (0..4)
                    .map(|c| {
                        let h = handle.clone();
                        std::thread::spawn(move || {
                            let mut served = 0usize;
                            let mut closed = 0usize;
                            for _ in 0..50 {
                                match h.decide(allow_req()) {
                                    Ok(_) => served += 1,
                                    Err(ServeError::Closed) => closed += 1,
                                    Err(e) => panic!("unexpected error: {e} (client {c})"),
                                }
                            }
                            (served, closed)
                        })
                    })
                    .collect();
                // Shut down mid-flight: some decide() calls race the pills.
                if round % 2 == 0 {
                    std::thread::sleep(Duration::from_micros(50 * round as u64));
                }
                service.shutdown();
                for client in clients {
                    let (served, closed) = client.join().expect("client panicked");
                    assert_eq!(served + closed, 50, "every call resolved");
                }
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("shutdown race deadlocked: a racing client hung");
    }

    #[test]
    fn bulk_is_shed_with_srv011_while_emergency_is_served() {
        let (policy, vocab) = fixture();
        // Threshold 0: every bulk request is saturated at admission.
        let service = PolicyService::start(
            ServeConfig::new()
                .workers(1)
                .shed_threshold(0)
                .metrics(MetricsRegistry::new()),
            &policy,
            &vocab,
        );
        let handle = service.handle();
        let shed = handle.decide(allow_req()).unwrap();
        assert_eq!(shed.verdict, Verdict::Deny(DenyReason::Overloaded));
        // Emergency bypasses the shedder entirely.
        let urgent = handle.decide(allow_req().emergency()).unwrap();
        assert_eq!(urgent.verdict, Verdict::Allow);
        let health = service.health();
        assert_eq!(health.shed, 1);
        service.shutdown();
    }

    #[test]
    fn zero_deadline_budget_expires_at_enqueue() {
        let (policy, vocab) = fixture();
        let service = PolicyService::start(
            ServeConfig::new()
                .workers(1)
                .metrics(MetricsRegistry::new()),
            &policy,
            &vocab,
        );
        let reply = service
            .handle()
            .decide(allow_req().with_deadline_us(0))
            .unwrap();
        assert_eq!(reply.verdict, Verdict::Deny(DenyReason::DeadlineExceeded));
        assert_eq!(service.health().deadline_expired, 1);
        service.shutdown();
    }

    #[test]
    fn queued_work_past_its_deadline_is_abandoned() {
        let (policy, vocab) = fixture();
        // One slow worker: the first request occupies it long enough
        // that the second's 1µs budget expires in the queue.
        let service = PolicyService::start(
            ServeConfig::new()
                .workers(1)
                .decision_delay(Duration::from_millis(20)),
            &policy,
            &vocab,
        );
        let handle = service.handle();
        let occupy = {
            let h = handle.clone();
            std::thread::spawn(move || h.decide(allow_req()).unwrap())
        };
        std::thread::sleep(Duration::from_millis(2)); // let it reach the worker
        let reply = handle.decide(allow_req().with_deadline_us(1)).unwrap();
        assert_eq!(reply.verdict, Verdict::Deny(DenyReason::DeadlineExceeded));
        assert!(occupy.join().unwrap().verdict.is_allow());
        service.shutdown();
    }

    #[test]
    fn worker_panic_answers_fail_closed_and_supervisor_respawns() {
        let (policy, vocab) = fixture();
        let service = PolicyService::start(
            ServeConfig::new()
                .workers(2)
                .panic_token("☠")
                .supervision_interval(Duration::from_millis(1))
                .metrics(MetricsRegistry::new()),
            &policy,
            &vocab,
        );
        let handle = service.handle();
        let boom = DecisionRequest::new("☠", "nurse", "referral", "treatment", "granted");
        let reply = handle.decide(boom).unwrap();
        assert_eq!(reply.verdict, Verdict::Deny(DenyReason::Internal));
        // The supervisor notices the dead worker and respawns it.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = service.health();
            if health.worker_restarts >= 1 && health.workers_alive == 2 {
                break;
            }
            assert!(Instant::now() < deadline, "supervisor never respawned");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.health().worker_panics, 1);
        // Full service continues.
        assert!(handle.decide(allow_req()).unwrap().verdict.is_allow());
        service.shutdown();
    }

    #[test]
    fn crash_loop_trips_breaker_holds_installs_then_recovers() {
        let (mut policy, vocab) = fixture();
        let service = PolicyService::start(
            ServeConfig::new()
                .workers(1)
                .panic_token("☠")
                .supervision_interval(Duration::from_millis(1))
                .breaker(BreakerConfig {
                    failure_threshold: 1,
                    cooldown_rounds: 3,
                }),
            &policy,
            &vocab,
        );
        let handle = service.handle();
        let boom = DecisionRequest::new("☠", "nurse", "referral", "treatment", "granted");
        // Crash workers until the breaker opens.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.health().breaker == BreakerState::Closed {
            let _ = handle.decide(boom.clone());
            assert!(Instant::now() < deadline, "breaker never opened");
        }
        let health = service.health();
        assert_eq!(health.state, ServiceState::CrashLoop);
        assert!(health.installs_held);
        // Widening promotions are held while the breaker is open.
        policy.push(Rule::of(&[
            (ATTR_DATA, "lab-result"),
            (ATTR_PURPOSE, "treatment"),
            (ATTR_AUTHORIZED, "physician"),
        ]));
        assert_eq!(
            service.try_install_policy(&policy),
            Err(InstallError::InstallsHeld)
        );
        // Faults clear (no more panic traffic): cooldown elapses, the
        // probe respawn survives, the breaker closes, installs flow.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let health = service.health();
            if health.breaker == BreakerState::Closed && health.workers_alive == 1 {
                break;
            }
            assert!(Instant::now() < deadline, "breaker never closed");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(service.try_install_policy(&policy), Ok(true));
        let denied = DecisionRequest::new("p", "physician", "lab-result", "treatment", "granted");
        assert!(handle.decide(denied).unwrap().verdict.is_allow());
        assert!(service.health().healthy());
        service.shutdown();
    }

    #[test]
    fn failed_install_pins_last_known_good_and_reports_degraded() {
        let (policy, vocab) = fixture();
        let service = PolicyService::start(ServeConfig::new().workers(1), &policy, &vocab);
        let handle = service.handle();
        assert!(handle.decide(allow_req()).unwrap().verdict.is_allow());

        // A policy referencing a concept the vocabulary does not know.
        let mut bad = policy.clone();
        bad.push(Rule::of(&[
            (ATTR_DATA, "quantum-flux"),
            (ATTR_PURPOSE, "treatment"),
            (ATTR_AUTHORIZED, "nurse"),
        ]));
        let err = service.try_install_policy(&bad).unwrap_err();
        assert!(
            matches!(err, InstallError::UnknownConcept { ref concept, .. }
            if concept == "quantum-flux")
        );
        let health = service.health();
        assert!(health.degraded);
        assert_eq!(health.state, ServiceState::Degraded);
        // Pinned last-known-good still answers (fail-closed posture).
        assert_eq!(health.policy_revision, policy.revision());
        assert!(handle.decide(allow_req()).unwrap().verdict.is_allow());

        // The next valid install restores full service.
        assert_eq!(service.try_install_policy(&policy), Ok(false));
        assert!(service.health().healthy());
        service.shutdown();
    }
}
