//! Adapters of the traced run. Each layer is timed from outside, around the
//! calls into its public functions:
//!
//! * [`Timed`] wraps an `Actor<Msg>` and times `on_message` per `Msg` kind;
//! * [`TimedTransport`] wraps a `Transport`, times `send`/`send_many`,
//!   counts envelopes and keeps a sample of them;
//! * [`replay_wire`] runs the sampled envelopes through `wire::encode_into`
//!   and `wire::decode_shared`;
//! * [`time_plans`] times `CompiledPlan::compile` and
//!   `CoordinatorActor::install_plan` on the workload's programs.
//!
//! Everything records only while the shared `armed` flag is set, which the
//! benchmark holds for exactly the measured window.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use planet_cluster::{wire, Envelope, Transport};
use planet_mdcc::{ClusterConfig, CoordinatorActor, Msg};
use planet_plan::{CompiledPlan, TxnProgram};
use planet_sim::{Actor, ActorId, Context, SiteId};

use crate::stats::quantile;

/// Names of the `Msg` variants, indexed by [`kind_index`].
pub const KINDS: [&str; 21] = [
    "Submit",
    "RegisterPlan",
    "SubmitPlan",
    "ReadReq",
    "FastPropose",
    "Propose",
    "Replicate",
    "Decide",
    "ReadResp",
    "Vote",
    "ReplicateAck",
    "Apply",
    "DropPending",
    "Progress",
    "TxnDone",
    "PlanReady",
    "Crash",
    "Recover",
    "ReplicaServiceDone",
    "TxnTimeout",
    "ClientTimer",
];

/// Index of `msg`'s variant in [`KINDS`].
pub fn kind_index(msg: &Msg) -> usize {
    match msg {
        Msg::Submit { .. } => 0,
        Msg::RegisterPlan { .. } => 1,
        Msg::SubmitPlan { .. } => 2,
        Msg::ReadReq { .. } => 3,
        Msg::FastPropose { .. } => 4,
        Msg::Propose { .. } => 5,
        Msg::Replicate { .. } => 6,
        Msg::Decide { .. } => 7,
        Msg::ReadResp { .. } => 8,
        Msg::Vote { .. } => 9,
        Msg::ReplicateAck { .. } => 10,
        Msg::Apply { .. } => 11,
        Msg::DropPending { .. } => 12,
        Msg::Progress { .. } => 13,
        Msg::TxnDone { .. } => 14,
        Msg::PlanReady { .. } => 15,
        Msg::Crash => 16,
        Msg::Recover => 17,
        Msg::ReplicaServiceDone => 18,
        Msg::TxnTimeout { .. } => 19,
        Msg::ClientTimer { .. } => 20,
    }
}

/// Index of a kind name in [`KINDS`].
pub fn kind_named(name: &str) -> usize {
    KINDS
        .iter()
        .position(|k| *k == name)
        .expect("known message kind")
}

/// Most recent handler durations kept per kind and actor.
const RING: usize = 1 << 16;

/// Handler timings of one message kind at one actor.
#[derive(Default)]
pub struct KindTimes {
    /// Calls while armed.
    pub calls: u64,
    /// Total ns spent in those calls.
    pub total_ns: u64,
    /// The latest durations (a ring of at most [`RING`] entries).
    pub ring: Vec<u64>,
}

impl KindTimes {
    fn record(&mut self, ns: u64) {
        if self.ring.len() < RING {
            self.ring.push(ns);
        } else {
            self.ring[(self.calls as usize) % RING] = ns;
        }
        self.calls += 1;
        self.total_ns += ns;
    }
}

/// An actor whose `on_message` is timed per message kind.
pub struct Timed<A> {
    /// The wrapped actor.
    pub inner: A,
    /// Timings per kind, indexed like [`KINDS`].
    pub kinds: Vec<KindTimes>,
    armed: Arc<AtomicBool>,
}

impl<A> Timed<A> {
    /// Wrap `inner`, recording while `armed` is set.
    pub fn new(inner: A, armed: Arc<AtomicBool>) -> Self {
        Timed {
            inner,
            kinds: (0..KINDS.len()).map(|_| KindTimes::default()).collect(),
            armed,
        }
    }
}

impl<A: Actor<Msg>> Actor<Msg> for Timed<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if !self.armed.load(Ordering::Relaxed) {
            return self.inner.on_message(from, msg, ctx);
        }
        let kind = kind_index(&msg);
        let start = Instant::now();
        self.inner.on_message(from, msg, ctx);
        let ns = start.elapsed().as_nanos() as u64;
        self.kinds[kind].record(ns);
    }
}

/// One envelope in this many is kept for the wire replay.
const SAMPLE_EVERY: u64 = 61;
/// Envelopes kept per kind.
const SAMPLES_PER_KIND: usize = 256;

/// Counters shared by every [`TimedTransport`] of one cluster.
pub struct TransportTracer {
    armed: Arc<AtomicBool>,
    // Statistics only; none of these words publishes other data.
    calls: AtomicU64,
    envelopes: AtomicU64,
    ns: AtomicU64,
    tick: AtomicU64,
    samples: Mutex<Vec<Vec<Envelope>>>,
}

impl TransportTracer {
    /// A tracer recording while `armed` is set.
    pub fn new(armed: Arc<AtomicBool>) -> Arc<Self> {
        Arc::new(TransportTracer {
            armed,
            calls: AtomicU64::new(0),
            envelopes: AtomicU64::new(0),
            ns: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            samples: Mutex::new((0..KINDS.len()).map(|_| Vec::new()).collect()),
        })
    }

    fn sample(&self, env: &Envelope) {
        if !self
            .tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            return;
        }
        let mut samples = self.samples.lock().expect("sample lock poisoned");
        let kept = &mut samples[kind_index(&env.msg)];
        if kept.len() < SAMPLES_PER_KIND {
            kept.push(env.clone());
        }
    }

    fn note(&self, envelopes: usize, start: Instant) {
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.envelopes
            .fetch_add(envelopes as u64, Ordering::Relaxed);
    }

    /// `(calls, envelopes, ns)` recorded so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.envelopes.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }

    /// The sampled envelopes, per kind.
    pub fn take_samples(&self) -> Vec<Vec<Envelope>> {
        std::mem::take(&mut *self.samples.lock().expect("sample lock poisoned"))
    }
}

/// A transport whose sends are timed and counted.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<TransportTracer>,
}

impl TimedTransport {
    /// Wrap `inner`, reporting to `tracer`.
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<TransportTracer>) -> Self {
        TimedTransport { inner, tracer }
    }
}

impl Transport for TimedTransport {
    fn send(&self, env: Envelope) {
        if !self.tracer.armed.load(Ordering::Relaxed) {
            return self.inner.send(env);
        }
        self.tracer.sample(&env);
        let start = Instant::now();
        self.inner.send(env);
        self.tracer.note(1, start);
    }

    fn send_many(&self, envs: &mut Vec<Envelope>) {
        if !self.tracer.armed.load(Ordering::Relaxed) {
            return self.inner.send_many(envs);
        }
        for env in envs.iter() {
            self.tracer.sample(env);
        }
        let n = envs.len();
        let start = Instant::now();
        self.inner.send_many(envs);
        self.tracer.note(n, start);
    }
}

/// Codec cost of one message kind, from the replayed samples.
pub struct WireCost {
    /// Median ns per `encode_into`.
    pub encode_ns: f64,
    /// Median ns per `decode_shared`.
    pub decode_ns: f64,
    /// Mean encoded payload bytes.
    pub bytes: f64,
    /// Envelopes replayed.
    pub samples: usize,
}

/// Replays per envelope: enough to lift a sub-µs call well above the
/// clock's resolution.
const REPLAYS: u32 = 64;

/// Replay `envs` through the codec; `None` when there is nothing to
/// replay.
pub fn replay_wire(envs: &[Envelope]) -> Option<WireCost> {
    if envs.is_empty() {
        return None;
    }
    let mut buf = Vec::with_capacity(4096);
    let mut encode = Vec::with_capacity(envs.len());
    let mut decode = Vec::with_capacity(envs.len());
    let mut bytes = 0usize;
    for env in envs {
        let start = Instant::now();
        for _ in 0..REPLAYS {
            buf.clear();
            wire::encode_into(black_box(env), &mut buf);
            black_box(&buf);
        }
        encode.push(start.elapsed().as_nanos() as u64 * 1000 / REPLAYS as u64);
        bytes += buf.len();
        let frame: Arc<[u8]> = Arc::from(buf.as_slice());
        let start = Instant::now();
        for _ in 0..REPLAYS {
            let decoded = wire::decode_shared(black_box(&frame), 0, frame.len())
                .expect("a sampled envelope decodes");
            black_box(decoded);
        }
        decode.push(start.elapsed().as_nanos() as u64 * 1000 / REPLAYS as u64);
    }
    Some(WireCost {
        encode_ns: quantile(&mut encode, 0.5) / 1000.0,
        decode_ns: quantile(&mut decode, 0.5) / 1000.0,
        bytes: bytes as f64 / envs.len() as f64,
        samples: envs.len(),
    })
}

/// Median cost of the plan layer on a workload's programs.
pub struct PlanCost {
    /// Median µs per `CompiledPlan::compile`.
    pub compile_us: f64,
    /// Median ns per `CoordinatorActor::install_plan` (compile + register).
    pub register_ns: f64,
}

/// Passes over the program list; the median smooths out a cold first pass.
const PLAN_PASSES: usize = 5;

/// Time compiling and registering each of `programs` against `config`.
pub fn time_plans(programs: &[TxnProgram], config: &ClusterConfig) -> PlanCost {
    let replicas: Vec<ActorId> = (0..config.num_sites * config.num_shards)
        .map(|i| ActorId(i as u32))
        .collect();
    let mut coordinator = CoordinatorActor::new(config.clone(), replicas, SiteId(0));
    let mut compile = Vec::new();
    let mut register = Vec::new();
    for _ in 0..PLAN_PASSES {
        for (id, program) in programs.iter().enumerate() {
            let copy = program.clone();
            let start = Instant::now();
            let plan = CompiledPlan::compile(copy, config).expect("workload program compiles");
            compile.push(start.elapsed().as_nanos() as u64);
            black_box(plan);
            let copy = program.clone();
            let start = Instant::now();
            coordinator
                .install_plan(id as u32, copy)
                .expect("workload program registers");
            register.push(start.elapsed().as_nanos() as u64);
        }
    }
    PlanCost {
        compile_us: quantile(&mut compile, 0.5) / 1000.0,
        register_ns: quantile(&mut register, 0.5),
    }
}
