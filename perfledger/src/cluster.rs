//! The 3-site live cluster under test, assembled in one process from the
//! public APIs: `Reactor::spawn`/`spawn_pool` with `nproc` workers,
//! `TcpTransport` or `ChannelTransport::with_network`, `CoordinatorActor`,
//! `ReplicaActor`, and `LoadClient` (or the open-loop generator) as pool
//! tasks on the same workers.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use planet_cluster::{
    mailbox, ChannelTransport, Clock, Envelope, LoadClient, LoadRecord, NodeHandle, PlaneConfig,
    PoolHandle, PoolMembers, Reactor, TcpTransport, Transport,
};
use planet_mdcc::{ClusterConfig, CoordinatorActor, Msg, Outcome, Protocol, ReplicaActor, TxnSpec};
use planet_sim::{Actor, ActorId, Context, Metrics, SimDuration, SiteId};
use planet_storage::{Value, WriteOp};
use planet_workload::{stock_key, ticket_program, TicketPlanParams};

use crate::check::{Expected, ReplicaState};
use crate::open_loop::OpenLoop;
use crate::trace::{Timed, TimedTransport, TransportTracer};
use crate::workload::{
    lan, ticket_config, Fabric, Traffic, Workload, EVENTS, SITES, STOCK, TICKET_PLAN_BASE,
};

/// Longest a set-up step or a quiesce may take before the run fails.
const PATIENCE: Duration = Duration::from_secs(30);
/// Pause after the last reply so in-flight decides and applies land.
const SETTLE: Duration = Duration::from_millis(100);

/// The client-side transport wrapper every submitter sends through. It
/// counts the submits it lets through and, once closed, drops new ones, so
/// the benchmark can wait for exactly the replies still owed and then stop
/// a cluster whose acknowledged state is final.
pub struct Gate {
    inner: Arc<dyn Transport>,
    first_id: u32,
    seen: Vec<AtomicBool>,
    // Counters, except `closed`/`forwarded`, which pair up at SeqCst (see
    // `admit`).
    first: AtomicUsize,
    forwarded: AtomicU64,
    closed: AtomicBool,
}

impl Gate {
    fn new(inner: Arc<dyn Transport>, first_id: u32, submitters: usize) -> Self {
        Gate {
            inner,
            first_id,
            seen: (0..submitters).map(|_| AtomicBool::new(false)).collect(),
            first: AtomicUsize::new(0),
            forwarded: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    fn admit(&self, env: &Envelope) -> bool {
        if !matches!(env.msg, Msg::Submit { .. } | Msg::SubmitPlan { .. }) {
            return true;
        }
        // Count first, then look at `closed`: with both at SeqCst, a submit
        // that `close` raced with is either dropped (and uncounted again)
        // or counted before `close` returns and reads the total.
        self.forwarded.fetch_add(1, Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst) {
            self.forwarded.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        let idx = env.from.0.wrapping_sub(self.first_id) as usize;
        if let Some(seen) = self.seen.get(idx) {
            if !seen.load(Ordering::Relaxed) && !seen.swap(true, Ordering::Relaxed) {
                self.first.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    /// Submitters that have sent at least one submit.
    pub fn started(&self) -> usize {
        self.first.load(Ordering::Relaxed)
    }

    /// Submits let through so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::SeqCst)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }
}

impl Transport for Gate {
    fn send(&self, env: Envelope) {
        if self.admit(&env) {
            self.inner.send(env);
        }
    }

    fn send_many(&self, envs: &mut Vec<Envelope>) {
        envs.retain(|env| self.admit(env));
        self.inner.send_many(envs);
    }
}

/// Completed transactions of the measured window, reduced to what the
/// metrics need.
#[derive(Default)]
pub struct Window {
    /// Window bounds on the cluster clock, µs.
    pub start_us: u64,
    /// Exclusive end.
    pub end_us: u64,
    /// Committed transactions decided in the window.
    pub committed: u64,
    /// Aborted, timed-out or shed transactions decided in the window.
    pub failed: u64,
    /// Per committed transaction: client-observed latency, µs.
    pub latency_us: Vec<u64>,
    /// The same latencies, split into equal consecutive slices of the
    /// window by decision time.
    pub slices: Vec<Vec<u64>>,
    /// Per committed transaction: coordinator hold (submit to decision), µs.
    pub hold_us: Vec<u64>,
    /// Per committed transaction that sent proposals: quorum wait, µs.
    pub quorum_us: Vec<u64>,
    /// Per committed transaction: latency outside the coordinator, µs.
    pub outside_us: Vec<u64>,
}

/// Drains the completion channel, keeping cluster-lifetime totals for the
/// output check and the measured window's samples.
pub struct Recorder {
    rx: Receiver<LoadRecord>,
    workload: &'static Workload,
    /// Records received since the cluster started.
    pub total: u64,
    /// Committed writes acknowledged since the cluster started.
    pub acked: u64,
    /// Transactions committed since the cluster started.
    pub committed: u64,
    /// The measured window, once opened.
    pub window: Option<Window>,
}

impl Recorder {
    /// Receive everything queued so far.
    pub fn drain(&mut self) {
        while let Ok(record) = self.rx.try_recv() {
            self.total += 1;
            let committed = record.outcome == Outcome::Committed;
            self.committed += committed as u64;
            if self.workload.is_acked_write(&record) {
                self.acked += 1;
            }
            let Some(w) = &mut self.window else { continue };
            let decided = record.decided.as_micros();
            if decided < w.start_us || decided >= w.end_us {
                continue;
            }
            if !committed {
                w.failed += 1;
                continue;
            }
            w.committed += 1;
            let slice =
                ((decided - w.start_us) * w.slices.len() as u64 / (w.end_us - w.start_us)) as usize;
            w.slices[slice].push(record.latency_us());
            w.latency_us.push(record.latency_us());
            w.hold_us.push(record.server_us);
            w.outside_us.push(record.network_us());
            if record.quorum_wait_us > 0 {
                w.quorum_us.push(record.quorum_wait_us);
            }
        }
    }
}

/// The message fabric of one cluster.
enum Net {
    Tcp {
        sites: Vec<Arc<TcpTransport>>,
        client: Arc<TcpTransport>,
    },
    Channel(Arc<ChannelTransport>),
}

impl Net {
    fn build(
        workload: &Workload,
        clock: Clock,
        seed: u64,
        plane: &PlaneConfig,
    ) -> Result<Net, String> {
        Ok(match workload.fabric {
            Fabric::Tcp => {
                let sites: Vec<Arc<TcpTransport>> =
                    (0..SITES).map(|_| TcpTransport::new()).collect();
                let mut addrs = Vec::new();
                for t in &sites {
                    let any = "127.0.0.1:0".parse().expect("loopback address");
                    addrs.push(
                        t.listen(any)
                            .map_err(|e| format!("listen on loopback: {e}"))?,
                    );
                }
                let client = TcpTransport::new();
                let servers = (workload.shards + 1) * SITES;
                for t in sites.iter().chain(std::iter::once(&client)) {
                    for id in 0..servers {
                        // Replica (site, shard) = shard*n + site and
                        // coordinator shards*n + site live at `site`.
                        t.add_route(id as u32, addrs[id % SITES]);
                    }
                }
                Net::Tcp { sites, client }
            }
            Fabric::Channel => Net::Channel(ChannelTransport::with_network(
                clock,
                lan(),
                seed,
                plane.fabric_shards,
                plane.fabric_slack_us,
            )),
        })
    }

    /// Route actor `id` at `site` to `tx`; servers are hosted by their
    /// site's transport, clients by the client-side one.
    fn attach(&self, id: u32, site: usize, server: bool, tx: planet_cluster::MailboxSender) {
        match self {
            Net::Tcp { sites, client } => {
                if server {
                    sites[site].host(id, tx);
                } else {
                    client.host(id, tx);
                }
            }
            Net::Channel(ch) => ch.register(id, SiteId(site as u8), tx),
        }
    }

    fn server_side(&self, site: usize) -> Arc<dyn Transport> {
        match self {
            Net::Tcp { sites, .. } => sites[site].clone(),
            Net::Channel(ch) => ch.clone(),
        }
    }

    fn client_side(&self) -> Arc<dyn Transport> {
        match self {
            Net::Tcp { client, .. } => client.clone(),
            Net::Channel(ch) => ch.clone(),
        }
    }

    /// `(flushes, bytes)` written to sockets; zero on the channel fabric.
    fn io_stats(&self) -> (u64, u64) {
        match self {
            Net::Tcp { sites, client } => sites
                .iter()
                .chain(std::iter::once(client))
                .map(|t| t.io_stats())
                .fold((0, 0), |(f, b), (tf, tb)| (f + tf, b + tb)),
            Net::Channel(_) => (0, 0),
        }
    }

    fn shed_and_dropped(&self) -> (u64, u64) {
        match self {
            Net::Tcp { sites, client } => sites
                .iter()
                .chain(std::iter::once(client))
                .fold((0, 0), |(s, d), t| (s + t.shed(), d + t.dropped())),
            Net::Channel(ch) => (ch.shed(), ch.dropped()),
        }
    }

    fn stop(&self) {
        match self {
            Net::Tcp { sites, client } => {
                client.stop();
                for t in sites {
                    t.stop();
                }
            }
            Net::Channel(ch) => ch.stop(),
        }
    }
}

/// A running cluster with its load attached.
pub struct Live {
    /// The workload it runs.
    pub workload: &'static Workload,
    /// The cluster clock.
    pub clock: Clock,
    /// The reactor every actor runs on.
    pub reactor: Arc<Reactor>,
    /// The cluster configuration.
    pub config: ClusterConfig,
    /// Set for the measured window of a traced run.
    pub armed: Arc<AtomicBool>,
    /// Transport counters of a traced run.
    pub tracer: Option<Arc<TransportTracer>>,
    /// The client-side gate.
    pub gate: Arc<Gate>,
    /// The completion stream.
    pub recorder: Recorder,
    net: Net,
    servers: Vec<NodeHandle>,
    pools: Vec<PoolHandle>,
}

/// Everything recovered from a stopped cluster.
pub struct Harvest {
    /// Replicas with their metrics.
    pub replicas: Vec<StoppedReplica>,
    /// Coordinators with their metrics.
    pub coordinators: Vec<(Box<dyn Actor<Msg>>, Metrics)>,
    /// Client pools with their shared metrics.
    pub clients: Vec<(PoolMembers, Metrics)>,
    /// Submits shed at full mailboxes.
    pub shed: u64,
    /// Messages the fabric dropped.
    pub dropped: u64,
    /// Completions received over the cluster's life.
    pub records: u64,
    /// Committed writes acknowledged over the cluster's life.
    pub acked: u64,
    /// The measured window, if one was opened.
    pub window: Option<Window>,
}

/// A stopped replica actor, where it ran, and its metrics.
pub struct StoppedReplica {
    /// Its site.
    pub site: usize,
    /// Its shard.
    pub shard: usize,
    /// The actor, possibly inside a [`Timed`] wrapper.
    pub actor: Box<dyn Actor<Msg>>,
    /// Its task's metrics.
    pub metrics: Metrics,
}

/// `actor` as a `T`, seeing through a [`Timed`] wrapper.
pub fn actor_as<T: 'static>(actor: &dyn Actor<Msg>) -> Option<&T> {
    let any: &dyn Any = actor;
    any.downcast_ref::<T>()
        .or_else(|| any.downcast_ref::<Timed<T>>().map(|t| &t.inner))
}

impl Live {
    /// Build the cluster, preload, start the load, and wait until every
    /// submitter has sent its first request. Returns the cluster and the
    /// time all that took.
    pub fn start(
        workload: &'static Workload,
        seed: u64,
        traced: bool,
    ) -> Result<(Live, Duration), String> {
        let started = Instant::now();
        let n = SITES;
        let shards = workload.shards;
        let config = ClusterConfig::new(n, Protocol::Fast).with_shards(shards);
        let clock = Clock::new();
        let plane = PlaneConfig::default();
        let reactor = Reactor::new(clock, plane, seed);
        let armed = Arc::new(AtomicBool::new(false));
        let tracer = traced.then(|| TransportTracer::new(armed.clone()));
        let timed = |t: Arc<dyn Transport>| -> Arc<dyn Transport> {
            match &tracer {
                Some(tracer) => Arc::new(TimedTransport::new(t, tracer.clone())),
                None => t,
            }
        };
        let net = Net::build(workload, clock, seed, &plane)?;

        // Servers: every mailbox is routable before any actor starts.
        let replica_ids: Vec<ActorId> = (0..shards * n).map(|i| ActorId(i as u32)).collect();
        let mut hosted: Vec<(u32, usize, Box<dyn Actor<Msg>>)> = Vec::new();
        for shard in 0..shards {
            let peers = replica_ids[shard * n..(shard + 1) * n].to_vec();
            for site in 0..n {
                let replica = ReplicaActor::new(config.clone(), peers.clone(), shard);
                let actor: Box<dyn Actor<Msg>> = if traced {
                    Box::new(Timed::new(replica, armed.clone()))
                } else {
                    Box::new(replica)
                };
                hosted.push(((shard * n + site) as u32, site, actor));
            }
        }
        for site in 0..n {
            let coordinator =
                CoordinatorActor::new(config.clone(), replica_ids.clone(), SiteId(site as u8));
            let actor: Box<dyn Actor<Msg>> = if traced {
                Box::new(Timed::new(coordinator, armed.clone()))
            } else {
                Box::new(coordinator)
            };
            hosted.push(((shards * n + site) as u32, site, actor));
        }
        let server_sends: Vec<Arc<dyn Transport>> =
            (0..n).map(|s| timed(net.server_side(s))).collect();
        let mut boxes = Vec::new();
        for (id, site, actor) in hosted {
            let (tx, rx) = mailbox(plane.mailbox_capacity);
            net.attach(id, site, true, tx.clone());
            boxes.push((id, site, actor, tx, rx));
        }
        let servers: Vec<NodeHandle> = boxes
            .into_iter()
            .map(|(id, site, actor, tx, rx)| {
                reactor.spawn(
                    ActorId(id),
                    SiteId(site as u8),
                    actor,
                    tx,
                    rx,
                    server_sends[site].clone(),
                )
            })
            .collect();

        let client_base = ((shards + 1) * n) as u32;
        let coordinator = |site: usize| ActorId((shards * n + site) as u32);
        if workload.traffic == Traffic::Ticket {
            preload(&reactor, &net, client_base, coordinator(0), &plane)?;
        }

        // Submitters, as pool tasks on the same workers.
        let (records_tx, records_rx) = channel::<LoadRecord>();
        let submitters = if workload.is_open() {
            n
        } else {
            workload.clients
        };
        let first_id = client_base + 1;
        let gate = Arc::new(Gate::new(timed(net.client_side()), first_id, submitters));
        let mut pools = Vec::new();
        let mut next_id = first_id;
        for site in 0..n {
            let mut members: PoolMembers = Vec::new();
            if workload.is_open() {
                members.push((
                    ActorId(next_id),
                    Box::new(OpenLoop::new(
                        coordinator(site),
                        workload.key_space(),
                        workload.rate / n as f64,
                        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ site as u64,
                        records_tx.clone(),
                        armed.clone(),
                    )),
                ));
                next_id += 1;
            } else {
                for k in (0..workload.clients).filter(|k| k % n == site) {
                    let actor = closed_client(workload, k, coordinator(site), records_tx.clone());
                    members.push((ActorId(first_id + k as u32), actor));
                }
            }
            let chunk = members.len().div_ceil(reactor.workers()).max(1);
            let mut members = members.into_iter().peekable();
            while members.peek().is_some() {
                let group: PoolMembers = members.by_ref().take(chunk).collect();
                let (tx, rx) = mailbox(plane.mailbox_capacity);
                for (id, _) in &group {
                    net.attach(id.0, site, false, tx.clone());
                }
                pools.push(reactor.spawn_pool(
                    group,
                    SiteId(site as u8),
                    tx,
                    rx,
                    gate.clone() as Arc<dyn Transport>,
                ));
            }
        }
        drop(records_tx);
        let live = Live {
            workload,
            clock,
            reactor,
            config,
            armed,
            tracer,
            gate,
            recorder: Recorder {
                rx: records_rx,
                workload,
                total: 0,
                acked: 0,
                committed: 0,
                window: None,
            },
            net,
            servers,
            pools,
        };
        let deadline = Instant::now() + PATIENCE;
        while live.gate.started() < submitters {
            if Instant::now() > deadline {
                let started = live.gate.started();
                live.stop().ok();
                return Err(format!("only {started} of {submitters} submitters started"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((live, started.elapsed()))
    }

    /// `(flushes, bytes)` the sockets have written so far.
    pub fn io_stats(&self) -> (u64, u64) {
        self.net.io_stats()
    }

    /// Close the gate, wait for every reply still owed, let the last
    /// decides land, and stop everything.
    pub fn stop(mut self) -> Result<Harvest, String> {
        self.gate.close();
        let deadline = Instant::now() + PATIENCE;
        let quiesced = loop {
            self.recorder.drain();
            if self.recorder.total >= self.gate.forwarded() {
                break true;
            }
            if Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let owed = self.gate.forwarded().saturating_sub(self.recorder.total);
        std::thread::sleep(SETTLE);
        let clients = self.pools.into_iter().map(|p| p.stop_and_join()).collect();
        let mut coordinators = Vec::new();
        let mut replicas = Vec::new();
        let replica_count = self.workload.shards * SITES;
        for (i, node) in self.servers.into_iter().enumerate().rev() {
            let (actor, metrics) = node.stop_and_join();
            if i < replica_count {
                replicas.push(StoppedReplica {
                    site: i % SITES,
                    shard: i / SITES,
                    actor,
                    metrics,
                });
            } else {
                coordinators.push((actor, metrics));
            }
        }
        let (shed, dropped) = self.net.shed_and_dropped();
        self.net.stop();
        self.reactor.shutdown();
        if !quiesced {
            return Err(format!("{owed} submitted transactions never completed"));
        }
        let harvest = Harvest {
            replicas,
            coordinators,
            clients,
            shed,
            dropped,
            records: self.recorder.total,
            acked: self.recorder.acked,
            window: self.recorder.window,
        };
        harvest.check(self.workload)?;
        Ok(harvest)
    }
}

impl Harvest {
    /// The output check against what the clients acknowledged.
    fn check(&self, workload: &Workload) -> Result<(), String> {
        let acked = self.acked;
        let states: Vec<ReplicaState<'_>> = self
            .replicas
            .iter()
            .map(|r| ReplicaState {
                site: r.site,
                shard: r.shard,
                storage: actor_as::<ReplicaActor>(r.actor.as_ref())
                    .expect("replica slot holds a replica")
                    .storage(),
            })
            .collect();
        let expected = match workload.traffic {
            Traffic::Increments | Traffic::MixedOpen => Expected::Increments { acked },
            Traffic::Ticket => Expected::Ticket {
                acked,
                per: ticket_config().tickets_per_purchase,
                stock: STOCK,
                stock_keys: (0..EVENTS).map(stock_key).collect(),
            },
        };
        crate::check::check(&states, &expected)
    }
}

/// One closed-loop client: `planet-load`'s default `+1` mix, or a ticket
/// plan with a per-client order prefix.
fn closed_client(
    workload: &Workload,
    k: usize,
    coordinator: ActorId,
    results: Sender<LoadRecord>,
) -> Box<dyn Actor<Msg>> {
    let client = LoadClient::new(coordinator, workload.key_space(), results);
    match workload.traffic {
        Traffic::Ticket => {
            let cfg = ticket_config();
            assert!(k < 256, "ticket order prefixes are one byte");
            Box::new(client.with_plan(
                TICKET_PLAN_BASE + k as u32,
                ticket_program(&cfg, k as u8),
                TicketPlanParams::new(&cfg).into_source(),
            ))
        }
        _ => Box::new(client),
    }
}

/// Set every event's stock, pipelined from one client, and wait until all
/// of it is committed.
fn preload(
    reactor: &Arc<Reactor>,
    net: &Net,
    id: u32,
    coordinator: ActorId,
    plane: &PlaneConfig,
) -> Result<(), String> {
    let (done_tx, done_rx) = channel();
    let specs = (0..EVENTS)
        .map(|e| {
            Some(TxnSpec::write_one(
                stock_key(e),
                WriteOp::Set(Value::Int(STOCK)),
            ))
        })
        .collect();
    let (tx, rx) = mailbox(plane.mailbox_capacity);
    net.attach(id, 0, false, tx.clone());
    let node = reactor.spawn(
        ActorId(id),
        SiteId(0),
        Box::new(Preloader {
            coordinator,
            specs,
            left: EVENTS as usize,
            done: done_tx,
        }),
        tx,
        rx,
        net.client_side(),
    );
    let result = done_rx
        .recv_timeout(PATIENCE)
        .map_err(|_| "the stock preload did not commit".to_string());
    node.stop_and_join();
    result
}

/// `ClientTimer.kind` of the preloader's retry.
const RETRY: u32 = 0x0912;

/// Submits every preload write at once; `Set`s are idempotent, so a lost
/// or aborted one is simply sent again.
struct Preloader {
    coordinator: ActorId,
    specs: Vec<Option<TxnSpec>>,
    left: usize,
    done: Sender<()>,
}

impl Preloader {
    fn submit(&self, tag: usize, ctx: &mut Context<'_, Msg>) {
        if let Some(spec) = &self.specs[tag] {
            let me = ctx.self_id();
            ctx.send(
                self.coordinator,
                Msg::Submit {
                    spec: spec.clone(),
                    reply_to: me,
                    tag: tag as u64,
                },
            );
        }
    }

    fn submit_pending(&self, ctx: &mut Context<'_, Msg>) {
        for tag in 0..self.specs.len() {
            self.submit(tag, ctx);
        }
        ctx.schedule(
            SimDuration::from_secs(2),
            Msg::ClientTimer {
                kind: RETRY,
                tag: 0,
            },
        );
    }
}

impl Actor<Msg> for Preloader {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.submit_pending(ctx);
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::TxnDone { tag, outcome, .. } => {
                let tag = tag as usize;
                if outcome != Outcome::Committed {
                    self.submit(tag, ctx);
                } else if self.specs.get_mut(tag).and_then(Option::take).is_some() {
                    self.left -= 1;
                    if self.left == 0 {
                        let _ = self.done.send(());
                    }
                }
            }
            Msg::ClientTimer { kind: RETRY, .. } if self.left > 0 => self.submit_pending(ctx),
            _ => {}
        }
    }
}
