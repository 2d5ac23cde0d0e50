//! Per-layer metrics of the traced run, named after the modules they time.

use planet_mdcc::{ClusterConfig, CoordinatorActor, ReplicaActor, TxnSpec};
use planet_plan::TxnProgram;
use planet_sim::metrics::Histogram;
use planet_sim::{Actor, Metrics};
use planet_storage::WriteOp;
use planet_workload::ticket_program;

use crate::cluster::{actor_as, Harvest};
use crate::open_loop::OpenLoop;
use crate::stats::{hist_quantile, quantile, ratio};
use crate::trace::{kind_named, replay_wire, time_plans, Timed, TransportTracer, KINDS};
use crate::workload::{ticket_config, Fabric, Traffic, Workload};
use crate::{Metric, Phase};

/// Message kinds whose codec cost is reported. `Request` is the client's
/// submit: `Submit` on the ad hoc workloads, `SubmitPlan` on the ticket one.
const WIRE_KINDS: [&str; 7] = [
    "Request",
    "ReadReq",
    "ReadResp",
    "FastPropose",
    "Vote",
    "Decide",
    "TxnDone",
];
/// Coordinator handlers reported per kind.
const COORDINATOR_KINDS: [&str; 3] = ["Request", "ReadResp", "Vote"];
/// Replica handlers reported per kind (present on every workload).
const REPLICA_KINDS: [&str; 4] = ["ReadReq", "FastPropose", "Decide", "Apply"];
/// Replica handlers shown when present (the fast path's fallbacks).
const REPLICA_FALLBACK_KINDS: [&str; 2] = ["Propose", "Replicate"];

/// Kind indices behind a reported kind name.
fn kind_indices(name: &str) -> Vec<usize> {
    match name {
        "Request" => vec![kind_named("Submit"), kind_named("SubmitPlan")],
        other => vec![kind_named(other)],
    }
}

/// Handler timings merged across actors of one role: `(calls, total_ns,
/// samples)` per kind index.
struct RoleTimes {
    calls: Vec<u64>,
    total_ns: Vec<u64>,
    samples: Vec<Vec<u64>>,
}

impl RoleTimes {
    fn of<'a, A: 'static>(actors: impl Iterator<Item = &'a dyn Actor<planet_mdcc::Msg>>) -> Self {
        let mut t = RoleTimes {
            calls: vec![0; KINDS.len()],
            total_ns: vec![0; KINDS.len()],
            samples: vec![Vec::new(); KINDS.len()],
        };
        for actor in actors {
            let any: &dyn std::any::Any = actor;
            let timed = any
                .downcast_ref::<Timed<A>>()
                .expect("traced actors are wrapped");
            for (k, kind) in timed.kinds.iter().enumerate() {
                t.calls[k] += kind.calls;
                t.total_ns[k] += kind.total_ns;
                t.samples[k].extend_from_slice(&kind.ring);
            }
        }
        t
    }

    fn busy_ns(&self) -> f64 {
        self.total_ns.iter().sum::<u64>() as f64
    }

    fn calls_of(&self, name: &str) -> u64 {
        kind_indices(name).iter().map(|&k| self.calls[k]).sum()
    }

    fn p50_ns(&self, name: &str) -> f64 {
        let mut all: Vec<u64> = kind_indices(name)
            .iter()
            .flat_map(|&k| self.samples[k].iter().copied())
            .collect();
        quantile(&mut all, 0.5)
    }

    /// The kinds that actually arrived, for the human-readable notes.
    fn seen(&self, name: &str) -> String {
        kind_indices(name)
            .into_iter()
            .filter(|&k| self.calls[k] > 0)
            .map(|k| KINDS[k])
            .collect::<Vec<_>>()
            .join("+")
    }
}

fn merged<'a>(all: impl Iterator<Item = &'a Metrics>, name: &str) -> Histogram {
    let mut h = Histogram::new();
    for m in all {
        if let Some(x) = m.get_histogram(name) {
            h.merge(x);
        }
    }
    h
}

fn counter<'a>(all: impl Iterator<Item = &'a Metrics>, name: &str) -> u64 {
    all.map(|m| m.counter_value(name)).sum()
}

/// The programs the workload runs, or would run through a plan cache.
fn programs(w: &Workload) -> Vec<TxnProgram> {
    let concrete = |name: &str,
                    reads: &[planet_storage::Key],
                    writes: &[(planet_storage::Key, WriteOp)],
                    quorum| {
        TxnProgram::of_concrete(name, reads, writes, quorum)
            .expect("workload shape lowers to a program")
    };
    let keys = w.key_space();
    let increments = keys.iter().map(|k| {
        let spec = TxnSpec::write_one(k.clone(), WriteOp::add(1));
        concrete("increment", &spec.reads, &spec.writes, false)
    });
    match w.traffic {
        Traffic::Increments => increments.collect(),
        Traffic::MixedOpen => increments
            .chain(
                keys.iter()
                    .map(|k| concrete("quorum-read", std::slice::from_ref(k), &[], true)),
            )
            .collect(),
        Traffic::Ticket => (0..w.clients)
            .map(|k| ticket_program(&ticket_config(), k as u8))
            .collect(),
    }
}

/// Every per-layer metric of the traced run, plus extra lines for the
/// human-readable output. `tps` is `commit_tps` of the untraced and the
/// traced cluster.
pub fn metrics(
    w: &Workload,
    config: &ClusterConfig,
    phase: &Phase,
    h: &Harvest,
    tracer: &TransportTracer,
    tps: (f64, f64),
) -> (Vec<Metric>, Vec<Metric>) {
    let win = h.window.as_ref().expect("a measured cluster has a window");
    let txns = win.committed as f64;
    let per_txn = |x: f64| ratio(x, txns);
    let mut out = Vec::new();
    let mut extra = Vec::new();

    // transport
    let (calls, envelopes, send_ns) = tracer.totals();
    let (flushes, bytes) = match w.fabric {
        Fabric::Tcp => (phase.io.0 as f64, phase.io.1 as f64),
        Fabric::Channel => (calls as f64, 0.0),
    };
    out.push(Metric::new(
        "transport.send_ns_per_txn",
        per_txn(send_ns as f64),
        "ns",
    ));
    out.push(Metric::new(
        "transport.msgs_per_txn",
        per_txn(envelopes as f64),
        "count",
    ));
    out.push(Metric::new("transport.bytes_per_txn", per_txn(bytes), "B"));
    out.push(
        Metric::new("transport.flushes_per_txn", per_txn(flushes), "count").noted(match w.fabric {
            Fabric::Tcp => "socket writes",
            Fabric::Channel => "send/send_many calls",
        }),
    );
    out.push(Metric::new("transport.shed", h.shed as f64, "count"));
    out.push(Metric::new("transport.dropped", h.dropped as f64, "count"));

    // wire
    let mut samples = tracer.take_samples();
    for name in WIRE_KINDS {
        let idx = kind_indices(name);
        let seen = idx
            .iter()
            .filter(|&&k| !samples[k].is_empty())
            .map(|&k| KINDS[k])
            .collect::<Vec<_>>()
            .join("+");
        let mut envs = Vec::new();
        for &k in &idx {
            envs.append(&mut samples[k]);
        }
        let cost = replay_wire(&envs);
        let (enc, dec, b, n) = cost.map_or((0.0, 0.0, 0.0, 0), |c| {
            (c.encode_ns, c.decode_ns, c.bytes, c.samples)
        });
        let note = format!("{seen} n={n}");
        out.push(Metric::new(format!("wire.encode_ns.{name}"), enc, "ns").noted(note.clone()));
        out.push(Metric::new(format!("wire.decode_ns.{name}"), dec, "ns").noted(note.clone()));
        out.push(Metric::new(format!("wire.bytes.{name}"), b, "B").noted(note));
    }

    // reactor
    let servers = || {
        h.replicas
            .iter()
            .map(|r| &r.metrics)
            .chain(h.coordinators.iter().map(|c| &c.1))
    };
    let clients = || h.clients.iter().map(|c| &c.1);
    let every = || servers().chain(clients());
    let queue = merged(every(), "span.queue_us");
    let (busy, idle, drives, parks) = phase.reactor;
    out.push(Metric::new(
        "reactor.busy_frac",
        ratio(busy as f64, (busy + idle) as f64),
        "fraction",
    ));
    out.push(Metric::new(
        "reactor.drives_per_txn",
        per_txn(drives as f64),
        "count",
    ));
    out.push(Metric::new(
        "reactor.parks_per_txn",
        per_txn(parks as f64),
        "count",
    ));
    out.push(Metric::new(
        "reactor.steals_per_ktxn",
        per_txn(phase.steals as f64 * 1e3),
        "count",
    ));
    out.push(Metric::new(
        "reactor.queue_wait_p50_us",
        hist_quantile(&queue, 0.50),
        "us",
    ));
    out.push(Metric::new(
        "reactor.queue_wait_p99_us",
        hist_quantile(&queue, 0.99),
        "us",
    ));
    out.push(Metric::new(
        "reactor.batch_mean",
        merged(every(), "plane.batch").mean().unwrap_or(0.0),
        "count",
    ));
    out.push(Metric::new(
        "reactor.mailbox_hwm",
        merged(every(), "plane.mailbox.depth").max().unwrap_or(0) as f64,
        "count",
    ));

    // coordinator
    let coord = RoleTimes::of::<CoordinatorActor>(h.coordinators.iter().map(|c| c.0.as_ref()));
    let (mut hold, mut quorum) = (win.hold_us.clone(), win.quorum_us.clone());
    out.push(Metric::new(
        "coordinator.busy_ns_per_txn",
        per_txn(coord.busy_ns()),
        "ns",
    ));
    out.push(Metric::new(
        "coordinator.hold_p50_us",
        quantile(&mut hold, 0.50),
        "us",
    ));
    out.push(Metric::new(
        "coordinator.hold_p99_us",
        quantile(&mut hold, 0.99),
        "us",
    ));
    out.push(
        Metric::new(
            "coordinator.quorum_wait_p50_us",
            quantile(&mut quorum, 0.50),
            "us",
        )
        .noted(format!("n={} txns with proposals", quorum.len())),
    );
    out.push(Metric::new(
        "coordinator.quorum_wait_p99_us",
        quantile(&mut quorum, 0.99),
        "us",
    ));
    let coordinator_metrics = || h.coordinators.iter().map(|c| &c.1);
    out.push(Metric::new(
        "coordinator.fast_fallbacks_per_ktxn",
        ratio(
            counter(coordinator_metrics(), "txn.fast_fallbacks") as f64 * 1e3,
            h.records as f64,
        ),
        "count",
    ));
    for name in COORDINATOR_KINDS {
        out.push(
            Metric::new(
                format!("coordinator.{name}.p50_ns"),
                coord.p50_ns(name),
                "ns",
            )
            .noted(coord.seen(name)),
        );
        out.push(Metric::new(
            format!("coordinator.{name}.calls_per_txn"),
            per_txn(coord.calls_of(name) as f64),
            "count",
        ));
    }

    // plan
    let plan = time_plans(&programs(w), config);
    out.push(
        Metric::new("plan.compile_us", plan.compile_us, "us")
            .noted(format!("{} programs", programs(w).len())),
    );
    out.push(Metric::new("plan.register_ns", plan.register_ns, "ns"));
    out.push(Metric::new(
        "plan.fallback_interpreted",
        counter(coordinator_metrics(), "plan.fallback_interpreted") as f64,
        "count",
    ));

    // replica
    let replica = RoleTimes::of::<ReplicaActor>(h.replicas.iter().map(|r| r.actor.as_ref()));
    out.push(Metric::new(
        "replica.busy_ns_per_txn",
        per_txn(replica.busy_ns()),
        "ns",
    ));
    for name in REPLICA_KINDS {
        out.push(Metric::new(
            format!("replica.{name}.p50_ns"),
            replica.p50_ns(name),
            "ns",
        ));
    }
    for name in REPLICA_FALLBACK_KINDS {
        if replica.calls_of(name) > 0 {
            extra.push(Metric::new(
                format!("replica.{name}.p50_ns"),
                replica.p50_ns(name),
                "ns",
            ));
        }
    }

    // storage
    let storages: Vec<_> = h
        .replicas
        .iter()
        .map(|r| {
            (
                r.site,
                actor_as::<ReplicaActor>(r.actor.as_ref())
                    .expect("replica")
                    .storage(),
            )
        })
        .collect();
    let wal: u64 = storages.iter().map(|(_, s)| s.wal().next_lsn()).sum();
    let keys: usize = storages
        .iter()
        .filter(|(site, _)| *site == 0)
        .map(|(_, s)| s.store().len())
        .sum();
    let (accepted, rejected) = storages.iter().fold((0, 0), |(a, r), (_, s)| {
        let (sa, sr, _, _) = s.stats();
        (a + sa, r + sr)
    });
    out.push(
        Metric::new(
            "storage.wal_records_per_txn",
            ratio(wal as f64, h.records as f64),
            "count",
        )
        .noted("all replicas, over the cluster's life"),
    );
    out.push(Metric::new("storage.keys", keys as f64, "count"));
    out.push(Metric::new(
        "storage.checkpoints",
        counter(h.replicas.iter().map(|r| &r.metrics), "replica.checkpoints") as f64,
        "count",
    ));
    out.push(Metric::new(
        "storage.reject_frac",
        ratio(rejected as f64, (accepted + rejected) as f64),
        "fraction",
    ));

    // client
    let generators: Vec<&OpenLoop> = h
        .clients
        .iter()
        .flat_map(|(members, _)| {
            members
                .iter()
                .filter_map(|(_, a)| actor_as::<OpenLoop>(a.as_ref()))
        })
        .collect();
    let (lag_p99, lag_mean, outstanding) = if generators.is_empty() {
        // Closed loop: a request is due when the previous reply lands in
        // the client's mailbox, so the lag is that reply's mailbox wait.
        let wait = merged(clients(), "span.queue_us");
        (
            hist_quantile(&wait, 0.99),
            0.0,
            phase.outstanding_max as f64,
        )
    } else {
        let mut lag: Vec<u64> = generators
            .iter()
            .flat_map(|g| g.lag_us.iter().copied())
            .collect();
        let mean = ratio(lag.iter().sum::<u64>() as f64, lag.len() as f64);
        let max = generators.iter().map(|g| g.outstanding_max).sum::<usize>();
        (quantile(&mut lag, 0.99), mean, max as f64)
    };
    out.push(Metric::new("client.gen_lag_p99_us", lag_p99, "us"));
    out.push(Metric::new("client.outstanding_max", outstanding, "count"));

    // process
    out.push(Metric::new(
        "process.allocs_per_txn",
        per_txn(phase.allocs as f64),
        "count",
    ));

    // ledger: split the latency outside the coordinator into what was
    // measured and what is left.
    let mut latency = win.latency_us.clone();
    let mut outside = win.outside_us.clone();
    let p50 = quantile(&mut latency, 0.5);
    let outside_p50 = quantile(&mut outside, 0.5);
    let mean = |hist: Histogram| hist.mean().unwrap_or(0.0);
    let q_coordinator = mean(merged(coordinator_metrics(), "span.queue_us"));
    let q_client = mean(merged(clients(), "span.queue_us"));
    let send_call_us = ratio(send_ns as f64, calls as f64) / 1e3;
    let fabric_us = 2.0 * w.local_hop_us();
    let attributed = lag_mean + 2.0 * send_call_us + fabric_us + q_coordinator + q_client;
    out.push(Metric::new("ledger.unattributed_frac", ratio(outside_p50 - attributed, p50), "fraction").noted(format!(
        "p50 {p50:.0} us: outside coordinator {outside_p50:.0} = gen lag {lag_mean:.1} + 2 sends {:.1} + fabric {fabric_us:.1} + coordinator mailbox {q_coordinator:.1} + client mailbox {q_client:.1} + unattributed {:.1}",
        2.0 * send_call_us,
        outside_p50 - attributed
    )));
    let (plain_tps, traced_tps) = tps;
    out.push(
        Metric::new(
            "trace.overhead_frac",
            ratio(plain_tps - traced_tps, plain_tps),
            "fraction",
        )
        .noted(format!(
            "untraced {plain_tps:.0}/s, traced {traced_tps:.0}/s"
        )),
    );
    (out, extra)
}
