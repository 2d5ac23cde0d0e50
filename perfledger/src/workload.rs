//! The three workloads and their fixed parameters.

use planet_cluster::LoadRecord;
use planet_mdcc::Outcome;
use planet_sim::NetworkModel;
use planet_storage::Key;
use planet_workload::TicketConfig;

/// Sites in every workload's cluster.
pub const SITES: usize = 3;
/// Modelled cross-site round trip on the channel fabric, in ms.
pub const CHANNEL_RTT_MS: f64 = 2.0;
/// Modelled round trip inside one site on the channel fabric, in ms.
pub const CHANNEL_LOCAL_RTT_MS: f64 = 0.1;
/// Preloaded stock per ticket event: no bounded decrement reaches its floor.
pub const STOCK: i64 = 1_000_000_000;
/// Ticket events on sale.
pub const EVENTS: u64 = 64;
/// Ticket plan ids are per client: `TICKET_PLAN_BASE + client index`.
pub const TICKET_PLAN_BASE: u32 = 1000;

/// How messages travel between the sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `TcpTransport` over loopback: one server transport per site and one
    /// client-side transport, as `planetd` and `planet-load` deploy.
    Tcp,
    /// `ChannelTransport` with the modelled 2 ms cross-site RTT.
    Channel,
}

/// What the clients submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Closed loop of ad hoc single-key `+1`s over uniform keys.
    Increments,
    /// Closed loop of installed ticket plans.
    Ticket,
    /// Open loop: half quorum point reads, half `+1`s, ad hoc.
    MixedOpen,
}

/// One workload: a fixed cluster and traffic shape.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Message fabric.
    pub fabric: Fabric,
    /// Replica shards per site.
    pub shards: usize,
    /// Traffic shape.
    pub traffic: Traffic,
    /// Closed-loop clients (0 for the open loop).
    pub clients: usize,
    /// Offered rate of the open loop in txn/s, across all sites.
    pub rate: f64,
    /// Keys of the ad hoc traffic.
    pub keys: u64,
    /// `peak_rss_mb` is read when this many transactions have committed
    /// since the cluster started, so it compares equal work across builds.
    pub rss_at_commits: u64,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ycsb-tcp",
        fabric: Fabric::Tcp,
        shards: 1,
        traffic: Traffic::Increments,
        clients: 1024,
        rate: 0.0,
        keys: 64,
        rss_at_commits: 40_000,
    },
    Workload {
        name: "ticket-channel",
        fabric: Fabric::Channel,
        shards: 2,
        traffic: Traffic::Ticket,
        clients: 256,
        rate: 0.0,
        keys: EVENTS,
        rss_at_commits: 40_000,
    },
    Workload {
        name: "mixed-open",
        fabric: Fabric::Channel,
        shards: 1,
        traffic: Traffic::MixedOpen,
        clients: 0,
        rate: 12_000.0,
        keys: 64,
        rss_at_commits: 40_000,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's parameters as a JSON object, for provenance.
    pub fn params_json(&self) -> String {
        format!(
            "{{\"sites\": {SITES}, \"protocol\": \"fast\", \"fabric\": \"{}\", \"shards\": {}, \"loop\": \"{}\", \"clients\": {}, \"rate_txn_per_s\": {}, \"keys\": {}, \"rss_at_commits\": {}, \"cross_site_rtt_ms\": {}}}",
            match self.fabric {
                Fabric::Tcp => "tcp",
                Fabric::Channel => "channel",
            },
            self.shards,
            if self.is_open() { "open" } else { "closed" },
            self.clients,
            self.rate,
            self.keys,
            self.rss_at_commits,
            match self.fabric {
                Fabric::Tcp => 0.0,
                Fabric::Channel => CHANNEL_RTT_MS,
            },
        )
    }

    /// True for the open-loop workload.
    pub fn is_open(&self) -> bool {
        self.traffic == Traffic::MixedOpen
    }

    /// Keys of the ad hoc traffic (`load-{i}`, as `planet-load` names them).
    pub fn key_space(&self) -> Vec<Key> {
        (0..self.keys)
            .map(|i| Key::new(format!("load-{i}")))
            .collect()
    }

    /// The modelled one-way delay between a client and its local
    /// coordinator, in µs (0 on tcp, where the delay is real).
    pub fn local_hop_us(&self) -> f64 {
        match self.fabric {
            Fabric::Tcp => 0.0,
            Fabric::Channel => CHANNEL_LOCAL_RTT_MS * 1000.0 / 2.0,
        }
    }

    /// True if a completed record was a committed `+1` (every committed
    /// record is one, except the open loop's reads).
    pub fn is_acked_write(&self, record: &LoadRecord) -> bool {
        record.outcome == Outcome::Committed
            && match self.traffic {
                Traffic::Increments | Traffic::Ticket => true,
                Traffic::MixedOpen => crate::open_loop::is_write_tag(record.tag),
            }
    }
}

/// The ticket workload's configuration.
pub fn ticket_config() -> TicketConfig {
    TicketConfig {
        events: EVENTS,
        initial_stock: STOCK,
        ..Default::default()
    }
}

/// The channel fabric's delay model.
pub fn lan() -> NetworkModel {
    let rtt: Vec<Vec<f64>> = (0..SITES)
        .map(|i| {
            (0..SITES)
                .map(|j| {
                    if i == j {
                        CHANNEL_LOCAL_RTT_MS
                    } else {
                        CHANNEL_RTT_MS
                    }
                })
                .collect()
        })
        .collect();
    NetworkModel::from_rtt_ms(&rtt)
}
