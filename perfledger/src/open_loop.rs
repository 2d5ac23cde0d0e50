//! The open-loop generator of `mixed-open`: one reactor task per site
//! sends requests on a seeded Poisson schedule whether or not earlier ones
//! have finished, and each completion is timed from when its request was
//! due, so a stall shows as latency on every request queued behind it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use planet_cluster::LoadRecord;
use planet_mdcc::{Msg, ReadLevel, TxnSpec};
use planet_sim::{Actor, ActorId, Context, DetRng, SimDuration, SimTime};
use planet_storage::{Key, WriteOp};

/// `ClientTimer.kind` of the generator's schedule tick.
const TICK: u32 = 0x0911;

/// Tags carry the request kind in their low bit: 1 = `+1`, 0 = read.
pub fn is_write_tag(tag: u64) -> bool {
    tag & 1 == 1
}

/// One site's open-loop generator.
pub struct OpenLoop {
    coordinator: ActorId,
    keys: Vec<Key>,
    rng: DetRng,
    /// Mean arrivals per µs at this site.
    rate_per_us: f64,
    /// Due time of the next request, in µs on the cluster clock.
    next_due_us: f64,
    next_seq: u64,
    inflight: HashMap<u64, SimTime>,
    results: Sender<LoadRecord>,
    armed: Arc<AtomicBool>,
    /// Lateness of each request sent while armed: send time − due time.
    pub lag_us: Vec<u64>,
    /// Most requests in flight at once while armed.
    pub outstanding_max: usize,
}

impl OpenLoop {
    /// A generator offering `rate` txn/s to `coordinator`, its schedule and
    /// request mix drawn from `seed`.
    pub fn new(
        coordinator: ActorId,
        keys: Vec<Key>,
        rate: f64,
        seed: u64,
        results: Sender<LoadRecord>,
        armed: Arc<AtomicBool>,
    ) -> Self {
        OpenLoop {
            coordinator,
            keys,
            rng: DetRng::new(seed),
            rate_per_us: rate / 1e6,
            next_due_us: 0.0,
            next_seq: 0,
            inflight: HashMap::new(),
            results,
            armed,
            lag_us: Vec::new(),
            outstanding_max: 0,
        }
    }

    fn gap_us(&mut self) -> f64 {
        self.rng.exponential(self.rate_per_us)
    }

    fn arm_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        let wait = (self.next_due_us - ctx.now().as_micros() as f64).max(1.0);
        ctx.schedule(
            SimDuration::from_micros(wait as u64),
            Msg::ClientTimer { kind: TICK, tag: 0 },
        );
    }

    /// Send every request that is due by now.
    fn send_due(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now().as_micros();
        let armed = self.armed.load(Ordering::Relaxed);
        let me = ctx.self_id();
        while self.next_due_us <= now as f64 {
            let due = SimTime::from_micros(self.next_due_us as u64);
            let key = self.keys[self.rng.index(self.keys.len())].clone();
            let write = self.rng.bernoulli(0.5);
            let spec = if write {
                TxnSpec::write_one(key, WriteOp::add(1))
            } else {
                TxnSpec {
                    reads: vec![key],
                    writes: Vec::new(),
                    read_level: ReadLevel::Quorum,
                }
            };
            let tag = self.next_seq << 1 | write as u64;
            self.next_seq += 1;
            self.inflight.insert(tag, due);
            ctx.send(
                self.coordinator,
                Msg::Submit {
                    spec,
                    reply_to: me,
                    tag,
                },
            );
            if armed {
                self.lag_us.push(now - due.as_micros());
                self.outstanding_max = self.outstanding_max.max(self.inflight.len());
            }
            self.next_due_us += self.gap_us();
        }
    }
}

impl Actor<Msg> for OpenLoop {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // The schedule opens with an arrival, so the generator is under
        // way (and set-up ends) as soon as the task starts.
        self.next_due_us = ctx.now().as_micros() as f64;
        self.send_due(ctx);
        self.arm_tick(ctx);
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::ClientTimer { kind: TICK, .. } => {
                self.send_due(ctx);
                self.arm_tick(ctx);
            }
            Msg::TxnDone {
                tag,
                outcome,
                stats,
                ..
            } => {
                if let Some(due) = self.inflight.remove(&tag) {
                    let _ = self.results.send(LoadRecord {
                        client: ctx.self_id().0,
                        tag,
                        outcome,
                        submitted: due,
                        decided: ctx.now(),
                        server_us: stats.server_us(),
                        quorum_wait_us: stats.quorum_wait_us(),
                    });
                }
            }
            _ => {}
        }
    }
}
