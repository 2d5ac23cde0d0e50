//! The output check run after every quiesced cluster. A run whose check
//! fails prints no numbers.

use std::collections::BTreeMap;

use planet_storage::{Key, Replica, Value, VersionNo};

/// What the clients acknowledged, to be found in the final state.
pub enum Expected {
    /// Every key started at 0 and only committed `+1`s changed it.
    Increments {
        /// Committed `+1`s acknowledged to clients.
        acked: u64,
    },
    /// Ticket purchases: each draws `per` from a preloaded stock key and
    /// inserts one `order:` key.
    Ticket {
        /// Purchases acknowledged to clients.
        acked: u64,
        /// Tickets drawn per purchase.
        per: i64,
        /// Preloaded stock per event.
        stock: i64,
        /// Stock keys that were preloaded.
        stock_keys: Vec<Key>,
    },
}

/// One harvested replica.
pub struct ReplicaState<'a> {
    /// Its site.
    pub site: usize,
    /// Its shard.
    pub shard: usize,
    /// Its storage.
    pub storage: &'a Replica,
}

fn int(value: &Value) -> i64 {
    value.as_int().unwrap_or(0)
}

/// Committed keys with their version and value.
type Committed<'a> = BTreeMap<&'a Key, (VersionNo, &'a Value)>;

/// The keys `storage` holds a committed version of.
fn committed(storage: &Replica) -> Committed<'_> {
    let store = storage.store();
    store
        .keys()
        .filter_map(|k| {
            let record = store.record(k)?;
            (record.current_version() > 0)
                .then(|| (k, (record.current_version(), record.current_value())))
        })
        .collect()
}

/// Check convergence, recovery and the acknowledged totals.
pub fn check(replicas: &[ReplicaState<'_>], expected: &Expected) -> Result<(), String> {
    for r in replicas {
        let diverged = r.storage.verify_recovery();
        if !diverged.is_empty() {
            return Err(format!(
                "replica (site {}, shard {}) does not recover its state from its WAL: {} keys, e.g. {}",
                r.site,
                r.shard,
                diverged.len(),
                diverged[0]
            ));
        }
    }
    // Convergence: every replica of a shard holds the same committed keys
    // at the same version and value as the shard's site-0 replica. (A key
    // whose only options aborted stays interned with no version; it was
    // never written and does not count.)
    let heads: Vec<(&ReplicaState<'_>, Committed<'_>)> = replicas
        .iter()
        .filter(|r| r.site == 0)
        .map(|r| (r, committed(r.storage)))
        .collect();
    for (head, keys) in &heads {
        for r in replicas
            .iter()
            .filter(|r| r.shard == head.shard && r.site != 0)
        {
            let other = committed(r.storage);
            if let Some((key, at)) = keys.iter().find(|(k, v)| other.get(*k) != Some(*v)) {
                return Err(format!(
                    "shard {} diverged on {key}: site 0 has {at:?}, site {} has {:?}",
                    head.shard,
                    r.site,
                    other.get(key)
                ));
            }
            if other.len() != keys.len() {
                return Err(format!(
                    "shard {} diverged: site 0 holds {} committed keys, site {} holds {}",
                    head.shard,
                    keys.len(),
                    r.site,
                    other.len()
                ));
            }
        }
    }
    // Every key lives in exactly one shard, so the site-0 replicas hold
    // the whole keyspace once.
    let all = || {
        heads
            .iter()
            .flat_map(|(_, keys)| keys.iter().map(|(k, (_, v))| (*k, *v)))
    };
    match expected {
        Expected::Increments { acked } => {
            let sum: i64 = all().map(|(_, v)| int(v)).sum();
            if sum != *acked as i64 {
                return Err(format!(
                    "clients acknowledged {acked} committed +1s but the keys sum to {sum}"
                ));
            }
        }
        Expected::Ticket {
            acked,
            per,
            stock,
            stock_keys,
        } => {
            let mut drawn = 0i64;
            for key in stock_keys {
                let (_, left) = all()
                    .find(|(k, _)| *k == key)
                    .ok_or_else(|| format!("stock key {key} was never preloaded"))?;
                drawn += stock - int(left);
            }
            if drawn != per * *acked as i64 {
                return Err(format!(
                    "clients acknowledged {acked} purchases of {per} but {drawn} tickets left the stock"
                ));
            }
            let orders = all()
                .filter(|(k, _)| k.as_str().starts_with("order:"))
                .count() as u64;
            if orders != *acked {
                return Err(format!(
                    "clients acknowledged {acked} purchases but the store holds {orders} orders"
                ));
            }
        }
    }
    Ok(())
}

/// Give the checker a state whose keys sum to one less than the clients
/// acknowledged, and require it to notice; a consistent state must pass.
pub fn self_test() -> Result<(), String> {
    use planet_storage::TxnId;
    let mut stores: Vec<Replica> = (0..3).map(|_| Replica::new()).collect();
    for (i, name) in ["a", "b", "c"].iter().enumerate() {
        for replica in &mut stores {
            replica.install(
                &Key::new(*name),
                1,
                Value::Int(i as i64 + 1),
                TxnId::new(0, i as u64),
            );
        }
    }
    let states: Vec<ReplicaState<'_>> = stores
        .iter()
        .enumerate()
        .map(|(site, storage)| ReplicaState {
            site,
            shard: 0,
            storage,
        })
        .collect();
    check(&states, &Expected::Increments { acked: 6 })
        .map_err(|e| format!("checker rejected a consistent state: {e}"))?;
    match check(&states, &Expected::Increments { acked: 7 }) {
        Err(_) => Ok(()),
        Ok(()) => Err("checker missed an acknowledged increment that is not in the store".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_catches_a_missing_acknowledged_increment() {
        self_test().expect("self-test");
    }

    #[test]
    fn checker_catches_a_diverged_replica() {
        use planet_storage::TxnId;
        let mut stores: Vec<Replica> = (0..3).map(|_| Replica::new()).collect();
        for replica in &mut stores {
            replica.install(&Key::new("k"), 1, Value::Int(1), TxnId::new(0, 1));
        }
        stores[2].install(&Key::new("k"), 2, Value::Int(2), TxnId::new(0, 2));
        let states: Vec<ReplicaState<'_>> = stores
            .iter()
            .enumerate()
            .map(|(site, storage)| ReplicaState {
                site,
                shard: 0,
                storage,
            })
            .collect();
        let err = check(&states, &Expected::Increments { acked: 1 }).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }
}
