//! End-to-end commit over the TCP transport.
//!
//! Three "processes" (three `TcpTransport`s with their own listeners, as
//! three `planetd` instances would be) each host one replica and one
//! coordinator. A bare TCP client — no transport at all, just the wire
//! format, exactly what `planet-load` speaks — connects to site 0, submits
//! a transaction and reads its progress and outcome off the same
//! connection, exercising the learned-reply-route path.
//!
//! A second test bursts 1 000 frames down one connection in one write and
//! checks the buffered receive path delivers every one, in order.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use planet_cluster::wire;
use planet_cluster::{
    mailbox, spawn_node, Clock, Envelope, Packet, PlaneConfig, TcpTransport, Transport,
};
use planet_mdcc::{ClusterConfig, CoordinatorActor, Msg, Outcome, Protocol, ReplicaActor, TxnSpec};
use planet_sim::{Actor, ActorId, SiteId};
use planet_storage::{Key, WriteOp};

#[test]
fn commit_round_trips_over_tcp() {
    let n = 3usize;
    let config = ClusterConfig::new(n, Protocol::Fast);
    let clock = Clock::new();
    let replica_ids: Vec<ActorId> = (0..n).map(|i| ActorId(i as u32)).collect();

    // One transport + listener per site.
    let transports: Vec<Arc<TcpTransport>> = (0..n).map(|_| TcpTransport::new()).collect();
    let addrs: Vec<_> = transports
        .iter()
        .map(|t| t.listen("127.0.0.1:0".parse().unwrap()).expect("bind"))
        .collect();
    for t in &transports {
        for (site, addr) in addrs.iter().enumerate() {
            t.add_route(site as u32, *addr);
            t.add_route((n + site) as u32, *addr);
        }
    }

    // Site i hosts replica i and coordinator n+i.
    let plane = PlaneConfig::default();
    let mut nodes = Vec::new();
    for (site, transport) in transports.iter().enumerate() {
        let replica: Box<dyn Actor<Msg>> =
            Box::new(ReplicaActor::new(config.clone(), replica_ids.clone(), 0));
        let coordinator: Box<dyn Actor<Msg>> = Box::new(CoordinatorActor::new(
            config.clone(),
            replica_ids.clone(),
            SiteId(site as u8),
        ));
        for (id, actor) in [(site as u32, replica), ((n + site) as u32, coordinator)] {
            let (tx, rx) = mailbox(plane.mailbox_capacity);
            transport.host(id, tx.clone());
            nodes.push(spawn_node(
                ActorId(id),
                SiteId(site as u8),
                actor,
                tx,
                rx,
                transport.clone() as Arc<dyn Transport>,
                clock,
                7,
                plane,
            ));
        }
    }

    // The bare wire-format client.
    let client_id = ActorId(100);
    let coordinator0 = ActorId(n as u32); // coordinator of site 0
    let mut conn = TcpStream::connect(addrs[0]).expect("connect to site 0");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let spec = TxnSpec::write_one(Key::new("tcp-key"), WriteOp::add(5));
    wire::write_frame(
        &mut conn,
        &Envelope {
            from: client_id,
            to: coordinator0,
            msg: Msg::Submit {
                spec,
                reply_to: client_id,
                tag: 42,
            },
        },
    )
    .expect("submit over tcp");

    let mut outcome = None;
    let mut progress_events = 0;
    while outcome.is_none() {
        let env = wire::read_frame(&mut conn)
            .expect("read reply frame")
            .expect("connection stays open until the outcome");
        assert_eq!(env.to, client_id, "replies are addressed to the client");
        match env.msg {
            Msg::Progress { tag, .. } => {
                assert_eq!(tag, 42);
                progress_events += 1;
            }
            Msg::TxnDone {
                tag, outcome: o, ..
            } => {
                assert_eq!(tag, 42);
                outcome = Some(o);
            }
            other => panic!("unexpected message for client: {other:?}"),
        }
    }
    assert_eq!(outcome, Some(Outcome::Committed), "the write must commit");
    assert!(progress_events > 0, "progress flows before the outcome");

    // The committed value must have propagated to every replica.
    std::thread::sleep(Duration::from_millis(200));
    for node in nodes {
        let (actor, _metrics) = node.stop_and_join();
        let any: &dyn std::any::Any = actor.as_ref();
        if let Some(replica) = any.downcast_ref::<ReplicaActor>() {
            let value = replica.storage().read(&Key::new("tcp-key")).value;
            assert_eq!(
                value.as_int(),
                Some(5),
                "replica converged to the committed value"
            );
        }
    }
    for t in &transports {
        t.stop();
    }
}

#[test]
fn a_single_write_burst_arrives_complete_and_in_order() {
    const FRAMES: u64 = 1_000;
    let transport = TcpTransport::new();
    let addr = transport
        .listen("127.0.0.1:0".parse().unwrap())
        .expect("bind");
    let target = ActorId(7);
    // Smaller than the burst: the reader must block on the full mailbox
    // (protocol traffic is never shed) while this thread drains it.
    let (tx, rx) = mailbox(64);
    transport.host(target.0, tx);

    let mut burst = Vec::new();
    for tag in 0..FRAMES {
        wire::encode_frame_into(
            &Envelope {
                from: ActorId(100),
                to: target,
                msg: Msg::ClientTimer { kind: 1, tag },
            },
            &mut burst,
        );
    }
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(&burst).expect("one write of every frame");

    for expected in 0..FRAMES {
        let packet = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("frame {expected} never arrived: {e:?}"));
        let Packet::Env(env) = packet else {
            panic!("frame {expected}: not an envelope");
        };
        assert_eq!((env.from, env.to), (ActorId(100), target));
        match env.msg {
            Msg::ClientTimer { kind: 1, tag } => assert_eq!(tag, expected, "per-pair FIFO"),
            other => panic!("frame {expected}: unexpected {other:?}"),
        }
    }
    assert!(
        rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "nothing beyond the burst"
    );
    assert_eq!(transport.dropped(), 0);
    assert_eq!(transport.shed(), 0);
    drop(conn);
    transport.stop();
}
