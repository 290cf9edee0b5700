//! One contract, both hosts: what the `Transport` trait promises, checked
//! by the same generic test on the simulator and over real sockets.

use moara_simnet::latency::Constant;
use moara_simnet::{NodeId, SimDuration, TimerTag};
use moara_transport::{NetCtx, NetProtocol, SimTransport, TcpTransport, Transport};

/// Ping-pong over the seam: replies `msg - 1` until zero, and records
/// what it is sent and which timers fire.
#[derive(Debug, Default)]
struct Echo {
    got: Vec<(NodeId, u32)>,
    fired: Vec<TimerTag>,
}

impl NetProtocol for Echo {
    type Msg = u32;
    fn on_message(&mut self, ctx: &mut dyn NetCtx<u32>, from: NodeId, msg: u32) {
        self.got.push((from, msg));
        if msg > 0 {
            ctx.send(from, msg - 1);
        }
    }
    fn on_timer(&mut self, _ctx: &mut dyn NetCtx<u32>, tag: TimerTag) {
        self.fired.push(tag);
    }
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn contract<T: Transport<Echo>>(mut t: T) {
    let a = t.add_node(Echo::default());
    let b = t.add_node(Echo::default());
    assert_eq!(t.len(), 2);

    // Sends and replies: 3 → 2 → 1 → 0 is four messages, in order per peer.
    t.with_node(a, |_n, ctx| ctx.send(b, 3));
    t.run_to_quiescence();
    assert_eq!(t.stats().total_messages(), 4);
    assert_eq!(t.node(b).got, vec![(a, 3), (a, 1)]);
    assert_eq!(t.node(a).got, vec![(b, 2), (b, 0)]);

    // A cancelled timer never fires; the other one does.
    let cancelled = t.with_node(a, |_n, ctx| {
        ctx.set_timer(ms(5), 1);
        ctx.set_timer(ms(6), 2)
    });
    t.with_node(a, |_n, ctx| ctx.cancel_timer(cancelled));
    t.run_to_quiescence();
    assert_eq!(t.node(a).fired, vec![1]);

    // A maintenance timer does not gate a quiescence drain.
    let armed = t.now();
    let standing = t.with_node(a, |_n, ctx| ctx.set_maintenance_timer(ms(500), 3));
    let end = t.run_to_quiescence();
    assert!(
        end < armed + ms(500),
        "the drain waited for a maintenance timer"
    );
    assert_eq!(t.node(a).fired, vec![1]);
    t.with_node(a, |_n, ctx| ctx.cancel_timer(standing));

    // A send to a failed node is logged undeliverable.
    assert!(t.take_undeliverable().is_empty());
    t.fail_node(b);
    assert!(!t.is_alive(b));
    t.with_node(a, |_n, ctx| ctx.send(b, 9));
    t.run_to_quiescence();
    assert_eq!(t.node(b).got, vec![(a, 3), (a, 1)]);
    assert_eq!(t.take_undeliverable(), vec![(a, b)]);
    assert!(t.take_undeliverable().is_empty());

    // A timer that comes due while its node is down is dropped ...
    t.with_node(b, |_n, ctx| ctx.set_timer(ms(5), 5));
    t.run_to_quiescence();
    assert!(t.node(b).fired.is_empty());

    // ... and one that comes due after `recover_node` fires, as do sends.
    t.with_node(b, |_n, ctx| ctx.set_timer(ms(20), 6));
    t.recover_node(b);
    assert!(t.is_alive(b));
    t.with_node(a, |_n, ctx| ctx.send(b, 0));
    t.run_to_quiescence();
    assert_eq!(t.node(b).fired, vec![6]);
    assert_eq!(t.node(b).got, vec![(a, 3), (a, 1), (a, 0)]);
    assert!(t.take_undeliverable().is_empty());
}

/// A message still on its way when its destination fails is dropped and
/// counted, as at delivery, and logged undeliverable by neither host: it
/// was sent. On TCP the first frame of a fresh transport still waits in
/// its buffer behind the non-blocking connect.
fn in_flight_to_a_failed_node_is_dropped_unlogged<T: Transport<Echo>>(mut t: T) {
    let a = t.add_node(Echo::default());
    let b = t.add_node(Echo::default());
    let dropped = t.stats().dropped();
    t.with_node(a, |_n, ctx| ctx.send(b, 0));
    t.fail_node(b);
    t.run_to_quiescence();
    assert!(t.node(b).got.is_empty());
    assert_eq!(t.stats().dropped(), dropped + 1);
    assert!(t.take_undeliverable().is_empty());
}

#[test]
fn sim_transport_keeps_the_contract() {
    contract(SimTransport::new(Constant::from_millis(1), 1));
}

#[test]
fn tcp_transport_keeps_the_contract() {
    contract(TcpTransport::seeded(1));
}

#[test]
fn sim_drops_in_flight_to_a_failed_node_unlogged() {
    in_flight_to_a_failed_node_is_dropped_unlogged(SimTransport::new(Constant::from_millis(1), 1));
}

#[test]
fn tcp_drops_in_flight_to_a_failed_node_unlogged() {
    in_flight_to_a_failed_node_is_dropped_unlogged(TcpTransport::seeded(1));
}
