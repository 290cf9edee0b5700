//! One contract, both hosts: what the `Transport` trait promises, checked
//! by the same generic test on the simulator and over real sockets.

use std::time::{Duration, Instant};

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

    // One that comes due during a drain is set aside, not fired, and
    // fires at the first `run_for` after it.
    t.with_node(a, |_n, ctx| {
        ctx.set_maintenance_timer(ms(0), 7);
        ctx.set_timer(ms(5), 8);
    });
    t.run_to_quiescence();
    assert_eq!(t.node(a).fired, vec![1, 8]);
    t.run_for(ms(1));
    assert_eq!(t.node(a).fired, vec![1, 8, 7]);

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

/// Records, for each dispatch it gets, whether `ctx.now()` read the same
/// time before and after a busy wait of at least 2 µs of real time.
#[derive(Debug, Default)]
struct Still(Vec<bool>);

impl Still {
    fn check(&mut self, ctx: &mut dyn NetCtx<u32>) {
        let before = ctx.now();
        let start = Instant::now();
        while start.elapsed() < Duration::from_micros(2) {}
        self.0.push(ctx.now() == before);
    }
}

impl NetProtocol for Still {
    type Msg = u32;
    fn on_message(&mut self, ctx: &mut dyn NetCtx<u32>, _from: NodeId, _msg: u32) {
        self.check(ctx);
    }
    fn on_timer(&mut self, ctx: &mut dyn NetCtx<u32>, _tag: TimerTag) {
        self.check(ctx);
    }
}

/// Time holds still while a handler runs, whatever it costs: on a
/// message, on a timer and inside `with_node`.
fn now_holds_still_within_a_handler<T: Transport<Still>>(mut t: T) {
    let a = t.add_node(Still::default());
    let b = t.add_node(Still::default());
    t.with_node(a, |n, ctx| {
        ctx.send(b, 0);
        ctx.set_timer(ms(1), 1);
        n.check(ctx);
    });
    t.run_to_quiescence();
    assert_eq!(t.node(a).0, [true, true]);
    assert_eq!(t.node(b).0, [true]);
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

#[test]
fn sim_now_holds_still_within_a_handler() {
    now_holds_still_within_a_handler(SimTransport::new(Constant::from_millis(1), 1));
}

#[test]
fn tcp_now_holds_still_within_a_handler() {
    now_holds_still_within_a_handler(TcpTransport::seeded(1));
}
