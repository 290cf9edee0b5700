//! The TCP backend's shape from outside: one thread, one `epoll` set,
//! one `write` per peer per dispatch. Raw sockets stand in for the far
//! end wherever the test has to see what is on the wire without pumping
//! the transport under test.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use moara_simnet::{NodeId, SimDuration, TimerTag};
use moara_transport::{NetCtx, NetProtocol, TcpTransport, Transport};
use moara_wire::{append_frame, read_frame, Wire, MAX_FRAME};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Records what it is sent and when its timers fire; never replies.
#[derive(Default)]
struct Sink {
    got: Vec<(NodeId, u32)>,
    fired: Vec<Instant>,
}

impl NetProtocol for Sink {
    type Msg = u32;
    fn on_message(&mut self, _ctx: &mut dyn NetCtx<u32>, from: NodeId, msg: u32) {
        self.got.push((from, msg));
    }
    fn on_timer(&mut self, _ctx: &mut dyn NetCtx<u32>, _tag: TimerTag) {
        self.fired.push(Instant::now());
    }
}

/// A peer-plane frame as a node with id `from` would send it.
fn frame(from: u32, msg: u32) -> Vec<u8> {
    let mut out = Vec::new();
    append_frame(&mut out, |out| {
        from.encode(out);
        msg.encode(out);
    })
    .unwrap();
    out
}

fn pump_until<P>(t: &mut TcpTransport<P>, mut done: impl FnMut(&TcpTransport<P>) -> bool)
where
    P: NetProtocol<Msg: Wire>,
{
    let deadline = Instant::now() + TIMEOUT;
    while !done(t) {
        assert!(Instant::now() < deadline, "timed out");
        t.pump(Duration::from_millis(1));
    }
}

#[test]
fn sends_in_one_dispatch_are_one_write_in_order_on_the_wire_at_return() {
    const K: u32 = 50;
    let mut t: TcpTransport<Sink> = TcpTransport::seeded(21);
    let a = t.add_node(Sink::default());
    // The far end is a plain socket this test reads itself.
    let far = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = NodeId(9);
    t.register_peer(peer, far.local_addr().unwrap());
    // Establish the link: the connect is asynchronous, so the first
    // frame needs the loop to come round.
    t.with_node(a, |_n, ctx| ctx.send(peer, 1000));
    far.set_nonblocking(true).unwrap();
    let mut wire = None;
    pump_until(&mut t, |_| {
        wire = far.accept().ok().map(|(s, _)| s);
        wire.is_some()
    });
    let mut wire = wire.unwrap();
    wire.set_nonblocking(false).unwrap();
    wire.set_read_timeout(Some(TIMEOUT)).unwrap();
    pump_until(&mut t, |t| t.stats().counter("tcp_writes") == 1);
    assert_eq!(
        read_frame(&mut wire).unwrap().unwrap(),
        frame(a.0, 1000)[4..]
    );

    // K sends inside one dispatch...
    let bytes_before = t.stats().total_bytes();
    t.with_node(a, |_n, ctx| (0..K).for_each(|i| ctx.send(peer, i)));
    // ...are one `write`, made before `with_node` returned: no `pump`
    // runs between here and the far end reading all K, in order.
    assert_eq!(t.stats().counter("tcp_writes"), 2);
    for i in 0..K {
        assert_eq!(read_frame(&mut wire).unwrap().unwrap(), frame(a.0, i)[4..]);
    }
    // Coalescing is at the syscall: the frames and their bytes are what
    // K separate writes would have carried.
    assert_eq!(t.stats().total_messages(), u64::from(K) + 1);
    let sent = t.stats().total_bytes() - bytes_before;
    assert_eq!(sent, u64::from(K) * frame(a.0, 0).len() as u64);
    assert_eq!(t.stats().counter("tcp_connects"), 1);
    assert_eq!(t.stats().counter("tcp_reconnects"), 0);
}

#[test]
fn replies_folded_in_one_pump_leave_as_one_write() {
    /// Answers every message to a fixed parent.
    struct Fold(NodeId);
    impl NetProtocol for Fold {
        type Msg = u32;
        fn on_message(&mut self, ctx: &mut dyn NetCtx<u32>, _from: NodeId, msg: u32) {
            ctx.send(self.0, msg);
        }
        fn on_timer(&mut self, _ctx: &mut dyn NetCtx<u32>, _tag: TimerTag) {}
    }
    let far = TcpListener::bind("127.0.0.1:0").unwrap();
    let parent = NodeId(9);
    let mut t: TcpTransport<Fold> = TcpTransport::seeded(22);
    let a = t.add_node(Fold(parent));
    t.register_peer(parent, far.local_addr().unwrap());
    // Children are raw sockets writing into `a`'s listener; the first
    // message establishes the link to the parent.
    let mut child = TcpStream::connect(t.local_addr(a).unwrap()).unwrap();
    child.write_all(&frame(5, 0)).unwrap();
    pump_until(&mut t, |t| t.stats().counter("tcp_writes") == 1);
    // Ten frames in one segment: one read, ten dispatches, ten replies —
    // one write.
    let burst: Vec<u8> = (1..=10).flat_map(|i| frame(5, i)).collect();
    child.write_all(&burst).unwrap();
    pump_until(&mut t, |t| t.stats().total_messages() == 11);
    assert_eq!(t.stats().counter("tcp_writes"), 2);
    let (mut wire, _) = far.accept().unwrap();
    wire.set_read_timeout(Some(TIMEOUT)).unwrap();
    for i in 0..=10 {
        assert_eq!(read_frame(&mut wire).unwrap().unwrap(), frame(a.0, i)[4..]);
    }
}

#[test]
fn a_timer_300_us_out_fires_before_the_millisecond() {
    // Not at 1 ms+, which is where a whole-millisecond `epoll_wait`
    // timeout would put it. The best of a few tries, so that a busy
    // machine's scheduling does not decide the test.
    let mut t: TcpTransport<Sink> = TcpTransport::seeded(23);
    let a = t.add_node(Sink::default());
    let mut best = Duration::MAX;
    for round in 1..=25 {
        let armed = Instant::now();
        t.with_node(a, |_n, ctx| ctx.set_timer(SimDuration::from_micros(300), 1));
        while t.node(a).fired.len() < round {
            t.pump(Duration::from_secs(1));
        }
        let took = t.node(a).fired[round - 1].duration_since(armed);
        assert!(took >= Duration::from_micros(300), "fired early: {took:?}");
        best = best.min(took);
    }
    assert!(
        best < Duration::from_micros(900),
        "a 300 µs timer took {best:?}"
    );
}

#[test]
fn over_cap_prefix_and_mid_frame_close_deliver_nothing_partial() {
    let mut t: TcpTransport<Sink> = TcpTransport::seeded(24);
    let a = t.add_node(Sink::default());
    let addr = t.local_addr(a).unwrap();
    // Two good frames, then a prefix over the cap, then a good frame the
    // transport must never look at: the stream is beyond resynchronising.
    let mut liar = TcpStream::connect(addr).unwrap();
    let mut bytes = [frame(7, 1), frame(7, 2)].concat();
    bytes.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    bytes.extend_from_slice(&frame(7, 3));
    liar.write_all(&bytes).unwrap();
    // A runt (no room for a sender id) is skipped; a frame cut short by
    // its sender hanging up is never delivered.
    let mut quitter = TcpStream::connect(addr).unwrap();
    let mut bytes = vec![2, 0, 0, 0, 0xAA, 0xBB];
    bytes.extend_from_slice(&frame(8, 4));
    bytes.extend_from_slice(&frame(8, 5)[..9]);
    quitter.write_all(&bytes).unwrap();
    drop(quitter);
    pump_until(&mut t, |t| t.node(a).got.len() >= 3);
    // The liar's connection was closed on it.
    liar.set_read_timeout(Some(TIMEOUT)).unwrap();
    let deadline = Instant::now() + TIMEOUT;
    loop {
        t.pump(Duration::from_millis(1));
        liar.set_nonblocking(true).unwrap();
        match liar.read(&mut [0u8; 1]) {
            Ok(0) => break,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            // The good frame it sent after the bad prefix was unread at
            // the close, so the close may be a reset.
            Err(_) => break,
            Ok(_) => panic!("the peer plane never writes on an inbound connection"),
        }
        assert!(Instant::now() < deadline, "connection left open");
    }
    let mut got = t.node(a).got.clone();
    got.sort();
    assert_eq!(
        got,
        vec![(NodeId(7), 1), (NodeId(7), 2), (NodeId(8), 4)],
        "exactly the whole frames before each stream went bad"
    );
    assert_eq!(t.stats().counter("wire_decode_errors"), 0);
}

/// Never receives; only the sending side is under test.
struct Mute;

impl NetProtocol for Mute {
    type Msg = String;
    fn on_message(&mut self, _ctx: &mut dyn NetCtx<String>, _from: NodeId, _msg: String) {}
    fn on_timer(&mut self, _ctx: &mut dyn NetCtx<String>, _tag: TimerTag) {}
}

/// Distinct 64 KiB bodies, so a frame resent, lost or reordered shows.
fn body(i: usize) -> String {
    format!("{i:08}").repeat(8 * 1024)
}

/// A transport whose node `a` has a link up to `far` and has filled it:
/// the far end accepts but does not read, so the kernel's buffers fill.
/// While they take bytes every dispatch ends in a write; the first that
/// does not has met `EAGAIN`. A few more frames go behind the cut one.
/// Returns how many bodies (`0..n`) were sent.
fn fill_the_socket(t: &mut TcpTransport<Mute>, far: &TcpListener) -> usize {
    let peer = NodeId(9);
    let a = t.add_node(Mute);
    t.register_peer(peer, far.local_addr().unwrap());
    t.with_node(a, |_n, ctx| ctx.send(peer, body(0)));
    pump_until(t, |t| t.stats().counter("tcp_writes") == 1);
    let mut sent = 1;
    let deadline = Instant::now() + TIMEOUT;
    loop {
        assert!(Instant::now() < deadline, "the socket never filled");
        let writes = t.stats().counter("tcp_writes");
        t.with_node(a, |_n, ctx| ctx.send(peer, body(sent)));
        sent += 1;
        if t.stats().counter("tcp_writes") == writes {
            break;
        }
    }
    assert!(sent > 4, "{sent} × 64 KiB cannot have filled a socket");
    for _ in 0..3 {
        t.with_node(a, |_n, ctx| ctx.send(peer, body(sent)));
        sent += 1;
    }
    sent
}

/// Reads bodies `from..to` off `wire` on a thread of its own.
fn expect_bodies(mut wire: TcpStream, from: usize, to: usize) -> std::thread::JoinHandle<()> {
    wire.set_nonblocking(false).unwrap();
    wire.set_read_timeout(Some(TIMEOUT)).unwrap();
    std::thread::spawn(move || {
        for i in from..to {
            let payload = read_frame(&mut wire).unwrap().unwrap();
            let got = String::from_bytes(&payload[4..]).unwrap();
            assert!(got == body(i), "frame {i} is not body {i}");
        }
    })
}

#[test]
fn a_full_socket_is_finished_on_epollout_and_loses_nothing() {
    let far = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut t: TcpTransport<Mute> = TcpTransport::seeded(25);
    let sent = fill_the_socket(&mut t, &far);
    // The far end starts reading and `EPOLLOUT` finishes the job.
    let reader = expect_bodies(far.accept().unwrap().0, 0, sent);
    pump_until(&mut t, |_| reader.is_finished());
    reader.join().unwrap();
    assert_eq!(t.stats().dropped(), 0);
    assert_eq!(t.stats().counter("tcp_connects"), 1);
}

#[test]
fn a_reannounced_peer_gets_the_cut_frame_again_from_its_start() {
    let far = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut t: TcpTransport<Mute> = TcpTransport::seeded(26);
    let sent = fill_the_socket(&mut t, &far);
    // The daemon re-announces every alive member on each membership
    // change — same id, same address — and the pooled connection, which
    // may point at a dead predecessor, goes. This one goes mid-frame.
    t.register_peer(NodeId(9), far.local_addr().unwrap());
    // The old connection carried whole frames, then part of one.
    let (mut old, _) = far.accept().unwrap();
    old.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut whole = 0;
    let end = loop {
        match read_frame(&mut old) {
            Ok(Some(payload)) => {
                assert!(String::from_bytes(&payload[4..]).unwrap() == body(whole));
                whole += 1;
            }
            end => break end,
        }
    };
    assert!(end.is_err(), "the hang-up cut no frame: {end:?}");
    // The new one starts with that frame, from its first byte — not from
    // where the old socket stopped, which would read as a garbage prefix.
    far.set_nonblocking(true).unwrap();
    let mut new = None;
    pump_until(&mut t, |_| {
        new = far.accept().ok().map(|(s, _)| s);
        new.is_some()
    });
    let reader = expect_bodies(new.unwrap(), whole, sent);
    pump_until(&mut t, |_| reader.is_finished());
    reader.join().unwrap();
    assert_eq!(t.stats().dropped(), 0);
    assert_eq!(t.stats().counter("tcp_connects"), 2);
}

// The seam's own tests, from outside: `tcp.rs` keeps only the two that
// look inside the transport.

/// Echo protocol over the seam.
#[derive(Debug, Default)]
struct Echo {
    got: Vec<(NodeId, u32)>,
    timer_fired: u32,
}

impl NetProtocol for Echo {
    type Msg = u32;
    fn on_message(&mut self, ctx: &mut dyn NetCtx<u32>, from: NodeId, msg: u32) {
        self.got.push((from, msg));
        if msg > 0 {
            ctx.send(from, msg - 1);
        }
    }
    fn on_timer(&mut self, _ctx: &mut dyn NetCtx<u32>, _tag: TimerTag) {
        self.timer_fired += 1;
    }
}

#[test]
fn ping_pong_over_real_sockets() {
    let mut t: TcpTransport<Echo> = TcpTransport::seeded(1);
    let a = t.add_node(Echo::default());
    let b = t.add_node(Echo::default());
    assert!(t.local_addr(a).is_some());
    assert_ne!(t.local_addr(a), t.local_addr(b));
    t.with_node(a, |_n, ctx| ctx.send(b, 3));
    t.run_to_quiescence();
    assert_eq!(t.node(b).got, vec![(a, 3), (a, 1)]);
    assert_eq!(t.node(a).got, vec![(b, 2), (b, 0)]);
    assert_eq!(t.stats().total_messages(), 4);
    assert_eq!(t.in_flight(), 0);
}

#[test]
fn timers_fire_and_cancel_on_real_clock() {
    let mut t: TcpTransport<Echo> = TcpTransport::seeded(3);
    let a = t.add_node(Echo::default());
    let cancelled = t.with_node(a, |_n, ctx| {
        ctx.set_timer(SimDuration::from_millis(5), 1);
        let c = ctx.set_timer(SimDuration::from_millis(6), 2);
        ctx.set_timer(SimDuration::from_millis(7), 3);
        c
    });
    t.with_node(a, |_n, ctx| ctx.cancel_timer(cancelled));
    t.run_to_quiescence();
    assert_eq!(t.node(a).timer_fired, 2);
    assert!(!t.timers_pending());
}

#[test]
fn timers_fire_in_due_then_arming_order() {
    #[derive(Default)]
    struct Tags(Vec<TimerTag>);
    impl NetProtocol for Tags {
        type Msg = u32;
        fn on_message(&mut self, _ctx: &mut dyn NetCtx<u32>, _from: NodeId, _msg: u32) {}
        fn on_timer(&mut self, _ctx: &mut dyn NetCtx<u32>, tag: TimerTag) {
            self.0.push(tag);
        }
    }
    let mut t: TcpTransport<Tags> = TcpTransport::seeded(10);
    let a = t.add_node(Tags::default());
    t.with_node(a, |_n, ctx| {
        ctx.set_timer(SimDuration::from_millis(2), 1);
        ctx.set_maintenance_timer(SimDuration::ZERO, 2);
        ctx.set_timer(SimDuration::ZERO, 3);
    });
    // Equal deadlines fire in arming order. The maintenance timer
    // neither gates quiescence nor fires in it: it is set aside and
    // fires at the next pump.
    t.run_to_quiescence();
    assert_eq!(t.node(a).0, vec![3, 1]);
    t.pump(Duration::ZERO);
    assert_eq!(t.node(a).0, vec![3, 1, 2]);
}

#[test]
fn wake_ends_a_blocked_pump() {
    let mut t: TcpTransport<Echo> = TcpTransport::seeded(11);
    let a = t.add_node(Echo::default());
    let wake = t.wake_handle();
    let (armed_tx, armed_rx) = std::sync::mpsc::channel();
    let waker = std::thread::spawn(move || {
        armed_rx.recv().unwrap();
        // Gives the loop thread time to get from `send` into its
        // blocking receive. The assertions hold either way: a wake
        // that beats it there is the next test's case.
        std::thread::sleep(Duration::from_millis(20));
        let at = Instant::now();
        wake.wake();
        at
    });
    armed_tx.send(()).unwrap();
    let did = t.pump(Duration::from_secs(10));
    let returned = Instant::now();
    let woke_at = waker.join().unwrap();
    assert!(!did, "a wake is not an event");
    assert!(
        returned.duration_since(woke_at) < Duration::from_millis(50),
        "pump returned {:?} after the wake",
        returned.duration_since(woke_at)
    );
    // Nothing was counted, decoded or delivered.
    assert_eq!(t.stats().total_messages(), 0);
    assert_eq!(t.stats().dropped(), 0);
    assert_eq!(t.stats().counter("wire_decode_errors"), 0);
    assert!(t.node(a).got.is_empty());
    assert_eq!(t.in_flight(), 0);
}

#[test]
fn wake_sent_before_pump_is_not_lost() {
    let mut t: TcpTransport<Echo> = TcpTransport::seeded(12);
    t.add_node(Echo::default());
    let wake = t.wake_handle();
    std::thread::spawn(move || wake.wake()).join().unwrap();
    let start = Instant::now();
    assert!(!t.pump(Duration::from_secs(10)));
    assert!(start.elapsed() < Duration::from_millis(50));
    // It is consumed: the next pump blocks for its full wait again.
    let start = Instant::now();
    t.pump(Duration::from_millis(30));
    assert!(start.elapsed() >= Duration::from_millis(30));
}

#[test]
fn failed_node_drops_messages_and_logs_undeliverable() {
    let mut t: TcpTransport<Echo> = TcpTransport::seeded(4);
    let a = t.add_node(Echo::default());
    let b = t.add_node(Echo::default());
    t.fail_node(b);
    t.with_node(a, |_n, ctx| ctx.send(b, 5));
    t.run_to_quiescence();
    assert!(t.node(b).got.is_empty());
    assert_eq!(t.stats().dropped(), 1);
    assert_eq!(t.take_undeliverable(), vec![(a, b)]);
    t.recover_node(b);
    t.with_node(a, |_n, ctx| ctx.send(b, 0));
    t.run_to_quiescence();
    assert_eq!(t.node(b).got.len(), 1);
}

#[test]
fn unreachable_peer_goes_suspect_without_ever_stalling_the_loop() {
    let mut t: TcpTransport<Echo> = TcpTransport::seeded(8);
    let a = t.add_node(Echo::default());
    // A peer that is "alive" but listens nowhere: connects are refused.
    let ghost = NodeId(50);
    t.register_peer(ghost, "127.0.0.1:1".parse().unwrap());
    // The frame sits out the whole retry ladder in the peer's buffer;
    // no call on the loop thread waits for a connect or a backoff.
    let ladder = Instant::now();
    t.with_node(a, |_n, ctx| ctx.send(ghost, 1));
    let mut slowest = ladder.elapsed();
    while t.stats().dropped() == 0 {
        assert!(ladder.elapsed() < Duration::from_secs(10), "never gave up");
        let at = Instant::now();
        t.pump(Duration::from_millis(1));
        slowest = slowest.max(at.elapsed());
    }
    // Five rungs, each at least 20 ms (the base backoff) × its attempt.
    assert!(ladder.elapsed() >= Duration::from_millis(20) * 15);
    assert_eq!(t.take_undeliverable(), vec![(a, ghost)]);
    // Within the cooldown, further sends drop on the spot.
    let at = Instant::now();
    t.with_node(a, |_n, ctx| ctx.send(ghost, 2));
    slowest = slowest.max(at.elapsed());
    assert_eq!(t.stats().dropped(), 2);
    assert_eq!(t.take_undeliverable(), vec![(a, ghost)]);
    assert_eq!(t.stats().counter("tcp_connects"), 0);
    assert!(
        slowest < Duration::from_millis(50),
        "a dead peer held the loop for {slowest:?}"
    );
}

#[test]
fn burst_of_messages_all_arrive() {
    let mut t: TcpTransport<Echo> = TcpTransport::seeded(6);
    let a = t.add_node(Echo::default());
    let b = t.add_node(Echo::default());
    for _ in 0..200 {
        t.with_node(a, |_n, ctx| ctx.send(b, 0));
    }
    t.run_to_quiescence();
    assert_eq!(t.node(b).got.len(), 200);
    assert_eq!(t.in_flight(), 0);
}
