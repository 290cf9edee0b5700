//! A length prefix is a claim, not bytes: anything that can reach a peer
//! listener may send four bytes saying 64 MiB follow and then nothing.
//! The per-connection reassembly buffer grows only with what has actually
//! arrived, so a thousand such connections cost a thousand small structs.
//! Alone in its test binary, so the process's RSS is this test's.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use moara_simnet::{NodeId, TimerTag};
use moara_transport::{NetCtx, NetProtocol, TcpTransport, Transport};
use moara_wire::{append_frame, Wire, MAX_FRAME};

#[derive(Default)]
struct Count(u32);

impl NetProtocol for Count {
    type Msg = u32;
    fn on_message(&mut self, _ctx: &mut dyn NetCtx<u32>, _from: NodeId, _msg: u32) {
        self.0 += 1;
    }
    fn on_timer(&mut self, _ctx: &mut dyn NetCtx<u32>, _tag: TimerTag) {}
}

/// This process's resident set, in KiB.
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn a_thousand_max_frame_prefixes_reserve_nothing() {
    const CONNS: usize = 1000;
    let mut t: TcpTransport<Count> = TcpTransport::seeded(31);
    let a = t.add_node(Count::default());
    let addr = t.local_addr(a).unwrap();
    t.pump(Duration::ZERO);
    let before = rss_kb();

    let mut held = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&(MAX_FRAME as u32).to_le_bytes()).unwrap();
        held.push(s);
        // Keeps the listener's backlog short.
        t.pump(Duration::ZERO);
    }
    // One honest frame behind them all: once it is delivered, every
    // connection accepted before it has had the loop's attention too
    // (plus a few rounds for those the last batch left readable).
    let mut honest = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    append_frame(&mut frame, |out| {
        7u32.encode(out);
        42u32.encode(out);
    })
    .unwrap();
    honest.write_all(&frame).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while t.node(a).0 == 0 {
        assert!(Instant::now() < deadline, "honest frame never arrived");
        t.pump(Duration::from_millis(1));
    }
    for _ in 0..100 {
        t.pump(Duration::from_millis(1));
    }

    let grew = rss_kb().saturating_sub(before);
    assert!(
        grew < 8 * 1024,
        "{CONNS} connections that sent only a {MAX_FRAME}-byte prefix grew RSS by {grew} KiB"
    );
    drop(held);
}
