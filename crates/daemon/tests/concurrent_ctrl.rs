//! Concurrency coverage for the control plane: one daemon serving many
//! simultaneous CLI-style connections (status + query + watch), plus a
//! watcher that hangs up mid-stream *while* deltas are being pushed.
//! Asserts no panic, every request answered, and — the leak check — no
//! standing watch or subscription entry left anywhere after the hang-up
//! is noticed and lease GC runs.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use moara_attributes::Value;
use moara_core::DeliveryPolicy;
use moara_daemon::{ctrl_roundtrip, CtrlReply, CtrlRequest, Daemon, DaemonOpts};
use moara_wire::{read_frame, write_msg, Wire, MAX_FRAME};

fn free_port() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

fn spawn_daemon(listen: SocketAddr, join: Option<String>, attrs: Vec<(String, Value)>) {
    std::thread::spawn(move || {
        let mut d = Daemon::start(DaemonOpts {
            join,
            attrs,
            ..DaemonOpts::new(listen)
        })
        .expect("daemon boots");
        loop {
            d.step(Duration::from_millis(2));
        }
    });
}

fn status(ctrl: &str) -> Option<(u32, u32, u32)> {
    match ctrl_roundtrip(ctrl, &CtrlRequest::Status, Duration::from_secs(5)) {
        Ok(CtrlReply::Status {
            members,
            watches,
            sub_entries,
            ..
        }) => Some((members, watches, sub_entries)),
        _ => None,
    }
}

fn wait_members(ctrl: &str, want: u32) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while status(ctrl).map(|(m, _, _)| m) != Some(want) {
        assert!(Instant::now() < deadline, "cluster never converged");
        std::thread::sleep(Duration::from_millis(30));
    }
}

#[test]
fn many_clients_and_a_mid_stream_hangup_leak_nothing() {
    let seed_ctrl = free_port();
    let b_ctrl = free_port();
    let c_ctrl = free_port();
    let attrs = |v: bool| vec![("ServiceX".to_owned(), Value::Bool(v))];
    spawn_daemon(seed_ctrl, None, attrs(true));
    spawn_daemon(b_ctrl, Some(seed_ctrl.to_string()), attrs(false));
    spawn_daemon(c_ctrl, Some(seed_ctrl.to_string()), attrs(true));
    for ctrl in [seed_ctrl, b_ctrl, c_ctrl] {
        wait_members(&ctrl.to_string(), 3);
    }

    let query_text = "SELECT count(*) WHERE ServiceX = true";

    // Wave 1: simultaneous status and query clients against ONE daemon.
    let mut clients = Vec::new();
    for i in 0..6 {
        let ctrl = seed_ctrl.to_string();
        clients.push(std::thread::spawn(move || {
            for _ in 0..5 {
                if i % 2 == 0 {
                    let (m, _, _) = status(&ctrl).expect("status answers under load");
                    assert_eq!(m, 3);
                } else {
                    let reply = ctrl_roundtrip(
                        &ctrl,
                        &CtrlRequest::Query {
                            text: query_text.into(),
                        },
                        Duration::from_secs(30),
                    )
                    .expect("query answers under load");
                    match reply {
                        CtrlReply::Answer { result, .. } => {
                            // Concurrent churn below flips membership of
                            // the group; any count in range is sound.
                            let n: u64 = result.parse().expect("numeric count");
                            assert!(n <= 3, "impossible count {n}");
                        }
                        other => panic!("unexpected reply {other:?}"),
                    }
                }
            }
        }));
    }

    // Two well-behaved watchers stream from the same daemon meanwhile,
    // with a short lease so GC evidence arrives fast.
    let open_watch = |ctrl: SocketAddr| -> TcpStream {
        let mut s = TcpStream::connect(ctrl).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        write_msg(
            &mut s,
            &CtrlRequest::Watch {
                text: query_text.into(),
                policy: DeliveryPolicy::OnChange,
                lease_us: 1_000_000,
            },
        )
        .unwrap();
        s
    };
    let read_update = |s: &mut TcpStream| -> String {
        // Keepalive probes are swallowed daemon-side; only updates and
        // errors reach the socket.
        let payload = read_frame(s).expect("watch frame").expect("stream open");
        match CtrlReply::from_bytes(&payload).expect("decodable reply") {
            CtrlReply::Update { result, .. } => result,
            CtrlReply::Error(e) => panic!("watch failed: {e}"),
            other => panic!("unexpected streaming reply {other:?}"),
        }
    };
    let mut keeper = open_watch(seed_ctrl);
    let mut doomed = open_watch(seed_ctrl);
    let first = read_update(&mut keeper);
    assert!(!first.is_empty());
    let _ = read_update(&mut doomed);

    // Churn attributes from another daemon to force delta pushes, and
    // hang the doomed watcher up abruptly mid-burst — the race the
    // daemon must survive: updates already queued for a stream whose
    // socket just died.
    let churner = {
        let ctrl = b_ctrl.to_string();
        std::thread::spawn(move || {
            for i in 0..10 {
                let reply = ctrl_roundtrip(
                    &ctrl,
                    &CtrlRequest::SetAttr {
                        attr: "ServiceX".into(),
                        value: Value::Bool(i % 2 == 0),
                    },
                    Duration::from_secs(5),
                )
                .expect("set answers under churn");
                assert_eq!(reply, CtrlReply::Ok);
                std::thread::sleep(Duration::from_millis(40));
            }
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    drop(doomed); // mid-stream hang-up, racing the delta pushes
    let _ = read_update(&mut keeper); // the surviving stream keeps flowing
    churner.join().expect("churner lives");
    for c in clients {
        c.join().expect("client lives");
    }
    drop(keeper);

    // Leak check: once the hang-ups are noticed (keepalive probe) and
    // the 1 s leases GC, every daemon must report zero watches and zero
    // standing entries — and still answer queries (no panic took the
    // loop down).
    let deadline = Instant::now() + Duration::from_secs(30);
    for ctrl in [seed_ctrl, b_ctrl, c_ctrl] {
        loop {
            let (_, watches, subs) = status(&ctrl.to_string()).expect("status after the storm");
            if watches == 0 && subs == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "daemon {ctrl} leaked watches={watches} sub_entries={subs}"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    let reply = ctrl_roundtrip(
        &seed_ctrl.to_string(),
        &CtrlRequest::Query {
            text: query_text.into(),
        },
        Duration::from_secs(30),
    )
    .expect("daemon healthy after the storm");
    assert!(matches!(reply, CtrlReply::Answer { .. }));
}

/// The engine's own thread reads the control port, so hostile bytes there
/// must cost their connection and nothing else: a length prefix over
/// `MAX_FRAME` is closed, an undecodable payload is answered
/// `Error("bad request frame")` and closed, and half a frame followed by
/// a hang-up is closed. After each, a `Status` on another connection is
/// answered, and a query still walks: the daemon keeps stepping.
#[test]
fn hostile_bytes_on_the_control_port_cost_only_their_connection() {
    let ctrl = free_port();
    spawn_daemon(ctrl, None, vec![("ServiceX".to_owned(), Value::Bool(true))]);
    wait_members(&ctrl.to_string(), 1);
    let open = |bytes: &[u8]| {
        let mut s = TcpStream::connect(ctrl).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(bytes).unwrap();
        s
    };
    let still_serving = || {
        let (members, _, _) = status(&ctrl.to_string()).expect("status on another connection");
        assert_eq!(members, 1);
    };

    let mut over_cap = open(&(MAX_FRAME as u32 + 1).to_le_bytes());
    assert_eq!(
        read_frame(&mut over_cap).unwrap(),
        None,
        "closed unanswered"
    );
    still_serving();

    let mut undecodable = open(&[1, 0, 0, 0, 0xff]);
    let reply = read_frame(&mut undecodable).unwrap().expect("an answer");
    assert_eq!(
        CtrlReply::from_bytes(&reply).unwrap(),
        CtrlReply::Error("bad request frame".into())
    );
    assert_eq!(read_frame(&mut undecodable).unwrap(), None, "then a close");
    still_serving();

    let mut half = open(&[100, 0, 0, 0, 1, 2, 3]);
    half.shutdown(Shutdown::Write).unwrap();
    assert_eq!(read_frame(&mut half).unwrap(), None, "closed unanswered");
    drop(half);
    still_serving();

    let reply = ctrl_roundtrip(
        &ctrl.to_string(),
        &CtrlRequest::Query {
            text: "SELECT count(*) WHERE ServiceX = true".into(),
        },
        Duration::from_secs(30),
    );
    assert_eq!(
        reply,
        Ok(CtrlReply::Answer {
            result: "1".into(),
            complete: true
        })
    );
}
