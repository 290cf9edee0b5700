//! The gateway as a client sees it: a running gateway, a scripted daemon
//! hosting the loop's side of it, and real sockets in front.

#[cfg(test)]
mod tests {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{Sender, SyncSender};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    use crate::api::{parse_attr_body, parse_policy};
    use crate::epoll::{Epoll, EpollEvent, WakeFd, EPOLLIN};
    use crate::reactor::Endpoint;
    use crate::{
        access_log_line, spawn_gateway_opts, AccessLogSink, EndpointLatency, GatewayHandle,
        GatewayOpts, GwReply, GwRequest, LoopEdge, SinkClosed, WatchPolicy,
        REQUEST_LATENCY_BOUNDS_US,
    };

    /// What the scripted daemon does to one of the loop's connections.
    enum Cmd {
        /// Write a reply; a sender off the loop thread waits for the
        /// outcome.
        Write(u64, GwReply, Option<SyncSender<Result<(), SinkClosed>>>),
        /// Hang up: the daemon side of a stream went away.
        Close(u64),
    }

    /// The scripted daemon's hold on one request. It answers through
    /// `send`; dropping a watch's ends the stream, as a daemon whose
    /// subscription is gone.
    struct Reply {
        conn: u64,
        stream: bool,
        cmds: Sender<Cmd>,
        wake: Arc<WakeFd>,
        /// The loop thread: inside the responder a write is queued and
        /// made when the responder returns; from any other thread it is
        /// made at once and its outcome returned.
        host: ThreadId,
    }

    impl Reply {
        fn send(&self, reply: GwReply) -> Result<(), SinkClosed> {
            if std::thread::current().id() == self.host {
                let _ = self.cmds.send(Cmd::Write(self.conn, reply, None));
                return Ok(());
            }
            let (done, outcome) = std::sync::mpsc::sync_channel(1);
            let _ = self.cmds.send(Cmd::Write(self.conn, reply, Some(done)));
            self.wake.wake();
            outcome.recv().unwrap_or(Err(SinkClosed))
        }
    }

    impl Drop for Reply {
        fn drop(&mut self) {
            if self.stream {
                let _ = self.cmds.send(Cmd::Close(self.conn));
                self.wake.wake();
            }
        }
    }

    /// Boots a gateway whose loop side a scripted daemon thread hosts.
    fn test_gateway(respond: impl Fn(GwRequest, Reply) + Send + 'static) -> GatewayHandle {
        test_gateway_opts(GatewayOpts::default(), respond)
    }

    /// The daemon's part, scripted: one thread waits on the loop edge's
    /// fd and its own wake, as a daemon's loop does, takes each turn of
    /// the edge, hands every request for the daemon to `respond`, and
    /// makes the writes the responder asks for.
    fn test_gateway_opts(
        opts: GatewayOpts,
        respond: impl Fn(GwRequest, Reply) + Send + 'static,
    ) -> GatewayHandle {
        let wake = Arc::new(WakeFd::new());
        let (gw, mut edge) = spawn_waking(&wake, opts);
        let (cmds, todo) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let epoll = Epoll::new();
            wake.register(&epoll, 0);
            epoll.add(edge.fd(), EPOLLIN, 1).unwrap();
            let host = std::thread::current().id();
            let mut events = [EpollEvent::default(); 4];
            loop {
                let idle = Duration::from_secs(1);
                epoll.wait(&mut events, edge.wait_bound().unwrap_or(idle));
                edge.pump(|conn, req| {
                    let stream = matches!(req, GwRequest::Watch { .. });
                    let (cmds, wake) = (cmds.clone(), Arc::clone(&wake));
                    let reply = Reply {
                        conn,
                        stream,
                        cmds,
                        wake,
                        host,
                    };
                    respond(req, reply);
                });
                while let Ok(cmd) = todo.try_recv() {
                    match cmd {
                        Cmd::Write(conn, reply, done) => {
                            let outcome = edge.write(conn, reply);
                            done.map(|d| d.send(outcome));
                        }
                        Cmd::Close(conn) => edge.close(conn),
                    }
                }
            }
        });
        gw
    }

    /// The one entry point, its door waking `wake`.
    fn spawn_waking(wake: &Arc<WakeFd>, opts: GatewayOpts) -> (GatewayHandle, LoopEdge) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let wake = Arc::clone(wake);
        spawn_gateway_opts(listener, Arc::new(move || wake.wake()), opts)
    }

    /// A gateway whose daemon is gone: its loop edge is dropped at once.
    fn spawn_daemonless(opts: GatewayOpts) -> GatewayHandle {
        spawn_waking(&Arc::new(WakeFd::new()), opts).0
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn query_roundtrips_as_json() {
        let gw = test_gateway(|req, reply| {
            assert_eq!(
                req,
                GwRequest::Query {
                    q: "SELECT count(*) WHERE A = 1".into()
                }
            );
            let _ = reply.send(GwReply::Answer {
                result: "2".into(),
                complete: true,
                cache: None,
            });
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query?q=SELECT%20count(*)%20WHERE%20A%20%3D%201 HTTP/1.1\r\n\
             Connection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(
            resp.contains("{\"result\":\"2\",\"complete\":true}"),
            "{resp}"
        );
        assert!(!resp.contains("X-Moara-Cache"), "no cache, no header");
        assert_eq!(gw.stats().requests(Endpoint::Query), 1);
    }

    #[test]
    fn cache_markers_render_as_response_headers() {
        let gw = test_gateway(|_req, reply| {
            let _ = reply.send(GwReply::Answer {
                result: "2".into(),
                complete: true,
                cache: Some("coalesced"),
            });
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query?q=x HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("X-Moara-Cache: coalesced\r\n"), "{resp}");
    }

    /// A warm cache answers on the reactor shard: the daemon side sees
    /// no job at all, and the response carries `X-Moara-Cache: hit`.
    #[test]
    fn cache_hits_are_served_without_entering_the_daemon() {
        use crate::cache::{CacheConfig, QueryCache};
        let cache = Arc::new(QueryCache::new(CacheConfig {
            promote_after: 1,
            ..CacheConfig::default()
        }));
        // Warm: first lookup promotes, then the "daemon" installs and
        // syncs the standing result.
        assert!(cache
            .lookup("SELECT count(*)", std::time::Instant::now())
            .is_none());
        let (key, _) = cache.take_pending_promotions().remove(0);
        assert!(cache.promoted(&key, 1));
        cache.on_update(1, "42".into(), true);

        let daemon_jobs = Arc::new(AtomicU64::new(0));
        let daemon_jobs2 = Arc::clone(&daemon_jobs);
        let gw = test_gateway_opts(
            GatewayOpts {
                cache: Some(Arc::clone(&cache)),
                ..GatewayOpts::default()
            },
            move |_req, reply| {
                daemon_jobs2.fetch_add(1, Ordering::SeqCst);
                let _ = reply.send(GwReply::Answer {
                    result: "slow".into(),
                    complete: true,
                    cache: Some("miss"),
                });
            },
        );
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query?q=SELECT%20count(*) HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("X-Moara-Cache: hit\r\n"), "{resp}");
        assert!(
            resp.contains("{\"result\":\"42\",\"complete\":true}"),
            "{resp}"
        );
        assert_eq!(daemon_jobs.load(Ordering::SeqCst), 0, "no daemon trip");
        assert_eq!(cache.hits(), 1);
        // A different query misses straight through to the daemon.
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query?q=other HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("X-Moara-Cache: miss\r\n"), "{resp}");
        assert!(resp.contains("\"result\":\"slow\""), "{resp}");
        assert_eq!(daemon_jobs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn attrs_post_parses_both_body_styles() {
        let gw = test_gateway(|req, reply| match req {
            GwRequest::SetAttrs { attrs } => {
                let n = attrs.len();
                assert!(attrs.iter().any(|(k, v)| k == "A" && v == "1"));
                let _ = reply.send(GwReply::AttrsSet { count: n });
            }
            other => panic!("unexpected {other:?}"),
        });
        for body in ["A=1&B=two", "A=1,B=two"] {
            let resp = roundtrip(
                gw.addr(),
                &format!(
                    "POST /v1/attrs HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                ),
            );
            assert!(resp.contains("{\"ok\":true,\"set\":2}"), "{resp}");
        }
    }

    #[test]
    fn watch_streams_sse_frames_until_daemon_drops() {
        let gw = test_gateway(|req, reply| {
            match req {
                GwRequest::Watch {
                    policy: WatchPolicy::PeriodMs(1500),
                    lease_ms: 5000,
                    ..
                } => {}
                other => panic!("unexpected {other:?}"),
            }
            let _ = reply.send(GwReply::Update {
                result: "1".into(),
                initial: true,
                complete: true,
            });
            let _ = reply.send(GwReply::Keepalive);
            let _ = reply.send(GwReply::Update {
                result: "2".into(),
                initial: false,
                complete: true,
            });
            // reply dropped here: stream must end.
        });
        let mut s = TcpStream::connect(gw.addr()).unwrap();
        s.write_all(
            b"GET /v1/watch?q=SELECT%20count(*)&policy=period:1500&lease_ms=5000 HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(s);
        let mut header = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            header.push_str(&line);
            if line == "\r\n" {
                break;
            }
        }
        assert!(header.contains("text/event-stream"), "{header}");
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        assert!(
            rest.contains("data: {\"result\":\"1\",\"initial\":true,\"complete\":true}\n\n"),
            "{rest}"
        );
        assert!(rest.contains(": keepalive\n\n"), "{rest}");
        assert!(rest.contains("data: {\"result\":\"2\""), "{rest}");
        assert_eq!(gw.stats().sse_frames.load(Ordering::Relaxed), 2);
        // The stream ended and released its slot.
        assert_eq!(gw.stats().open_streams.load(Ordering::SeqCst), 0);
    }

    /// Beyond `max_sse_streams`, further watch requests answer 503 fast
    /// — and one-shot endpoints keep working (`/healthz` must stay
    /// reachable under watcher overload).
    #[test]
    fn watch_streams_beyond_the_cap_answer_503() {
        let held: Arc<Mutex<Vec<Reply>>> = Arc::new(Mutex::new(Vec::new()));
        let held2 = Arc::clone(&held);
        let gw = test_gateway_opts(
            GatewayOpts {
                max_sse_streams: 1,
                ..GatewayOpts::default()
            },
            move |req, reply| {
                if matches!(req, GwRequest::Watch { .. }) {
                    let _ = reply.send(GwReply::Update {
                        result: "1".into(),
                        initial: true,
                        complete: true,
                    });
                    held2.lock().unwrap().push(reply); // keep the stream open
                } else if matches!(req, GwRequest::Health) {
                    let _ = reply.send(GwReply::Health {
                        node: 0,
                        members: 1,
                        alive: 1,
                    });
                }
            },
        );
        let mut s1 = TcpStream::connect(gw.addr()).unwrap();
        s1.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s1.write_all(b"GET /v1/watch?q=x HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = BufReader::new(s1.try_clone().unwrap());
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.starts_with("data: ") {
                break; // stream 1 is fully open and counted
            }
        }
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/watch?q=x HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 503 "), "{resp}");
        // One-shot endpoints still work beside the saturated stream cap.
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    }

    #[test]
    fn bad_requests_answer_4xx() {
        let gw = test_gateway(|_req, _reply| {});
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
        let resp = roundtrip(gw.addr(), "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "DELETE /v1/query HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 405 "), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/watch?q=x&policy=sometimes HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
        assert_eq!(gw.stats().errors.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let gw = test_gateway(|req, reply| {
            if let GwRequest::Health = req {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 3,
                    alive: 3,
                });
            }
        });
        let mut s = TcpStream::connect(gw.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        for _ in 0..3 {
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "HTTP/1.1 200 OK\r\n");
            // Drain headers + body by Content-Length.
            let mut len = 0usize;
            loop {
                let mut l = String::new();
                reader.read_line(&mut l).unwrap();
                if let Some(v) = l.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
                if l == "\r\n" {
                    break;
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            assert!(String::from_utf8(body).unwrap().contains("\"alive\":3"));
        }
        assert_eq!(gw.stats().requests(Endpoint::Health), 3);
    }

    /// Two requests written in one TCP segment are both answered, in
    /// order — the reactor parses pipelined input off one buffer.
    #[test]
    fn pipelined_requests_answer_in_order() {
        let gw = test_gateway(|req, reply| {
            if let GwRequest::Health = req {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 1,
                    alive: 1,
                });
            }
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(resp.matches("HTTP/1.1 200 OK\r\n").count(), 2, "{resp}");
        assert_eq!(gw.stats().requests(Endpoint::Health), 2);
    }

    /// The smuggling defense, end to end: a `Transfer-Encoding` request
    /// whose chunked body embeds a fake second request is answered 501
    /// and the connection closed — the embedded request is never routed
    /// (with the old ignore-the-header behavior, the chunked body stayed
    /// in the buffer and `GET /v1/query?q=evil` would have executed).
    #[test]
    fn transfer_encoding_desync_is_rejected_not_smuggled() {
        let jobs = Arc::new(AtomicU64::new(0));
        let jobs2 = Arc::clone(&jobs);
        let gw = test_gateway(move |_req, _reply| {
            jobs2.fetch_add(1, Ordering::SeqCst);
        });
        let resp = roundtrip(
            gw.addr(),
            "POST /v1/attrs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
             5\r\nA=1&B\r\n0\r\n\r\n\
             GET /v1/query?q=evil HTTP/1.1\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 501 "), "{resp}");
        // Exactly one response: the connection closed before the
        // embedded request could be parsed.
        assert_eq!(resp.matches("HTTP/1.1").count(), 1, "{resp}");
        assert_eq!(jobs.load(Ordering::SeqCst), 0, "nothing was routed");
        assert_eq!(gw.stats().requests(Endpoint::Query), 0);
    }

    /// Conflicting duplicate `Content-Length` headers (the CL.CL
    /// smuggling vector) are rejected and the connection closed.
    #[test]
    fn conflicting_content_length_closes_the_connection() {
        let gw = test_gateway(|_req, _reply| {});
        let resp = roundtrip(
            gw.addr(),
            "POST /v1/attrs HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 30\r\n\r\nA=1",
        );
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
        assert_eq!(resp.matches("HTTP/1.1").count(), 1, "{resp}");
    }

    /// A rejected request (404 route) with a body must not leave the
    /// body bytes in the buffer: the parser consumes head *and* body, so
    /// the next pipelined request on the keep-alive connection parses
    /// cleanly instead of desyncing.
    #[test]
    fn rejected_request_with_body_does_not_desync_keep_alive() {
        let gw = test_gateway(|req, reply| {
            if let GwRequest::Health = req {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 1,
                    alive: 1,
                });
            }
        });
        let resp = roundtrip(
            gw.addr(),
            "POST /nope HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello\
             GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");
        assert!(resp.contains("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        assert_eq!(gw.stats().requests(Endpoint::Health), 1);
    }

    /// Middleware: the per-peer token bucket answers 429 once the burst
    /// is spent, and counts it.
    #[test]
    fn rate_limit_answers_429_and_counts() {
        let gw = test_gateway_opts(
            GatewayOpts {
                rate_limit: 1.0,
                ..GatewayOpts::default()
            },
            |req, reply| {
                if let GwRequest::Health = req {
                    let _ = reply.send(GwReply::Health {
                        node: 0,
                        members: 1,
                        alive: 1,
                    });
                }
            },
        );
        let mut statuses = Vec::new();
        for _ in 0..3 {
            let resp = roundtrip(
                gw.addr(),
                "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            );
            statuses.push(resp.split_whitespace().nth(1).unwrap_or("?").to_owned());
        }
        assert_eq!(statuses[0], "200", "{statuses:?}");
        assert_eq!(statuses[1], "200", "{statuses:?}");
        assert_eq!(statuses[2], "429", "{statuses:?}");
        assert_eq!(gw.stats().rate_limited.load(Ordering::Relaxed), 1);
        assert!(gw.stats().errors.load(Ordering::Relaxed) >= 1);
    }

    /// Middleware: a request the daemon never answers times out with 408
    /// after `request_timeout`, counted in `request_timeouts`.
    #[test]
    fn unanswered_request_times_out_with_408() {
        let held: Arc<Mutex<Vec<Reply>>> = Arc::new(Mutex::new(Vec::new()));
        let held2 = Arc::clone(&held);
        let gw = test_gateway_opts(
            GatewayOpts {
                request_timeout: Duration::from_millis(50),
                ..GatewayOpts::default()
            },
            move |_req, reply| {
                held2.lock().unwrap().push(reply); // never answer
            },
        );
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 408 "), "{resp}");
        assert_eq!(gw.stats().request_timeouts.load(Ordering::Relaxed), 1);
        // The daemon's held sink now fails its sends: hang-up observed.
        let sink = held.lock().unwrap().pop().unwrap();
        assert!(sink.send(GwReply::Keepalive).is_err());
    }

    /// Middleware: a poisoned request kills its own connection only —
    /// its host survives and keeps serving others. The poison is a
    /// request whose handler panics, which the loop calls inside the
    /// connection's isolation.
    #[test]
    fn panics_are_isolated_to_their_connection() {
        let gw = test_gateway(|req, reply| match req {
            GwRequest::Query { q } if q == "boom" => panic!("poisoned request"),
            GwRequest::Health => {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 1,
                    alive: 1,
                });
            }
            _ => {}
        });
        let poisoned = roundtrip(gw.addr(), "GET /v1/query?q=boom HTTP/1.1\r\n\r\n");
        assert!(poisoned.is_empty(), "poisoned conn just closes: {poisoned}");
        assert_eq!(gw.stats().panics_caught.load(Ordering::Relaxed), 1);
        // The host is alive and serving.
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    }

    /// Slowloris: a client dribbling header bytes is answered 408 after
    /// `header_timeout` — and because nothing blocks per connection,
    /// other clients are served the whole time.
    #[test]
    fn slowloris_headers_time_out_without_blocking_others() {
        let gw = test_gateway_opts(
            GatewayOpts {
                header_timeout: Duration::from_millis(200),
                ..GatewayOpts::default()
            },
            |req, reply| {
                if let GwRequest::Health = req {
                    let _ = reply.send(GwReply::Health {
                        node: 0,
                        members: 1,
                        alive: 1,
                    });
                }
            },
        );
        let mut slow = TcpStream::connect(gw.addr()).unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        slow.write_all(b"GET /healthz HT").unwrap(); // dribble, never finish
                                                     // While the slow client dangles, fast clients are unaffected.
        for _ in 0..3 {
            let resp = roundtrip(
                gw.addr(),
                "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            );
            assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
        }
        let mut out = String::new();
        let _ = slow.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 408 "), "{out}");
    }

    /// Hundreds of idle keep-alive connections coexist with live traffic
    /// — the reactor's whole point. (The 10k-connection version runs as
    /// an e2e test against a real `moarad` for fd-limit headroom.)
    #[test]
    fn idle_keep_alive_connections_do_not_starve_requests() {
        let gw = test_gateway(|req, reply| {
            if let GwRequest::Health = req {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 1,
                    alive: 1,
                });
            }
        });
        let idle: Vec<TcpStream> = (0..300)
            .map(|_| TcpStream::connect(gw.addr()).unwrap())
            .collect();
        // All idle conns held open; requests still answer immediately.
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
        // And the idle conns themselves are live, not just parked.
        let mut one = idle.into_iter().next().unwrap();
        one.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        one.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        let _ = one.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 200 "), "{out}");
        assert!(gw.stats().conns_accepted.load(Ordering::Relaxed) >= 300);
    }

    /// The connection cap rejects (closes) accepts beyond `max_conns`
    /// and counts them.
    #[test]
    fn connection_cap_rejects_excess_accepts() {
        let gw = test_gateway_opts(
            GatewayOpts {
                max_conns: 2,
                ..GatewayOpts::default()
            },
            |_req, _reply| {},
        );
        let _a = TcpStream::connect(gw.addr()).unwrap();
        let _b = TcpStream::connect(gw.addr()).unwrap();
        // Give the reactor a beat to register both.
        std::thread::sleep(Duration::from_millis(100));
        let mut c = TcpStream::connect(gw.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        let _ = c.read_to_string(&mut out);
        assert!(out.is_empty(), "over-cap conn is closed, not served");
        assert!(gw.stats().conns_rejected.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn stop_refuses_new_connections() {
        let gw = test_gateway(|_req, _reply| {});
        gw.stop();
        std::thread::sleep(Duration::from_millis(100));
        // The acceptor has exited; a fresh connection is never served.
        let mut s = match TcpStream::connect(gw.addr()) {
            Ok(s) => s,
            Err(_) => return, // listener already closed: also fine
        };
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(
            out.is_empty() || out.starts_with("HTTP/1.1 503"),
            "stopped gateway must not serve: {out}"
        );
    }

    #[test]
    fn head_and_options_serve_probes() {
        let gw = test_gateway(|req, reply| {
            if let GwRequest::Health = req {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 3,
                    alive: 3,
                });
            }
        });
        // HEAD /healthz: GET's headers (Content-Length included), no body.
        let resp = roundtrip(
            gw.addr(),
            "HEAD /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("Content-Length:"), "{resp}");
        assert!(resp.ends_with("\r\n\r\n"), "no body after headers: {resp}");
        // OPTIONS: 200 with the allowed-methods surface.
        let resp = roundtrip(
            gw.addr(),
            "OPTIONS /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
        assert!(resp.contains("Allow: GET, HEAD, POST, OPTIONS"), "{resp}");
        // HEAD cannot open a stream; the 405 points at GET.
        let resp = roundtrip(
            gw.addr(),
            "HEAD /v1/watch?q=x HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 405 "), "{resp}");
        assert!(resp.contains("Allow: GET\r\n"), "{resp}");
    }

    #[test]
    fn attr_bodies_parse_form_comma_and_literal_comma_values() {
        let ok = |body: &str| parse_attr_body(body).unwrap();
        assert_eq!(
            ok("A=1&B=two"),
            vec![("A".into(), "1".into()), ("B".into(), "two".into())]
        );
        assert_eq!(
            ok("A=1,B=two"),
            vec![("A".into(), "1".into()), ("B".into(), "two".into())]
        );
        // A single form pair whose value holds a comma must survive.
        assert_eq!(ok("note=a,b"), vec![("note".into(), "a,b".into())]);
        // Encoded commas are always literal.
        assert_eq!(ok("note=a%2Cb"), vec![("note".into(), "a,b".into())]);
        // Form syntax keeps commas literal even with multiple pairs.
        assert_eq!(
            ok("A=1,2&B=3"),
            vec![("A".into(), "1,2".into()), ("B".into(), "3".into())]
        );
        assert!(parse_attr_body("justnonsense").is_err());
        assert!(parse_attr_body("=v&A=1").is_err());
    }

    #[test]
    fn trace_endpoints_route_and_render_json() {
        let gw = test_gateway(|req, reply| match req {
            GwRequest::Traces { limit } => {
                assert_eq!(limit, 5);
                let _ = reply.send(GwReply::Json {
                    body: "{\"traces\":[]}\n".into(),
                });
            }
            GwRequest::Trace { id } => {
                assert_eq!(id, "00000002-0000002a");
                let _ = reply.send(GwReply::Json {
                    body: "{\"trace_id\":\"00000002-0000002a\",\"spans\":[]}\n".into(),
                });
            }
            other => panic!("unexpected {other:?}"),
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/traces?limit=5 HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("{\"traces\":[]}"), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/trace/00000002-0000002a HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(
            resp.contains("\"trace_id\":\"00000002-0000002a\""),
            "{resp}"
        );
        assert_eq!(gw.stats().requests(Endpoint::Traces), 2);
        // Both requests landed in the traces latency histogram.
        let count = gw.stats().latency.of(Endpoint::Traces).snapshot().count();
        assert_eq!(count, 2);
        // An empty id is a client error, not a daemon round-trip.
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/trace/ HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
    }

    #[test]
    fn access_log_emits_one_json_line_per_request() {
        let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let sink: AccessLogSink = Arc::new(move |line: &str| {
            sink_lines.lock().unwrap().push(line.to_owned());
        });
        let gw = test_gateway_opts(
            GatewayOpts {
                access_log: Some(sink),
                ..GatewayOpts::default()
            },
            |req, reply| {
                if let GwRequest::Health = req {
                    let _ = reply.send(GwReply::Health {
                        node: 7,
                        members: 1,
                        alive: 1,
                    });
                }
            },
        );
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
        let resp = roundtrip(gw.addr(), "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].contains("\"method\":\"GET\"")
                && lines[0].contains("\"path\":\"/healthz\"")
                && lines[0].contains("\"status\":200"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"path\":\"/nope\"") && lines[1].contains("\"status\":404"),
            "{}",
            lines[1]
        );
        for line in lines.iter() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"duration_us\":"), "{line}");
            assert!(line.contains("\"bytes\":"), "{line}");
            assert!(line.contains("\"peer\":\"127.0.0.1:"), "{line}");
        }
    }

    #[test]
    fn cluster_endpoints_route_count_and_track_queue_depth() {
        let gw = test_gateway(|req, reply| match req {
            GwRequest::ClusterHealth => {
                let _ = reply.send(GwReply::Json {
                    body: "{\"node\":0,\"members\":[],\"alerts\":[]}\n".into(),
                });
            }
            GwRequest::ClusterMetrics => {
                let _ = reply.send(GwReply::Metrics {
                    text: "# TYPE moara_up gauge\nmoara_up{instance=\"n0\"} 1\n".into(),
                });
            }
            GwRequest::Alerts => {
                let _ = reply.send(GwReply::Json {
                    body: "{\"node\":0,\"firing\":[]}\n".into(),
                });
            }
            other => panic!("unexpected {other:?}"),
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/cluster/health HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("\"members\":[]"), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/cluster/metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("text/plain"), "{resp}");
        assert!(resp.contains("instance=\"n0\""), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/alerts HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("\"firing\":[]"), "{resp}");
        // Health-table and alert reads count as health checks, the
        // federated scrape as a scrape; all three land in histograms.
        assert_eq!(gw.stats().requests(Endpoint::Health), 2);
        assert_eq!(gw.stats().requests(Endpoint::Metrics), 1);
        let health_count = gw.stats().latency.of(Endpoint::Health).snapshot().count();
        assert_eq!(health_count, 2);
        let metrics_count = gw.stats().latency.of(Endpoint::Metrics).snapshot().count();
        assert_eq!(metrics_count, 1);
        // The test harness never decrements (that's the daemon's step),
        // so the gauge equals the connections handed over.
        assert_eq!(gw.stats().queued_jobs.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn daemon_shutdown_503_lands_in_histogram_and_access_log() {
        // A gateway whose daemon is gone: the loop edge is dropped, so
        // every hand-over finds the door closed and the shard answers 503
        // inline. Those inline answers must still be timed and logged —
        // the regression this pins down.
        let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let sink: AccessLogSink = Arc::new(move |line: &str| {
            sink_lines.lock().unwrap().push(line.to_owned());
        });
        let gw = spawn_daemonless(GatewayOpts {
            access_log: Some(sink),
            ..GatewayOpts::default()
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query?q=SELECT%20count(*) HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 503 "), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/watch?q=SELECT%20count(*) HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 503 "), "{resp}");
        let query_count = gw.stats().latency.of(Endpoint::Query).snapshot().count();
        assert_eq!(query_count, 1, "503 must land in the query histogram");
        let watch_count = gw.stats().latency.of(Endpoint::Watch).snapshot().count();
        assert_eq!(watch_count, 1, "503 must land in the watch histogram");
        // The failed hand-offs never queued anything...
        assert_eq!(gw.stats().queued_jobs.load(Ordering::Relaxed), 0);
        // ...and the reserved stream slot was released.
        assert_eq!(gw.stats().open_streams.load(Ordering::Relaxed), 0);
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2, "{lines:?}");
        for line in lines.iter() {
            assert!(line.contains("\"status\":503"), "{line}");
            assert!(line.contains("\"duration_us\":"), "{line}");
        }
    }

    /// A sink collecting access-log lines.
    fn log_sink() -> (AccessLogSink, Arc<Mutex<Vec<String>>>) {
        let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let sink: AccessLogSink = Arc::new(move |line: &str| {
            sink_lines.lock().unwrap().push(line.to_owned());
        });
        (sink, lines)
    }

    /// Writes `raw` on a fresh connection, reads until the gateway closes
    /// it, and returns the status and the bytes after the response head.
    fn status_and_body(addr: SocketAddr, raw: &str) -> (u16, usize) {
        let resp = roundtrip(addr, raw);
        let head_end = resp.find("\r\n\r\n").expect("a response head") + 4;
        let status = resp[9..12].parse().unwrap();
        (status, resp.len() - head_end)
    }

    /// The status and `bytes` of the newest access-log line.
    fn last_logged(lines: &Mutex<Vec<String>>) -> (u16, usize) {
        let lines = lines.lock().unwrap();
        let line = lines.last().expect("an access-log line");
        let field = |name: &str| -> usize {
            let at = line.find(&format!("\"{name}\":")).unwrap() + name.len() + 3;
            let digits = line[at..].split(|c: char| !c.is_ascii_digit()).next();
            digits.unwrap().parse().unwrap()
        };
        (field("status") as u16, field("bytes"))
    }

    /// Every answer path, asked by `GET` and by `HEAD`: the access log's
    /// `bytes` is the body the client received, and a `HEAD` receives
    /// none, error or not.
    #[test]
    fn every_answer_logs_the_body_bytes_it_wrote_and_head_gets_none() {
        use crate::cache::{CacheConfig, QueryCache};
        let cache = Arc::new(QueryCache::new(CacheConfig {
            promote_after: 1,
            ..CacheConfig::default()
        }));
        assert!(cache.lookup("hot", std::time::Instant::now()).is_none());
        let (key, _) = cache.take_pending_promotions().remove(0);
        assert!(cache.promoted(&key, 1));
        cache.on_update(1, "42".into(), true);
        let held: Arc<Mutex<Vec<Reply>>> = Arc::new(Mutex::new(Vec::new()));
        let held2 = Arc::clone(&held);
        let (sink, lines) = log_sink();
        let gw = test_gateway_opts(
            GatewayOpts {
                access_log: Some(sink.clone()),
                cache: Some(cache),
                request_timeout: Duration::from_millis(50),
                header_timeout: Duration::from_millis(200),
                ..GatewayOpts::default()
            },
            move |req, reply| match req {
                GwRequest::Health => {
                    let _ = reply.send(GwReply::Health {
                        node: 0,
                        members: 1,
                        alive: 1,
                    });
                }
                GwRequest::Watch { .. } => {
                    let _ = reply.send(GwReply::Error {
                        status: 400,
                        msg: "bad watch".into(),
                    });
                }
                _ => held2.lock().unwrap().push(reply), // never answered
            },
        );
        let (limited_sink, limited_lines) = log_sink();
        let limited = test_gateway_opts(
            GatewayOpts {
                access_log: Some(limited_sink),
                rate_limit: 1.0,
                ..GatewayOpts::default()
            },
            |_req, _reply| {},
        );
        let (gone_sink, gone_lines) = log_sink();
        let gone = spawn_daemonless(GatewayOpts {
            access_log: Some(gone_sink),
            ..GatewayOpts::default()
        });
        for _ in 0..2 {
            let raw = "OPTIONS / HTTP/1.1\r\nConnection: close\r\n\r\n";
            assert_eq!(status_and_body(limited.addr(), raw).0, 200); // spend the burst
        }
        // (gateway, its log, request after the method, status)
        let paths: [(&GatewayHandle, &Mutex<Vec<String>>, &str, u16); 8] = [
            (&limited, &limited_lines, "/healthz HTTP/1.1\r\n", 429),
            (&gw, &lines, "/healthz HTTP/1.1\r\n", 200),
            (&gw, &lines, "/v1/query?q=hot HTTP/1.1\r\n", 200),
            (&gw, &lines, "/nope HTTP/1.1\r\n", 404),
            (&gw, &lines, "/v1/query HTTP/1.1\r\n", 400),
            (&gw, &lines, "/v1/query?q=cold HTTP/1.1\r\n", 408),
            (
                &gw,
                &lines,
                "/ HTTP/1.1\r\nTransfer-Encoding: chunked\r\n",
                501,
            ),
            (&gone, &gone_lines, "/healthz HTTP/1.1\r\n", 503),
        ];
        for (gw, lines, rest, status) in paths {
            for method in ["GET", "HEAD"] {
                let raw = format!("{method} {rest}Connection: close\r\n\r\n");
                let (got, body) = status_and_body(gw.addr(), &raw);
                assert_eq!(got, status, "{raw}");
                assert_eq!(last_logged(lines), (status, body), "{raw}");
                assert!(method == "GET" || body == 0, "{raw} has a body");
            }
        }
        // The stream paths take only GET, and OPTIONS only itself.
        let watches = [
            ("GET /v1/watch?q=x HTTP/1.1\r\n\r\n", 400),
            ("OPTIONS / HTTP/1.1\r\nConnection: close\r\n\r\n", 200),
        ];
        for (raw, status) in watches {
            let (got, body) = status_and_body(gw.addr(), raw);
            assert_eq!(got, status, "{raw}");
            assert_eq!(last_logged(&lines), (status, body), "{raw}");
        }
        let (full_sink, full_lines) = log_sink();
        let full = test_gateway_opts(
            GatewayOpts {
                access_log: Some(full_sink),
                max_sse_streams: 0,
                ..GatewayOpts::default()
            },
            |_req, _reply| {},
        );
        let (got, body) = status_and_body(full.addr(), "GET /v1/watch?q=x HTTP/1.1\r\n\r\n");
        assert_eq!(got, 503);
        assert_eq!(last_logged(&full_lines), (503, body));
        // A head that never finishes parsing: the slowloris cutoff.
        for method in ["GET", "HEAD"] {
            let mut slow = TcpStream::connect(gw.addr()).unwrap();
            slow.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            slow.write_all(format!("{method} /healthz HT").as_bytes())
                .unwrap();
            let mut resp = String::new();
            let _ = slow.read_to_string(&mut resp);
            assert!(resp.starts_with("HTTP/1.1 408 "), "{resp}");
            let body = resp.len() - (resp.find("\r\n\r\n").unwrap() + 4);
            assert_eq!(last_logged(&lines), (408, body), "{method}");
            assert!(method == "GET" || body == 0, "{method} has a body");
        }
    }

    /// The middleware order: the rate limit comes before routing, before
    /// the shard's own answers and before a stream takes its slot.
    #[test]
    fn the_rate_limit_answers_before_routing_options_and_streams() {
        let jobs = Arc::new(AtomicU64::new(0));
        let jobs2 = Arc::clone(&jobs);
        let gw = test_gateway_opts(
            GatewayOpts {
                rate_limit: 1.0,
                ..GatewayOpts::default()
            },
            move |_req, _reply| {
                jobs2.fetch_add(1, Ordering::SeqCst);
            },
        );
        for _ in 0..2 {
            let raw = "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n";
            assert_eq!(status_and_body(gw.addr(), raw).0, 404); // spend the burst
        }
        for raw in [
            "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
            "OPTIONS /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            "GET /v1/watch?q=x HTTP/1.1\r\nConnection: close\r\n\r\n",
        ] {
            assert_eq!(status_and_body(gw.addr(), raw).0, 429, "{raw}");
        }
        assert_eq!(gw.stats().rate_limited.load(Ordering::Relaxed), 3);
        assert_eq!(gw.stats().open_streams.load(Ordering::SeqCst), 0);
        assert_eq!(jobs.load(Ordering::SeqCst), 0, "nothing reached the daemon");
    }

    /// The deadline holds for a reply that does come, only late.
    #[test]
    fn a_reply_after_its_deadline_answers_408() {
        let gw = test_gateway_opts(
            GatewayOpts {
                request_timeout: Duration::from_millis(1),
                ..GatewayOpts::default()
            },
            |_req, reply| {
                std::thread::sleep(Duration::from_millis(20));
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 1,
                    alive: 1,
                });
            },
        );
        let raw = "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert_eq!(status_and_body(gw.addr(), raw).0, 408);
        assert_eq!(gw.stats().request_timeouts.load(Ordering::Relaxed), 1);
    }

    /// A keep-alive connection whose first request, `/healthz`, moved it
    /// to the loop, and a reader on it.
    fn moved_conn(gw: &GatewayHandle) -> (TcpStream, BufReader<TcpStream>) {
        let s = TcpStream::connect(gw.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        (&s).write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut reader, false).0, 200);
        (s, reader)
    }

    /// Reads one response off a keep-alive connection: its status and
    /// body, which a `HEAD` answer has none of.
    fn read_response(reader: &mut BufReader<TcpStream>, head_only: bool) -> (u16, String) {
        let (mut status, mut len) = (0, 0);
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if let Some(code) = line.strip_prefix("HTTP/1.1 ") {
                status = code[..3].parse().unwrap();
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().unwrap();
            }
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        let mut body = vec![0u8; if head_only { 0 } else { len }];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    fn health(reply: &Reply) {
        let _ = reply.send(GwReply::Health {
            node: 0,
            members: 1,
            alive: 1,
        });
    }

    /// The deadline on a connection the loop hosts: a request never
    /// answered and one answered late both get 408, and the late reply
    /// finds the connection gone.
    #[test]
    fn on_the_loop_a_deadline_and_a_late_reply_answer_408() {
        let held: Arc<Mutex<Vec<Reply>>> = Arc::new(Mutex::new(Vec::new()));
        let held2 = Arc::clone(&held);
        let gw = test_gateway_opts(
            GatewayOpts {
                request_timeout: Duration::from_millis(300),
                ..GatewayOpts::default()
            },
            move |req, reply| match req {
                GwRequest::Health => health(&reply),
                GwRequest::Query { q } if q == "late" => {
                    std::thread::sleep(Duration::from_millis(400));
                    health(&reply);
                }
                _ => held2.lock().unwrap().push(reply), // never answered
            },
        );
        let (s, mut reader) = moved_conn(&gw);
        (&s).write_all(b"GET /v1/query?q=never HTTP/1.1\r\n\r\n")
            .unwrap();
        assert_eq!(read_response(&mut reader, false).0, 408);
        let sink = held.lock().unwrap().pop().unwrap();
        assert!(sink.send(GwReply::Keepalive).is_err());
        let (s, mut reader) = moved_conn(&gw);
        (&s).write_all(b"GET /v1/query?q=late HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut late = String::new();
        let _ = reader.read_to_string(&mut late);
        assert!(late.starts_with("HTTP/1.1 408 "), "{late}");
        assert_eq!(gw.stats().request_timeouts.load(Ordering::Relaxed), 2);
        // Each connection moved once, with its first request.
        assert_eq!(gw.stats().handovers.load(Ordering::Relaxed), 2);
    }

    /// Slowloris on a connection the loop hosts: a head that dribbles in
    /// after a served request is answered 408 by the loop's sweep.
    #[test]
    fn on_the_loop_slowloris_headers_time_out() {
        let gw = test_gateway_opts(
            GatewayOpts {
                header_timeout: Duration::from_millis(200),
                ..GatewayOpts::default()
            },
            |req, reply| {
                if let GwRequest::Health = req {
                    health(&reply);
                }
            },
        );
        let (s, mut reader) = moved_conn(&gw);
        (&s).write_all(b"GET /healthz HT").unwrap(); // dribble, never finish
        let mut out = String::new();
        let _ = reader.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 408 "), "{out}");
        assert_eq!(gw.stats().handovers.load(Ordering::Relaxed), 1);
    }

    /// A request pipelined behind a walk on a connection the loop hosts
    /// waits for the walk's answer, then is answered after it, in order.
    #[test]
    fn on_the_loop_a_pipelined_request_waits_behind_a_walk() {
        let walks: Arc<Mutex<Vec<Reply>>> = Arc::new(Mutex::new(Vec::new()));
        let walks2 = Arc::clone(&walks);
        let gw = test_gateway(move |req, reply| match req {
            GwRequest::Health => health(&reply),
            _ => walks2.lock().unwrap().push(reply),
        });
        let (s, mut reader) = moved_conn(&gw);
        (&s).write_all(
            b"GET /v1/query?q=walk HTTP/1.1\r\n\r\n\
              GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let walk = loop {
            if let Some(walk) = walks.lock().unwrap().pop() {
                break walk;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        // Nothing comes before the walk's answer.
        s.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert!(reader.get_mut().read(&mut byte).is_err(), "answered early");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let answer = GwReply::Answer {
            result: "7".into(),
            complete: true,
            cache: None,
        };
        assert_eq!(walk.send(answer), Ok(()));
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        let answers = rest
            .strip_prefix("HTTP/1.1 200 OK\r\n")
            .expect("the walk's answer");
        let (first, second) = answers
            .split_once("HTTP/1.1 200 OK\r\n")
            .expect("then health");
        assert!(
            first.contains("{\"result\":\"7\",\"complete\":true}"),
            "{rest}"
        );
        assert!(second.contains("\"status\":\"ok\""), "{rest}");
        assert_eq!(gw.stats().requests(Endpoint::Health), 2);
        assert_eq!(gw.stats().handovers.load(Ordering::Relaxed), 1);
    }

    /// Every answer the loop gives a connection it hosts, asked by `GET`
    /// and by `HEAD`: the access log's `bytes` is the body the client
    /// received — none for a `HEAD` — and the deadline's 408 ends it.
    #[test]
    fn on_the_loop_every_answer_logs_the_body_bytes_it_wrote_and_head_gets_none() {
        use crate::cache::{CacheConfig, QueryCache};
        let cache = Arc::new(QueryCache::new(CacheConfig {
            promote_after: 1,
            ..CacheConfig::default()
        }));
        assert!(cache.lookup("hot", std::time::Instant::now()).is_none());
        let (key, _) = cache.take_pending_promotions().remove(0);
        assert!(cache.promoted(&key, 1));
        cache.on_update(1, "42".into(), true);
        let held: Arc<Mutex<Vec<Reply>>> = Arc::new(Mutex::new(Vec::new()));
        let held2 = Arc::clone(&held);
        let (sink, lines) = log_sink();
        let gw = test_gateway_opts(
            GatewayOpts {
                access_log: Some(sink),
                cache: Some(cache),
                request_timeout: Duration::from_millis(300),
                ..GatewayOpts::default()
            },
            move |req, reply| match req {
                GwRequest::Health => health(&reply),
                _ => held2.lock().unwrap().push(reply), // never answered
            },
        );
        let (s, mut reader) = moved_conn(&gw);
        // A keep-alive answer can reach the client before its line is
        // logged: wait for the `n`th line.
        let nth_logged = |n: usize| {
            while lines.lock().unwrap().len() < n {
                std::thread::sleep(Duration::from_millis(1));
            }
            last_logged(&lines)
        };
        let mut n = 1;
        let paths = [
            ("/healthz", 200),
            ("/v1/query?q=hot", 200),
            ("/nope", 404),
            ("/v1/query", 400),
        ];
        for (path, status) in paths {
            for method in ["GET", "HEAD"] {
                let raw = format!("{method} {path} HTTP/1.1\r\n\r\n");
                (&s).write_all(raw.as_bytes()).unwrap();
                let (got, body) = read_response(&mut reader, method == "HEAD");
                assert_eq!(got, status, "{raw}");
                n += 1;
                assert_eq!(nth_logged(n), (status, body.len()), "{raw}");
                assert!(method == "GET" || body.is_empty(), "{raw} has a body");
            }
        }
        (&s).write_all(b"HEAD /v1/query?q=cold HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        assert!(rest.starts_with("HTTP/1.1 408 "), "{rest}");
        assert!(rest.ends_with("\r\n\r\n"), "no body after headers: {rest}");
        assert_eq!(last_logged(&lines), (408, 0));
        assert_eq!(gw.stats().handovers.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn access_log_line_is_exact_and_escapes() {
        let line = access_log_line(
            1700000000123,
            "GET",
            "/v1/query",
            200,
            4321,
            17,
            "10.0.0.9:55123",
        );
        assert_eq!(
            line,
            "{\"ts_ms\":1700000000123,\"method\":\"GET\",\"path\":\"/v1/query\",\
             \"status\":200,\"duration_us\":4321,\"bytes\":17,\"peer\":\"10.0.0.9:55123\"}"
        );
        // Hostile path characters must come out escaped, keeping the line
        // one valid JSON object.
        let line = access_log_line(1, "GET", "/v1/query?q=\"x\"\n", 400, 1, 0, "-");
        assert!(line.contains("\\\"x\\\"\\n"), "{line}");
    }

    #[test]
    fn atomic_histogram_buckets_cumulate() {
        let latency = EndpointLatency::default();
        let h = latency.of(Endpoint::Query);
        h.observe(50); // <= 100
        h.observe(150); // <= 250
        h.observe(2_000_000); // +Inf
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.sum, 50 + 150 + 2_000_000);
        assert_eq!(snap.bounds, &REQUEST_LATENCY_BOUNDS_US);
        let cumulative = snap.cumulative;
        assert_eq!(cumulative.len(), REQUEST_LATENCY_BOUNDS_US.len() + 1);
        assert_eq!(cumulative[0], 1);
        assert_eq!(cumulative[1], 2);
        assert_eq!(*cumulative.last().unwrap(), 3);
        // Monotone non-decreasing throughout.
        assert!(cumulative.windows(2).all(|w| w[0] <= w[1]));
        // Classes index one array, in scrape order.
        let classes: Vec<_> = latency.families().map(|(c, _)| c).collect();
        assert_eq!(
            classes,
            ["query", "attrs", "watch", "metrics", "health", "traces", "other"]
        );
        latency.of(Endpoint::Other).observe(1);
        assert_eq!(latency.of(Endpoint::Other).snapshot().count(), 1);
    }

    #[test]
    fn policy_parser_covers_all_spellings() {
        assert_eq!(parse_policy("on-change"), Ok(WatchPolicy::OnChange));
        assert_eq!(parse_policy("period:250"), Ok(WatchPolicy::PeriodMs(250)));
        assert_eq!(
            parse_policy("threshold:2.5"),
            Ok(WatchPolicy::Threshold(2.5))
        );
        assert!(parse_policy("period:0").is_err());
        assert!(parse_policy("period:x").is_err());
        assert!(parse_policy("threshold:NaN").is_err());
        assert!(parse_policy("whenever").is_err());
    }
}
