//! `moarad` — the Moara daemon: one protocol node per process, clustered
//! over TCP.
//!
//! ```text
//! # seed a cluster
//! moarad --listen 127.0.0.1:7101 --attrs ServiceX=true
//! # join two more daemons
//! moarad --listen 127.0.0.1:7102 --join 127.0.0.1:7101 --attrs ServiceX=false
//! moarad --listen 127.0.0.1:7103 --join 127.0.0.1:7101 --attrs ServiceX=true
//! # ask any daemon
//! moara-cli --connect 127.0.0.1:7102 query "SELECT count(*) WHERE ServiceX = true"
//! ```
//!
//! `--listen` is the control-plane address (clients and joiners dial it);
//! the peer plane auto-binds and is exchanged through membership.
//! `--http ADDR` additionally opens the HTTP edge gateway there (see
//! `docs/gateway.md`). `moarad --help` lists every flag with its default;
//! the flags are one table, in `moara_daemon::flags`.
//!
//! SIGINT/SIGTERM shut the daemon down gracefully: it stops accepting,
//! cancels its standing watches and SSE streams (so peers GC that state
//! promptly), flushes the cancels, and exits 0.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use moara_daemon::{flags, Daemon};
use moara_transport::WakeHandle;

/// Flipped by the SIGINT/SIGTERM handler; the main loop notices and
/// shuts down gracefully.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The loop's wake: the handler ends the loop's wait with it, whichever
/// thread the signal lands on.
static WAKE: OnceLock<WakeHandle> = OnceLock::new();

/// A store and one `write(2)` to the wake eventfd: both async-signal-safe.
extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
    if let Some(wake) = WAKE.get() {
        wake.wake();
    }
}

/// Registers the shutdown handler via libc's `signal` (linked into every
/// `std` binary; declared here because the container bakes in no signal
/// crate). No-op on non-Unix targets.
fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match flags::parse(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{}", flags::help());
            return;
        }
        Err(e) => {
            eprintln!("moarad: {e}\n{}", flags::usage());
            std::process::exit(2);
        }
    };

    install_signal_handlers();
    let mut daemon = match Daemon::start(opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("moarad: {e}");
            std::process::exit(1);
        }
    };

    // One parseable line for scripts/tests, then serve forever. The
    // member count printed here is the view at boot; poll `status` via
    // moara-cli for the live view.
    println!(
        "MOARAD ctrl={} node=n{} peer={} members={} http={}",
        daemon.ctrl_addr(),
        daemon.id().0,
        daemon
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|| "-".into()),
        daemon.member_count(),
        daemon
            .http_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|| "-".into()),
    );
    let _ = WAKE.set(daemon.wake_handle());
    let mut last_members = daemon.member_count();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        // The step's own deadlines (the tick, at most a second away) end
        // its wait; a signal or a gateway shard's hand-off, at once.
        daemon.step(Duration::from_secs(60));
        let members = daemon.member_count();
        if members != last_members {
            println!("MOARAD members={members}");
            last_members = members;
        }
    }
    daemon.shutdown();
    println!("MOARAD shutdown");
}
