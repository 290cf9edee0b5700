//! Starting real `moarad` processes for the end-to-end suites.
//!
//! Every daemon binds `--listen 127.0.0.1:0` and the suite reads the
//! control address it got from the boot banner (`ctrl=`). A port picked
//! by the test and released before the daemon binds it could be taken in
//! between by any `bind(0)` in a parallel test of the same binary.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Kills the child on drop so failed asserts don't leak daemons.
pub struct Guard(pub Child);

impl Drop for Guard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `moarad --listen 127.0.0.1:0 <args>` and waits for its boot
/// banner; returns the guard, the banner and the daemon's stderr lines
/// as they arrive (each also echoed to the test's own stderr). A daemon
/// that exits or stays silent fails the test with its exit status and
/// stderr.
pub fn spawn(args: &[&str]) -> (Guard, String, Arc<Mutex<Vec<String>>>) {
    let mut moarad = Command::new(env!("CARGO_BIN_EXE_moarad"));
    moarad.args(["--listen", "127.0.0.1:0"]).args(args);
    spawn_command(moarad)
}

/// [`spawn`] for a command of the caller's that ends up as a `moarad`
/// (a shell that sets a limit, then `exec`s it).
pub fn spawn_command(mut command: Command) -> (Guard, String, Arc<Mutex<Vec<String>>>) {
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn moarad");
    let stdout = child.stdout.take().expect("piped stdout");
    let stderr = child.stderr.take().expect("piped stderr");
    let logs = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&logs);
    let drain = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            eprintln!("{line}");
            sink.lock().unwrap().push(line);
        }
    });
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        if let Some(Ok(line)) = lines.next() {
            let _ = tx.send(line);
        }
        // Keep draining so the daemon never blocks on a full pipe.
        for _ in lines {}
    });
    let Ok(banner) = rx.recv_timeout(Duration::from_secs(30)) else {
        let _ = child.kill();
        let status = child.wait();
        let _ = drain.join();
        let stderr = logs.lock().unwrap().join("\n");
        panic!("moarad printed no banner (exit: {status:?}); stderr:\n{stderr}");
    };
    assert!(banner.starts_with("MOARAD"), "unexpected banner: {banner}");
    (Guard(child), banner, logs)
}

/// The value of `key` (e.g. `"ctrl="`, `"http="`) in a boot banner.
pub fn field(banner: &str, key: &str) -> String {
    banner
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key))
        .unwrap_or_else(|| panic!("banner carries {key}: {banner}"))
        .to_owned()
}
