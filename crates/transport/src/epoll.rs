//! The raw Linux readiness layer under every event loop in a daemon —
//! the peer transport's (`tcp.rs`), the control port's (`moara-daemon`'s
//! `ctrl.rs`, through this crate) and the HTTP edge's (`moara-gateway`'s
//! `reactor.rs`, which includes this file by `#[path]`: the two crates
//! share no dependency edge, and one copy is the point). `epoll`,
//! `eventfd`, a non-blocking `connect` and `listen` through `extern "C"`
//! declarations, the same no-new-deps pattern as `signal()` in `moarad`;
//! Linux-only, like the rest of the deployment story. Nothing here may
//! name an item of the including crate.

use std::borrow::Borrow;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
/// A readiness wakes one (or a few) of the waiting sets that hold the fd
/// under this flag, not all of them.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;
/// Reports a member's readiness once per change, not for as long as it
/// lasts.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
/// `O_CLOEXEC` and `O_NONBLOCK`, which `epoll_create1`, `eventfd` and
/// `socket` all take under their own names.
const CLOEXEC: i32 = 0o2000000;
const NONBLOCK: i32 = 0o4000;
/// `epoll_pwait2`'s number (one for every architecture, Linux 5.11 on).
/// Reached through `syscall`, so the libc need not know it yet.
const SYS_EPOLL_PWAIT2: i64 = 441;
const EPERM: i32 = 1;
const EINTR: i32 = 4;
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;
const ENOSYS: i32 = 38;
const EINPROGRESS: i32 = 115;

/// Matches the kernel ABI: packed on x86-64 (the kernel declares the
/// struct `__attribute__((packed))` there), natural alignment elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    pub events: u32,
    /// The token the fd was registered under.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn syscall(number: i64, ...) -> i64;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// Set once the kernel has refused `epoll_pwait2` (older than 5.11, or a
/// seccomp filter): every later wait is an `epoll_wait`.
static NO_PWAIT2: AtomicBool = AtomicBool::new(false);

/// One `epoll` set. Members are level-triggered and carry a `u64` token;
/// closing a member's fd takes it out of the set.
pub struct Epoll(RawFd);

impl Epoll {
    /// Panics if the kernel refuses an epoll instance (fd exhaustion at
    /// boot); a `Default` must not panic, so there is none.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Epoll {
        let fd = unsafe { epoll_create1(CLOEXEC) };
        assert!(fd >= 0, "epoll_create1: {}", io::Error::last_os_error());
        Epoll(fd)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        match unsafe { epoll_ctl(self.0, op, fd, &mut ev) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    /// Makes `fd` a member under `token`. An error means the kernel is
    /// out of memory or watches (`max_user_watches`): the caller must not
    /// keep a socket it will never hear from.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes what member `fd` is watched for. Panics if it is not a
    /// member — a bookkeeping bug in the caller.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) {
        if let Err(e) = self.ctl(EPOLL_CTL_MOD, fd, events, token) {
            panic!("epoll_ctl(MOD, {fd}): {e}");
        }
    }

    /// Takes `fd` out of the set, open (the HTTP edge moves sockets).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout` for members to become ready and returns the
    /// ready ones (none on a timeout or a signal). `epoll_pwait2`, so the
    /// timeout keeps its nanoseconds; where the kernel does not have it,
    /// `epoll_wait` with the timeout rounded *up* to a whole millisecond
    /// (a 300 µs timer then fires at 1 ms, never early). Panics on any
    /// other error: a loop that cannot wait would spin deaf, and none of
    /// them (`EBADF`, `EFAULT`, `EINVAL`) is transient.
    pub fn wait<'a>(&self, events: &'a mut [EpollEvent], timeout: Duration) -> &'a [EpollEvent] {
        let (buf, cap) = (events.as_mut_ptr(), events.len() as i32);
        let errno = || io::Error::last_os_error().raw_os_error();
        let mut n = -1;
        if !NO_PWAIT2.load(Ordering::Relaxed) {
            // A `__kernel_timespec`; no signal mask.
            let ts = [timeout.as_secs() as i64, i64::from(timeout.subsec_nanos())];
            let (epfd, cap) = (i64::from(self.0), i64::from(cap));
            n = unsafe {
                syscall(
                    SYS_EPOLL_PWAIT2,
                    epfd,
                    buf,
                    cap,
                    ts.as_ptr(),
                    0usize,
                    8usize,
                )
            };
            if n < 0 && matches!(errno(), Some(ENOSYS | EPERM)) {
                NO_PWAIT2.store(true, Ordering::Relaxed);
            }
        }
        if NO_PWAIT2.load(Ordering::Relaxed) {
            let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128);
            n = i64::from(unsafe { epoll_wait(self.0, buf, cap, ms as i32) });
        }
        if n < 0 {
            assert_eq!(errno(), Some(EINTR), "epoll wait failed");
            return &[];
        }
        &events[..n as usize]
    }
}

/// The set's own fd: a set can be a member of another.
impl AsRawFd for Epoll {
    fn as_raw_fd(&self) -> RawFd {
        self.0
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.0) };
    }
}

/// An `eventfd` that ends another thread's [`Epoll::wait`]: a member of
/// its set, written from anywhere. Edge-triggered, so the loop never has
/// to read it: every write is reported by exactly one later `wait` — the
/// one in progress or, if the loop is busy, its next — and a wake costs
/// one syscall on the sending side and none on the woken one.
#[derive(Debug)]
pub struct WakeFd(RawFd);

impl WakeFd {
    /// Panics if the kernel refuses an eventfd (so, no `Default`).
    #[allow(clippy::new_without_default)]
    pub fn new() -> WakeFd {
        let fd = unsafe { eventfd(0, NONBLOCK | CLOEXEC) };
        assert!(fd >= 0, "eventfd: {}", io::Error::last_os_error());
        WakeFd(fd)
    }

    /// Makes the eventfd a member of `epoll` under `token` (boot time:
    /// panics if the set refuses it).
    pub fn register(&self, epoll: &Epoll, token: u64) {
        let added = epoll.add(self.0, EPOLLIN | EPOLLET, token);
        added.expect("wake eventfd joins its epoll set");
    }

    pub fn wake(&self) {
        // Cannot fail short of 2^64 wakes: nothing ever reads the counter.
        let one: u64 = 1;
        let _ = unsafe { write(self.0, (&one as *const u64).cast(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe { close(self.0) };
    }
}

/// Starts a TCP connection without waiting for it (`std` can only
/// connect blocking). The socket is non-blocking and reports `EPOLLOUT`
/// once the handshake is over — then `take_error()` says how it went.
/// Errors are what `socket` or `connect` refuse on the spot.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    const SOCK_STREAM: i32 = 1;
    // `sockaddr_in` / `sockaddr_in6`, laid out by hand: family, port in
    // network order, then the address (v6: between flowinfo and scope).
    let mut sa = [0u8; 28];
    sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
    let (family, len) = match addr {
        SocketAddr::V4(a) => {
            sa[4..8].copy_from_slice(&a.ip().octets());
            (2u16, 16)
        }
        SocketAddr::V6(a) => {
            sa[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
            sa[8..24].copy_from_slice(&a.ip().octets());
            sa[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (10u16, 28)
        }
    };
    sa[..2].copy_from_slice(&family.to_ne_bytes());
    let fd = unsafe { socket(i32::from(family), SOCK_STREAM | NONBLOCK | CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // Owned from here on: every return below closes it.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    if unsafe { connect(fd, sa.as_ptr(), len) } < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            return Err(err);
        }
    }
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Readies a bound listener for an epoll loop: non-blocking, with an
/// accept queue `backlog` connections deep. `TcpListener::bind` leaves
/// 128, and a second `listen` resizes the queue; the kernel caps it at
/// its own `somaxconn`.
pub fn listen_nonblocking(listener: &TcpListener, backlog: i32) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    match unsafe { listen(listener.as_raw_fd(), backlog) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// How long a listener stays out of its set once `accept` found no
/// descriptor for a waiting connection.
pub const ACCEPT_PAUSE: Duration = Duration::from_millis(100);

/// A non-blocking listener's membership of one epoll set, which it leaves
/// for [`ACCEPT_PAUSE`] when the process or the system is out of
/// descriptors (`EMFILE`, `ENFILE`). The connection `accept` could not
/// take stays queued, so a level-triggered listener would stay ready and
/// its owner spin until a descriptor frees; out of the set, it waits out
/// the pause and then tries again. A member under `EPOLLEXCLUSIVE`
/// cannot be modified, so it leaves by a delete and comes back by an add.
pub struct Listening<L> {
    listener: L,
    events: u32,
    token: u64,
    /// While it is out of the set: when it goes back.
    back_at: Option<Instant>,
}

impl<L: Borrow<TcpListener>> Listening<L> {
    /// Makes `listener` a member of `epoll` for `events` under `token`.
    pub fn new(epoll: &Epoll, listener: L, events: u32, token: u64) -> io::Result<Listening<L>> {
        epoll.add(listener.borrow().as_raw_fd(), events, token)?;
        Ok(Listening {
            listener,
            events,
            token,
            back_at: None,
        })
    }

    /// The next queued connection; `None` when there is none to take now:
    /// the queue is empty, `accept` failed, or the descriptors ran out and
    /// the listener has left `epoll` for a pause that starts at `now`.
    pub fn accept(&mut self, epoll: &Epoll, now: Instant) -> Option<TcpStream> {
        let listener = self.listener.borrow();
        match listener.accept() {
            Ok((stream, _)) => Some(stream),
            Err(e) => {
                if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) {
                    let _ = epoll.delete(listener.as_raw_fd());
                    self.back_at = Some(now + ACCEPT_PAUSE);
                }
                None
            }
        }
    }

    /// How long from `now` until the listener goes back into its set;
    /// `None` while it is in.
    pub fn paused_for(&self, now: Instant) -> Option<Duration> {
        Some(self.back_at?.saturating_duration_since(now))
    }

    /// Puts the listener back into `epoll` once its pause is over by
    /// `now` (one syscall then, none before). A set that refuses it (out
    /// of memory or watches) gets it back after another pause.
    pub fn resume(&mut self, epoll: &Epoll, now: Instant) {
        if self.paused_for(now) != Some(Duration::ZERO) {
            return;
        }
        let fd = self.listener.borrow().as_raw_fd();
        self.back_at = match epoll.add(fd, self.events, self.token) {
            Ok(()) => None,
            Err(_) => Some(now + ACCEPT_PAUSE),
        };
    }
}
