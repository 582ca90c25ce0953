//! How the ingestion loop sleeps: one blocking wait that returns as
//! soon as a socket is ready, the service reports a state change, or
//! the timeout (the nearest eviction deadline) passes.
//!
//! On 64-bit Linux the wait is `ppoll(2)` over the watched sockets plus
//! the read end of a wake socket pair. `ppoll` rather than `poll`
//! because `poll` takes whole milliseconds and would round a deadline.
//! A `Wake` writes one byte to the pair's other end; an `AtomicBool`
//! coalesces wakes so at most one byte is outstanding per episode, and
//! the loop reads the socket only when `ppoll` reports it readable.
//! Everywhere else the wait is a fixed [`RETRY_SLEEP`] and a `Wake`
//! does nothing.

use std::time::Duration;

pub(crate) use imp::Waiter;

/// What a wait sleeps when it cannot block on readiness: after a failed
/// `ppoll`, so a persistent error cannot spin the loop, and after every
/// sweep that moves nothing on platforms without `ppoll`.
const RETRY_SLEEP: Duration = Duration::from_micros(500);

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
// `std` already links libc but does not wrap `ppoll`: the declaration
// and its one call below are the crate's only unsafe code.
#[allow(unsafe_code)]
mod imp {
    use std::io::{ErrorKind, Read, Write};
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering::AcqRel};
    use std::sync::Arc;
    use std::time::Duration;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// `struct timespec` (`time_t` is `long` on 64-bit Linux).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// The sending half of the wake channel; cheap to call from any
    /// thread.
    pub(crate) struct Wake {
        /// Set by the first wake of an episode, cleared by the loop
        /// after it drained the socket. Both sides swap with `AcqRel`:
        /// the loop's clear acquires the state change published before
        /// the wake that set it.
        pending: AtomicBool,
        tx: UnixStream,
    }

    impl Wake {
        /// Makes the loop's current or next wait return.
        pub(crate) fn wake(&self) {
            if self.pending.swap(true, AcqRel) {
                return;
            }
            // `WouldBlock` means the buffer holds unread bytes, which
            // keep the loop's socket readable. Any other error sent no
            // byte (the loop's end is closed, or the kernel is out of
            // buffer memory): re-arm, so the flag cannot silence every
            // later wake.
            loop {
                match (&self.tx).write(&[1]) {
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() != ErrorKind::WouldBlock => {
                        self.pending.swap(false, AcqRel);
                    }
                    _ => {}
                }
                break;
            }
        }
    }

    /// The loop's side: the watched descriptors and the wake socket's
    /// read end (always entry 0).
    pub(crate) struct Waiter {
        wake: Arc<Wake>,
        rx: UnixStream,
        fds: Vec<PollFd>,
    }

    impl Waiter {
        pub(crate) fn new() -> std::io::Result<Waiter> {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            let fds = vec![PollFd {
                fd: rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            }];
            let wake = Arc::new(Wake {
                pending: AtomicBool::new(false),
                tx,
            });
            Ok(Waiter { wake, rx, fds })
        }

        pub(crate) fn wake(&self) -> Arc<Wake> {
            Arc::clone(&self.wake)
        }

        /// Adds `fd` to the next wait. Descriptors with no interest are
        /// left out, so a hung-up peer the loop is not reading cannot
        /// make every wait return at once.
        pub(crate) fn watch(&mut self, fd: &impl AsRawFd, read: bool, write: bool) {
            let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
            if events != 0 {
                self.fds.push(PollFd {
                    fd: fd.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
        }

        /// Blocks until a watched descriptor is ready, a [`Wake`]
        /// fires, or `timeout` passes (`None`: no timeout). Clears the
        /// watch list. Should `ppoll` itself fail, sleeps
        /// [`RETRY_SLEEP`] instead.
        pub(crate) fn wait(&mut self, timeout: Option<Duration>) {
            let spec = timeout.map(|t| Timespec {
                tv_sec: t.as_secs().min(c_long::MAX as u64) as c_long,
                tv_nsec: t.subsec_nanos() as c_long,
            });
            let spec_ptr = spec.as_ref().map_or(std::ptr::null(), |s| s as *const _);
            // SAFETY: `fds` is an exclusively borrowed array of
            // `fds.len()` `repr(C)` pollfds that outlives the call;
            // `spec_ptr` is null or points at a live timespec; a null
            // signal mask leaves the thread's mask unchanged.
            let ready = unsafe {
                ppoll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as c_ulong,
                    spec_ptr,
                    std::ptr::null(),
                )
            };
            if ready > 0 && self.fds[0].revents != 0 {
                self.drain();
            } else if ready < 0 && std::io::Error::last_os_error().kind() != ErrorKind::Interrupted
            {
                std::thread::sleep(super::RETRY_SLEEP);
            }
            self.fds.truncate(1);
        }

        /// Empties the wake socket, then re-arms the flag. In that
        /// order: a wake that finds the flag still set was published
        /// before the sweep that follows, so the sweep sees its change;
        /// a later one writes a fresh byte.
        fn drain(&mut self) {
            let mut buf = [0u8; 64];
            loop {
                match self.rx.read(&mut buf) {
                    Ok(n) if n == buf.len() => continue,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    _ => break,
                }
            }
            self.wake.pending.swap(false, AcqRel);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    use std::sync::Arc;
    use std::time::Duration;

    /// No wake channel on this platform: the loop sleeps [`super::RETRY_SLEEP`]
    /// after every sweep that moves nothing.
    pub(crate) struct Wake;

    impl Wake {
        pub(crate) fn wake(&self) {}
    }

    pub(crate) struct Waiter {
        wake: Arc<Wake>,
    }

    impl Waiter {
        pub(crate) fn new() -> std::io::Result<Waiter> {
            Ok(Waiter {
                wake: Arc::new(Wake),
            })
        }

        pub(crate) fn wake(&self) -> Arc<Wake> {
            Arc::clone(&self.wake)
        }

        pub(crate) fn watch<T>(&mut self, _fd: &T, _read: bool, _write: bool) {}

        /// Sleeps the fixed [`RETRY_SLEEP`].
        pub(crate) fn wait(&mut self, _timeout: Option<Duration>) {
            std::thread::sleep(super::RETRY_SLEEP);
        }
    }
}
