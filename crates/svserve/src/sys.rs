//! Thin zero-dependency bindings to the three kernel facilities the
//! reactor and artifact store need: `epoll` (readiness), `eventfd`
//! (cross-thread wakeups), and `mmap` (zero-copy artifact reads).
//!
//! The repo's from-scratch ethos rules out the `libc` crate, so the
//! handful of syscall wrappers are declared here directly against the C
//! library `std` already links.  Everything is Linux-only and gated as
//! such: the server runs on Linux only, and `store` reads the file into
//! memory elsewhere.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::RawFd;

use core::ffi::{c_int, c_uint, c_void};

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const PROT_READ: c_int = 1;
const MAP_PRIVATE: c_int = 2;

/// The kernel's `struct epoll_event`.  On x86 the kernel ABI packs the
/// u64 data field against the events word; other architectures use the
/// natural layout.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn mmap(
        addr: *mut c_void,
        length: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, length: usize) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance (closed on drop).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Register `fd` for `events`, tagged with `data`.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_MOD, fd, &mut ev) })?;
        Ok(())
    }

    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Wait up to `timeout_ms` (-1 blocks) and fill `events`; returns the
    /// ready count.  `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, timeout_ms)
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd: any thread can [`wake`](EventFd::wake) the
/// reactor out of its `epoll_wait`; the reactor [`drain`](EventFd::drain)s
/// it back to zero on each wakeup.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, &one as *const u64 as *const c_void, 8) };
    }

    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe { read(self.fd, &mut buf as *mut u64 as *mut c_void, 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A read-only private mapping of the first `len` bytes of a file.
/// Zero-length maps are represented without a kernel mapping (mmap
/// rejects `length == 0`).
pub struct Mmap {
    ptr: *mut c_void,
    len: usize,
}

// The mapping is read-only and owned: sharing &Mmap across threads is
// no different from sharing &[u8].
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    pub fn map(file: &std::fs::File, len: usize) -> io::Result<Mmap> {
        if len == 0 {
            return Ok(Mmap { ptr: std::ptr::null_mut(), len: 0 });
        }
        use std::os::fd::AsRawFd;
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len != 0 {
            unsafe { munmap(self.ptr, self.len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readable_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing pending yet: a zero-timeout wait returns empty.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        let mut c = TcpStream::connect(addr).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7);
        assert!({ events[0].events } & EPOLLIN != 0);
        // Accept, register the server side, and see client bytes arrive.
        let (srv, _) = listener.accept().unwrap();
        ep.add(srv.as_raw_fd(), EPOLLIN, 9).unwrap();
        c.write_all(b"hi").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert!(n >= 1);
        assert!((0..n).any(|i| events[i].data == 9));
        ep.del(srv.as_raw_fd()).unwrap();
    }

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 1).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        ev.wake();
        ev.wake();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        ev.drain();
        // Drained: level-triggered interest goes quiet again.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn mmap_reads_file_contents_zero_copy() {
        let path = std::env::temp_dir().join(format!("svserve-mmap-{}", std::process::id()));
        std::fs::write(&path, b"svserve mmap test payload").unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let len = f.metadata().unwrap().len() as usize;
        let m = Mmap::map(&f, len).unwrap();
        assert_eq!(m.as_slice(), b"svserve mmap test payload");
        let empty = Mmap::map(&f, 0).unwrap();
        assert!(empty.as_slice().is_empty());
        drop(m);
        let _ = std::fs::remove_file(&path);
    }
}
