//! Batched datagram I/O for the wire hot path.
//!
//! A 50+ node loopback overlay pushes tens of thousands of datagrams per
//! second through one cooperative executor; paying one syscall per
//! datagram is where a naive driver spends its core. [`BatchSocket`]
//! amortizes that cost: on Linux it issues `sendmmsg`/`recvmmsg` directly
//! (up to [`MAX_BATCH`] datagrams per syscall); everywhere else — and when
//! explicitly configured — it falls back to a portable
//! one-syscall-per-datagram loop with the *same* observable semantics, so
//! the two backends are interchangeable (a property the batch proptest
//! pins down by comparing delivered payload multisets).
//!
//! The module is deliberately sans-telemetry: callers count syscalls and
//! observe batch fills into their own hub, keeping this file a pure I/O
//! concern. Receive buffers carry the same one-byte truncation sentinel
//! the single-datagram driver used: each slot is sized `cap + 1`, so a
//! kernel-truncated datagram fills the slot completely and is detectable
//! without `MSG_TRUNC` plumbing.

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Hard ceiling on datagrams per batch syscall. 64 keeps the per-slot
/// bookkeeping (iovecs, sockaddr storage) comfortably on the stack-ish
/// side of cache while still amortizing the syscall ~60×.
pub const MAX_BATCH: usize = 64;

/// Which I/O strategy a [`BatchSocket`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchBackend {
    /// `sendmmsg`/`recvmmsg`: one syscall moves a whole batch.
    /// Linux-only; constructing a socket with this backend elsewhere
    /// falls back to [`BatchBackend::Sequential`].
    Mmsg,
    /// Portable fallback: one nonblocking `sendto`/`recvfrom` per
    /// datagram, looped until the batch is full or the socket blocks.
    Sequential,
}

impl BatchBackend {
    /// The best backend this platform supports.
    pub fn auto() -> BatchBackend {
        if cfg!(target_os = "linux") {
            BatchBackend::Mmsg
        } else {
            BatchBackend::Sequential
        }
    }
}

/// One datagram queued for a batched send.
#[derive(Debug, Clone)]
pub struct SendDatagram {
    /// Destination address.
    pub to: SocketAddr,
    /// Wire payload.
    pub payload: bytes::Bytes,
}

/// One received datagram, borrowed out of a [`RecvBatch`].
#[derive(Debug, Clone, Copy)]
pub struct RecvdDatagram<'a> {
    /// The payload, truncated to the configured cap when oversized.
    pub data: &'a [u8],
    /// Source address.
    pub src: SocketAddr,
    /// True when the kernel truncated the datagram (it overflowed the
    /// configured per-datagram cap); the payload tail is gone and the
    /// datagram should be dropped, not decoded.
    pub truncated: bool,
}

/// Reusable receive-side batch storage: `max_datagrams` slots of
/// `cap + 1` bytes each, allocated once and refilled every syscall.
#[derive(Debug)]
pub struct RecvBatch {
    cap: usize,
    bufs: Vec<Vec<u8>>,
    metas: Vec<(usize, SocketAddr)>,
    filled: usize,
}

impl RecvBatch {
    /// Storage for up to `max_datagrams` datagrams of up to `cap` bytes
    /// (plus the truncation sentinel byte per slot).
    pub fn new(max_datagrams: usize, cap: usize) -> RecvBatch {
        let n = max_datagrams.clamp(1, MAX_BATCH);
        RecvBatch {
            cap,
            bufs: (0..n).map(|_| vec![0u8; cap + 1]).collect(),
            metas: Vec::with_capacity(n),
            filled: 0,
        }
    }

    /// Number of datagrams the last fill produced.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// True when the last fill produced nothing.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Iterate the datagrams of the last fill.
    pub fn iter(&self) -> impl Iterator<Item = RecvdDatagram<'_>> {
        self.metas
            .iter()
            .take(self.filled)
            .enumerate()
            .map(move |(i, &(len, src))| {
                let truncated = len > self.cap;
                RecvdDatagram {
                    data: &self.bufs[i][..len.min(self.cap)],
                    src,
                    truncated,
                }
            })
    }

    fn reset(&mut self) {
        self.metas.clear();
        self.filled = 0;
    }
}

/// A nonblocking UDP socket with batched send/receive.
#[derive(Debug)]
pub struct BatchSocket {
    sock: UdpSocket,
    addr: SocketAddr,
    backend: BatchBackend,
}

impl BatchSocket {
    /// Bind a nonblocking socket using the given backend (downgraded to
    /// [`BatchBackend::Sequential`] where `mmsg` is unavailable).
    pub fn bind(addr: SocketAddr, backend: BatchBackend) -> io::Result<BatchSocket> {
        let sock = UdpSocket::bind(addr)?;
        sock.set_nonblocking(true)?;
        let addr = sock.local_addr()?;
        let backend = if cfg!(target_os = "linux") {
            backend
        } else {
            BatchBackend::Sequential
        };
        Ok(BatchSocket {
            sock,
            addr,
            backend,
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backend actually in use.
    pub fn backend(&self) -> BatchBackend {
        self.backend
    }

    /// Try to receive a batch of datagrams without blocking.
    ///
    /// Returns the number of datagrams now readable via
    /// [`RecvBatch::iter`]; `0` means the socket had nothing pending.
    pub fn try_recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        batch.reset();
        match self.backend {
            #[cfg(target_os = "linux")]
            BatchBackend::Mmsg => mmsg::recv_batch(&self.sock, batch),
            _ => self.recv_batch_sequential(batch),
        }
    }

    /// Wait for a non-empty batch, filling `batch`; resolves to the
    /// datagram count. Poll-driven: every poll tries the socket once and
    /// registers no waker, which is what the vendored executor (it re-polls
    /// every task each round) expects.
    pub async fn recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        std::future::poll_fn(|_| match self.try_recv_batch(batch) {
            Ok(0) => std::task::Poll::Pending,
            done => std::task::Poll::Ready(done),
        })
        .await
    }

    /// Try to send `msgs` without blocking. Returns how many datagrams the
    /// kernel accepted, in order from the front of the slice (`0` when the
    /// socket buffer is full). A non-`WouldBlock` failure on the *first*
    /// datagram surfaces as `Err`; callers treating the datapath as
    /// best-effort should drop that datagram, count it, and move on.
    pub fn try_send_batch(&self, msgs: &[SendDatagram]) -> io::Result<usize> {
        if msgs.is_empty() {
            return Ok(0);
        }
        let window = &msgs[..msgs.len().min(MAX_BATCH)];
        match self.backend {
            #[cfg(target_os = "linux")]
            BatchBackend::Mmsg => mmsg::send_batch(&self.sock, window),
            _ => self.send_batch_sequential(window),
        }
    }

    fn recv_batch_sequential(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        for i in 0..batch.bufs.len() {
            match self.sock.recv_from(&mut batch.bufs[i]) {
                Ok((len, src)) => {
                    batch.metas.push((len, src));
                    batch.filled += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    if batch.filled == 0 {
                        return Err(e);
                    }
                    break;
                }
            }
        }
        Ok(batch.filled)
    }

    fn send_batch_sequential(&self, msgs: &[SendDatagram]) -> io::Result<usize> {
        let mut sent = 0;
        for m in msgs {
            match self.sock.send_to(&m.payload, m.to) {
                Ok(_) => sent += 1,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    if sent == 0 {
                        return Err(e);
                    }
                    break;
                }
            }
        }
        Ok(sent)
    }
}

/// Direct `sendmmsg`/`recvmmsg` bindings.
///
/// The workspace builds fully offline with no `libc` crate, so the two
/// syscall wrappers libc would provide are declared here directly against
/// the C library `std` already links. Struct layouts are the stable Linux
/// userspace ABI (identical on x86_64 and aarch64): `msghdr` with
/// size_t-sized iov/control lengths, `mmsghdr` appending a `u32` count,
/// and `sockaddr_in`/`sockaddr_in6` with network-order port and address.
/// This is the only unsafe code in the crate; everything above it is safe
/// and backend-agnostic.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod mmsg {
    use super::{RecvBatch, SendDatagram, MAX_BATCH};
    use std::io;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const MSG_DONTWAIT: i32 = 0x40;
    const EAGAIN: i32 = 11;
    const EINTR: i32 = 4;

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut SockAddrStorage,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut core::ffi::c_void,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// Big enough for `sockaddr_in6` (28 bytes), aligned like the kernel's
    /// 128-byte `sockaddr_storage`.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct SockAddrStorage {
        data: [u8; 128],
    }

    impl SockAddrStorage {
        const ZERO: SockAddrStorage = SockAddrStorage { data: [0; 128] };
    }

    extern "C" {
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut core::ffi::c_void,
        ) -> i32;
    }

    fn encode_addr(addr: SocketAddr, out: &mut SockAddrStorage) -> u32 {
        match addr {
            SocketAddr::V4(v4) => {
                out.data[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                out.data[2..4].copy_from_slice(&v4.port().to_be_bytes());
                out.data[4..8].copy_from_slice(&v4.ip().octets());
                16
            }
            SocketAddr::V6(v6) => {
                out.data[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                out.data[2..4].copy_from_slice(&v6.port().to_be_bytes());
                out.data[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                out.data[8..24].copy_from_slice(&v6.ip().octets());
                out.data[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                28
            }
        }
    }

    fn decode_addr(s: &SockAddrStorage) -> Option<SocketAddr> {
        let family = u16::from_ne_bytes([s.data[0], s.data[1]]);
        let port = u16::from_be_bytes([s.data[2], s.data[3]]);
        match family {
            AF_INET => {
                let ip = Ipv4Addr::new(s.data[4], s.data[5], s.data[6], s.data[7]);
                Some(SocketAddr::new(IpAddr::V4(ip), port))
            }
            AF_INET6 => {
                let mut oct = [0u8; 16];
                oct.copy_from_slice(&s.data[8..24]);
                Some(SocketAddr::new(IpAddr::V6(Ipv6Addr::from(oct)), port))
            }
            _ => None,
        }
    }

    pub(super) fn send_batch(sock: &UdpSocket, msgs: &[SendDatagram]) -> io::Result<usize> {
        debug_assert!(!msgs.is_empty() && msgs.len() <= MAX_BATCH);
        let mut names = [SockAddrStorage::ZERO; MAX_BATCH];
        let mut iovs: [IoVec; MAX_BATCH] = std::array::from_fn(|_| IoVec {
            base: std::ptr::null_mut(),
            len: 0,
        });
        let mut hdrs: Vec<MMsgHdr> = Vec::with_capacity(msgs.len());
        for (i, m) in msgs.iter().enumerate() {
            let namelen = encode_addr(m.to, &mut names[i]);
            iovs[i] = IoVec {
                // sendmmsg never writes through the iov; the mut pointer is
                // an artifact of sharing `iovec` with the receive path.
                base: m.payload.as_ptr() as *mut u8,
                len: m.payload.len(),
            };
            hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name: &mut names[i],
                    namelen,
                    iov: &mut iovs[i],
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        loop {
            // SAFETY: every pointer in `hdrs` refers to storage (`names`,
            // `iovs`, the payload buffers) that outlives this call, and
            // `vlen` matches the populated prefix.
            let rc = unsafe {
                sendmmsg(
                    sock.as_raw_fd(),
                    hdrs.as_mut_ptr(),
                    hdrs.len() as u32,
                    MSG_DONTWAIT,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            match err.raw_os_error() {
                Some(EINTR) => continue,
                Some(EAGAIN) => return Ok(0),
                _ => return Err(err),
            }
        }
    }

    pub(super) fn recv_batch(sock: &UdpSocket, batch: &mut RecvBatch) -> io::Result<usize> {
        let slots = batch.bufs.len();
        let mut names = [SockAddrStorage::ZERO; MAX_BATCH];
        let mut iovs: [IoVec; MAX_BATCH] = std::array::from_fn(|_| IoVec {
            base: std::ptr::null_mut(),
            len: 0,
        });
        let mut hdrs: Vec<MMsgHdr> = Vec::with_capacity(slots);
        for i in 0..slots {
            iovs[i] = IoVec {
                base: batch.bufs[i].as_mut_ptr(),
                len: batch.bufs[i].len(),
            };
            hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name: &mut names[i],
                    namelen: std::mem::size_of::<SockAddrStorage>() as u32,
                    iov: &mut iovs[i],
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        let rc = loop {
            // SAFETY: as in `send_batch`; additionally each iov points at a
            // distinct owned buffer in `batch.bufs`, so the kernel writes
            // into exclusive storage.
            let rc = unsafe {
                recvmmsg(
                    sock.as_raw_fd(),
                    hdrs.as_mut_ptr(),
                    hdrs.len() as u32,
                    MSG_DONTWAIT,
                    std::ptr::null_mut(),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            match err.raw_os_error() {
                Some(EINTR) => continue,
                Some(EAGAIN) => return Ok(0),
                _ => return Err(err),
            }
        };
        for hdr in hdrs.iter().take(rc) {
            let src = decode_addr(unsafe { &*hdr.hdr.name }).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "unparseable source address")
            })?;
            batch.metas.push((hdr.len as usize, src));
        }
        batch.filled = rc;
        Ok(rc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn local() -> SocketAddr {
        "127.0.0.1:0".parse().expect("loopback addr")
    }

    fn roundtrip(backend: BatchBackend) {
        let tx = BatchSocket::bind(local(), backend).expect("bind tx");
        let rx = BatchSocket::bind(local(), backend).expect("bind rx");
        let dest = rx.local_addr();
        let msgs: Vec<SendDatagram> = (0u8..20)
            .map(|i| SendDatagram {
                to: dest,
                payload: Bytes::from(vec![i; 1 + i as usize * 7]),
            })
            .collect();
        let mut sent = 0;
        while sent < msgs.len() {
            let n = tx.try_send_batch(&msgs[sent..]).expect("send");
            assert!(n > 0, "loopback send stalled");
            sent += n;
        }
        let mut batch = RecvBatch::new(MAX_BATCH, 2048);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while got.len() < msgs.len() && std::time::Instant::now() < deadline {
            let n = rx.try_recv_batch(&mut batch).expect("recv");
            if n == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            }
            for d in batch.iter() {
                assert!(!d.truncated);
                assert_eq!(d.src, tx.local_addr());
                got.push(d.data.to_vec());
            }
        }
        let mut want: Vec<Vec<u8>> = msgs.iter().map(|m| m.payload.to_vec()).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn roundtrip_sequential() {
        roundtrip(BatchBackend::Sequential);
    }

    #[test]
    fn roundtrip_auto() {
        roundtrip(BatchBackend::auto());
    }

    #[test]
    fn oversized_datagram_is_flagged_truncated() {
        for backend in [BatchBackend::auto(), BatchBackend::Sequential] {
            let tx = BatchSocket::bind(local(), backend).expect("bind tx");
            let rx = BatchSocket::bind(local(), backend).expect("bind rx");
            tx.try_send_batch(&[SendDatagram {
                to: rx.local_addr(),
                payload: Bytes::from(vec![7u8; 900]),
            }])
            .expect("send");
            let mut batch = RecvBatch::new(4, 256);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            loop {
                if rx.try_recv_batch(&mut batch).expect("recv") > 0 {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "datagram never arrived"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let d = batch.iter().next().expect("one datagram");
            assert!(
                d.truncated,
                "900B into a 256B cap must truncate ({backend:?})"
            );
            assert_eq!(d.data.len(), 256);
        }
    }

    #[test]
    fn empty_send_is_a_noop() {
        let s = BatchSocket::bind(local(), BatchBackend::auto()).expect("bind");
        assert_eq!(s.try_send_batch(&[]).expect("send nothing"), 0);
    }
}
