//! The chaos harness's network-fault schedule and the stream that
//! applies it: which frame writes of the resilient client fail, and how.
//!
//! A [`FaultStream`] wraps the client's socket and asks a [`NetFaults`]
//! once per `D` frame written through it; [`super::chaos_serve`] draws
//! one schedule per seed for the writes and a second, salted one for
//! server restarts. Whether a site fires, and which [`NetFault`] it is,
//! are pure functions of the seed and the site number, so one seed names
//! one complete failure schedule.

use cusan_serve::proto::{resume_frame, write_frame, OP_DATA};
use std::cell::Cell;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Decisions per million sites (the fixed-point domain of a rate).
const PPM: u64 = 1_000_000;

/// Salt separating the kind-hash domain from the fire-hash domain.
const NET_KIND_SALT: u64 = 0x6E65_745F_6661_756C; // "net_faul"

/// A socket-level fault a [`FaultStream`] injects at one frame-write
/// site.
///
/// Each kind exercises a different recovery path in `cusan-serve`:
/// torn frames and disconnects force session resumption from the last
/// acknowledged offset, stalls exercise the idle-session sweeper, and
/// duplicate resumes exercise the at-most-once replay trimming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFault {
    /// Write only a prefix of the frame, then drop the connection (a
    /// crash mid-`write`).
    TornFrame,
    /// Drop the connection cleanly between frames.
    Disconnect,
    /// Stall before the write long enough to look idle.
    StalledWrite,
    /// Replay the resume handshake and already-acknowledged frames (a
    /// retransmit racing its own ack).
    DuplicateResume,
}

impl NetFault {
    /// Every injectable kind, in kind-hash draw order.
    pub const ALL: [NetFault; 4] = [
        NetFault::TornFrame,
        NetFault::Disconnect,
        NetFault::StalledWrite,
        NetFault::DuplicateResume,
    ];
}

/// A seeded network-fault schedule: whether site `k` fires, and which
/// [`NetFault`] it is, are splitmix64 hashes of `(seed, k)` (their
/// constants are part of the determinism contract), and a site counter
/// numbers the sites in the order they are asked. The default never
/// fires.
#[derive(Debug, Default)]
pub struct NetFaults {
    seed: u64,
    rate_ppm: u64,
    site: Cell<u64>,
    fired: Cell<u64>,
}

impl NetFaults {
    /// A schedule firing each site with probability `rate` (clamped to
    /// `[0, 1]`).
    pub fn new(seed: u64, rate: f64) -> NetFaults {
        NetFaults {
            seed,
            rate_ppm: (rate * PPM as f64).round().clamp(0.0, PPM as f64) as u64,
            ..NetFaults::default()
        }
    }

    /// Advance to the next site; the fault firing there, if any. The kind
    /// is drawn by a second, independent hash, so the mix of kinds does
    /// not bias the firing schedule.
    pub fn next_net_fault(&self) -> Option<NetFault> {
        let site = self.site.replace(self.site.get() + 1);
        if splitmix64(self.seed ^ splitmix64(site)) % PPM >= self.rate_ppm {
            return None;
        }
        self.fired.set(self.fired.get() + 1);
        let k = splitmix64(self.seed.rotate_left(17) ^ splitmix64(site ^ NET_KIND_SALT));
        Some(NetFault::ALL[(k % NetFault::ALL.len() as u64) as usize])
    }

    /// Sites asked so far.
    pub fn sites_visited(&self) -> u64 {
        self.site.get()
    }

    /// Sites that fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.get()
    }
}

/// The client's stream with a [`NetFaults`] schedule in its write path.
/// It holds each outgoing frame until the frame is complete, asks the
/// schedule once per `D` frame, and passes every other frame through
/// untouched. Reads go straight to the inner stream.
pub struct FaultStream<'f, S> {
    inner: S,
    faults: &'f NetFaults,
    /// Bytes of the frame being written, not yet passed on.
    frame: Vec<u8>,
}

impl<'f, S: Write> FaultStream<'f, S> {
    /// Wrap `inner`; the schedule's site counter is shared by every
    /// stream built on the same `faults`, so it persists across
    /// reconnects.
    pub fn new(inner: S, faults: &'f NetFaults) -> Self {
        FaultStream {
            inner,
            faults,
            frame: Vec::new(),
        }
    }

    /// Pass one complete frame (length prefix included) on, perturbed as
    /// the schedule says if it is a `D` frame.
    fn emit(&mut self, frame: &[u8]) -> io::Result<()> {
        if frame.get(4) != Some(&OP_DATA) {
            return self.inner.write_all(frame);
        }
        match self.faults.next_net_fault() {
            None => self.inner.write_all(frame),
            Some(NetFault::StalledWrite) => {
                std::thread::sleep(Duration::from_millis(20));
                self.inner.write_all(frame)
            }
            Some(NetFault::DuplicateResume) => {
                // A retransmitted handshake racing its own ack: the
                // extra A is absorbed by the client's close-phase read.
                let id = u64::from_be_bytes(frame[5..13].try_into().expect("D frame id"));
                write_frame(&mut self.inner, &resume_frame(id))?;
                self.inner.write_all(frame)
            }
            Some(NetFault::TornFrame) => {
                // Die mid-frame: ship a prefix, then drop the socket.
                self.inner.write_all(&frame[..frame.len() / 2])?;
                self.inner.flush()?;
                Err(aborted("injected: torn frame"))
            }
            Some(NetFault::Disconnect) => Err(aborted("injected: disconnect")),
        }
    }
}

fn aborted(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionAborted, what)
}

impl<S: Write> Write for FaultStream<'_, S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.frame.extend_from_slice(buf);
        while let Some(prefix) = self.frame.first_chunk::<4>() {
            let len = 4 + u32::from_be_bytes(*prefix) as usize;
            if self.frame.len() < len {
                break;
            }
            let frame: Vec<u8> = self.frame.drain(..len).collect();
            self.emit(&frame)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: Read> Read for FaultStream<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(faults: &NetFaults, n: u64) -> Vec<Option<NetFault>> {
        (0..n).map(|_| faults.next_net_fault()).collect()
    }

    #[test]
    fn disabled_plan_never_fires() {
        let none = NetFaults::default();
        assert!(draws(&none, 10_000).iter().all(Option::is_none));
        assert_eq!((none.sites_visited(), none.fired()), (10_000, 0));
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = draws(&NetFaults::new(42, 0.05), 5_000);
        assert_eq!(a, draws(&NetFaults::new(42, 0.05), 5_000));
        assert!(
            a.iter().any(Option::is_some),
            "5% over 5000 sites must fire"
        );
        assert_ne!(
            a,
            draws(&NetFaults::new(43, 0.05), 5_000),
            "seeds reschedule"
        );
    }

    #[test]
    fn rate_approximates_probability() {
        let n = 100_000;
        let fired = draws(&NetFaults::new(7, 0.10), n).iter().flatten().count();
        let p = fired as f64 / n as f64;
        assert!((p - 0.10).abs() < 0.01, "observed rate {p}");
    }

    #[test]
    fn injector_counter_matches_plan() {
        let faults = NetFaults::new(3, 0.2);
        let fired = draws(&faults, 1_000).iter().flatten().count() as u64;
        assert_eq!((faults.sites_visited(), faults.fired()), (1_000, fired));
    }

    #[test]
    fn net_faults_follow_the_fire_schedule() {
        let a = draws(&NetFaults::new(11, 0.25), 2_000);
        let kinds: std::collections::HashSet<NetFault> = a.iter().flatten().copied().collect();
        assert_eq!(kinds.len(), NetFault::ALL.len(), "every kind is drawn");
        // The kind hash is independent of the fire hash: the same seed
        // fires at the same sites whatever the kinds.
        let fires = |d: &[Option<NetFault>]| d.iter().map(Option::is_some).collect::<Vec<_>>();
        assert_eq!(fires(&a), fires(&draws(&NetFaults::new(11, 0.25), 2_000)));
    }

    #[test]
    fn with_rate_clamps_and_rounds() {
        assert!(draws(&NetFaults::new(0, -1.0), 1_000)
            .iter()
            .all(Option::is_none));
        assert!(draws(&NetFaults::new(0, 2.0), 1_000)
            .iter()
            .all(Option::is_some));
        assert_eq!(NetFaults::new(0, 0.5).rate_ppm, 500_000);
        assert_eq!(NetFaults::new(0, 0.000_000_4).rate_ppm, 0);
    }

    /// A schedule whose first site fires `kind`.
    fn firing(kind: NetFault) -> NetFaults {
        let seed = (0..)
            .find(|&s| NetFaults::new(s, 1.0).next_net_fault() == Some(kind))
            .expect("every kind is drawn");
        NetFaults::new(seed, 1.0)
    }

    fn encoded(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for p in payloads {
            write_frame(&mut bytes, p).unwrap();
        }
        bytes
    }

    #[test]
    fn fault_stream_perturbs_each_data_frame_as_drawn() {
        use cusan_serve::proto::{data_frame, quit_frame};
        // R (not a site), D (site 0, fires), Q (not a site): each kind
        // leaves exactly these bytes on the wire and this result.
        let (r, d, q) = (resume_frame(7), data_frame(7, 64, b"abcdef"), quit_frame());
        let (r_bytes, d_bytes, q_bytes) = (encoded(&[&r]), encoded(&[&d]), encoded(&[&q]));
        for kind in NetFault::ALL {
            let faults = firing(kind);
            let mut stream = FaultStream::new(Vec::new(), &faults);
            write_frame(&mut stream, &r).unwrap();
            let start = std::time::Instant::now();
            let result = write_frame(&mut stream, &d);
            let (wire, error) = match kind {
                NetFault::TornFrame => (
                    [&r_bytes[..], &d_bytes[..d_bytes.len() / 2]].concat(),
                    Some("injected: torn frame"),
                ),
                NetFault::Disconnect => (r_bytes.clone(), Some("injected: disconnect")),
                NetFault::StalledWrite => {
                    assert!(start.elapsed() >= Duration::from_millis(20));
                    ([&r_bytes[..], &d_bytes].concat(), None)
                }
                NetFault::DuplicateResume => ([&r_bytes[..], &r_bytes, &d_bytes].concat(), None),
            };
            match (result, error) {
                (Ok(()), None) => {
                    write_frame(&mut stream, &q).unwrap();
                    assert_eq!(stream.inner, [&wire[..], &q_bytes].concat(), "{kind:?}");
                }
                (Err(e), Some(message)) => {
                    assert_eq!(e.kind(), io::ErrorKind::ConnectionAborted, "{kind:?}");
                    assert_eq!(e.to_string(), message);
                    assert_eq!(stream.inner, wire, "{kind:?}");
                }
                (result, _) => panic!("{kind:?}: {result:?}"),
            }
            assert_eq!((faults.sites_visited(), faults.fired()), (1, 1), "{kind:?}");
        }
        // A schedule that never fires passes every frame through as is.
        let none = NetFaults::default();
        let mut stream = FaultStream::new(Vec::new(), &none);
        for p in [&r, &d, &q] {
            write_frame(&mut stream, p).unwrap();
        }
        assert_eq!(stream.inner, [r_bytes, d_bytes, q_bytes].concat());
        assert_eq!((none.sites_visited(), none.fired()), (1, 0));
    }
}
