//! Deterministic in-process fault injection for gateway tests.
//!
//! [`FaultProxy`] sits between the gateway and one backend as a TCP
//! man-in-the-middle. Client→backend bytes pass through untouched;
//! backend→client **response lines** are individually subjected to a
//! seeded fault draw: forwarded clean, dropped, delayed, garbled,
//! truncated mid-frame, or the connection closed outright.
//!
//! Determinism: every fault decision comes from one shared SplitMix64
//! stream seeded at construction, consumed one draw per response line in
//! arrival order. A single-connection test replays identically from the
//! same seed; concurrent tests get a *reproducible distribution* (the
//! interleaving may vary, the marginal fault rates cannot).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dae_trace::{lock_recover, SplitMix64};

/// The injectable fault classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Swallow the response line entirely (the caller times out).
    Drop,
    /// Forward the line after a fixed delay.
    Delay,
    /// Close the connection instead of responding.
    Close,
    /// Forward the line with its bytes corrupted (still newline-framed).
    Garble,
    /// Forward a prefix of the line and close without the newline.
    Truncate,
}

/// Per-mille fault rates plus the RNG seed. Rates are evaluated against
/// one draw per response line; their sum must be ≤ 1000 (the remainder
/// forwards clean).
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// SplitMix64 seed: same seed, same decision sequence.
    pub seed: u64,
    /// Per-mille of lines dropped.
    pub drop_pm: u16,
    /// Per-mille of lines delayed by `delay_ms`.
    pub delay_pm: u16,
    /// Delay applied to delayed lines.
    pub delay_ms: u64,
    /// Per-mille of lines answered by closing the connection.
    pub close_pm: u16,
    /// Per-mille of lines garbled.
    pub garble_pm: u16,
    /// Per-mille of lines truncated mid-frame.
    pub truncate_pm: u16,
}

impl FaultPlan {
    /// A plan that forwards everything untouched.
    pub fn clean(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_pm: 0,
            delay_pm: 0,
            delay_ms: 0,
            close_pm: 0,
            garble_pm: 0,
            truncate_pm: 0,
        }
    }

    /// Decides the fate of the next response line from one RNG draw.
    /// `None` means forward clean.
    fn decide(&self, draw: u64) -> Option<FaultKind> {
        let x = (draw % 1000) as u16;
        let mut edge = self.drop_pm;
        if x < edge {
            return Some(FaultKind::Drop);
        }
        edge += self.close_pm;
        if x < edge {
            return Some(FaultKind::Close);
        }
        edge += self.garble_pm;
        if x < edge {
            return Some(FaultKind::Garble);
        }
        edge += self.truncate_pm;
        if x < edge {
            return Some(FaultKind::Truncate);
        }
        edge += self.delay_pm;
        if x < edge {
            return Some(FaultKind::Delay);
        }
        None
    }
}

/// A running fault-injection proxy in front of one upstream address.
pub struct FaultProxy {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    /// Faults injected so far, by class (drop, delay, close, garble,
    /// truncate) — for asserting a test actually exercised the fault path.
    #[cfg(test)]
    injected: Arc<[AtomicU64; 5]>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral local port forwarding to
    /// `upstream`. The accept loop runs on a background thread until
    /// [`FaultProxy::stop`] (or drop of the process).
    pub fn start(upstream: String, plan: FaultPlan) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let injected: Arc<[AtomicU64; 5]> = Arc::new(Default::default());
        let rng = Arc::new(Mutex::new(SplitMix64::new(plan.seed)));
        {
            let stop = Arc::clone(&stop);
            let injected = Arc::clone(&injected);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let upstream = upstream.clone();
                            let rng = Arc::clone(&rng);
                            let injected = Arc::clone(&injected);
                            std::thread::spawn(move || {
                                let _ = pipe_connection(client, &upstream, plan, &rng, &injected);
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            });
        }
        Ok(FaultProxy {
            addr,
            stop,
            #[cfg(test)]
            injected,
        })
    }

    /// The proxy's listen address (give this to the gateway as the
    /// backend address).
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Total faults injected so far.
    #[cfg(test)]
    fn injected(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Faults injected of one class.
    #[cfg(test)]
    fn injected_of(&self, kind: FaultKind) -> u64 {
        self.injected[fault_slot(kind)].load(Ordering::Relaxed)
    }

    /// Stops accepting new connections (existing pipes die with their
    /// sockets).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn fault_slot(kind: FaultKind) -> usize {
    match kind {
        FaultKind::Drop => 0,
        FaultKind::Delay => 1,
        FaultKind::Close => 2,
        FaultKind::Garble => 3,
        FaultKind::Truncate => 4,
    }
}

/// One proxied connection: raw copy client→upstream, line-framed faulty
/// copy upstream→client.
fn pipe_connection(
    client: TcpStream,
    upstream: &str,
    plan: FaultPlan,
    rng: &Arc<Mutex<SplitMix64>>,
    injected: &Arc<[AtomicU64; 5]>,
) -> std::io::Result<()> {
    let up = TcpStream::connect(upstream)?;
    let _ = up.set_nodelay(true);
    let _ = client.set_nodelay(true);
    // client → upstream: verbatim.
    {
        let mut from = client.try_clone()?;
        let mut to = up.try_clone()?;
        std::thread::spawn(move || {
            let mut buf = [0u8; 16 * 1024];
            loop {
                match from.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
            let _ = to.shutdown(std::net::Shutdown::Write);
        });
    }
    // upstream → client: per-line fault draws.
    let mut reader = BufReader::new(up);
    let mut writer = client;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return Ok(()),
            Ok(_) => {}
        }
        let draw = lock_recover(rng).next_u64();
        match plan.decide(draw) {
            None => writer.write_all(line.as_bytes())?,
            Some(kind) => {
                injected[fault_slot(kind)].fetch_add(1, Ordering::Relaxed);
                match kind {
                    FaultKind::Drop => {}
                    FaultKind::Delay => {
                        std::thread::sleep(Duration::from_millis(plan.delay_ms));
                        writer.write_all(line.as_bytes())?;
                    }
                    FaultKind::Close => {
                        let _ = writer.shutdown(std::net::Shutdown::Both);
                        return Ok(());
                    }
                    FaultKind::Garble => {
                        let garbled = garble_line(&line, draw);
                        writer.write_all(garbled.as_bytes())?;
                    }
                    FaultKind::Truncate => {
                        let keep = line.len().saturating_sub(1).max(1) / 2;
                        let cut = floor_char_boundary(&line, keep);
                        writer.write_all(&line.as_bytes()[..cut])?;
                        let _ = writer.flush();
                        let _ = writer.shutdown(std::net::Shutdown::Both);
                        return Ok(());
                    }
                }
            }
        }
        writer.flush()?;
    }
}

/// Corrupts a line while keeping it newline-framed: flips a run of bytes
/// to printable junk so the frame is still "one line" but no longer valid
/// JSON (or valid JSON of the wrong shape).
fn garble_line(line: &str, draw: u64) -> String {
    let body = line.trim_end_matches(['\n', '\r']);
    let mut bytes = body.as_bytes().to_vec();
    if bytes.is_empty() {
        return "\u{0}!garbled!\n".to_string();
    }
    let start = (draw as usize) % bytes.len();
    let len = 1 + ((draw >> 17) as usize) % 16usize.min(bytes.len());
    for (i, b) in bytes.iter_mut().enumerate().skip(start).take(len) {
        *b = b'!' + ((draw >> (i % 32)) as u8 % 64);
    }
    let mut out = String::from_utf8_lossy(&bytes).into_owned();
    out.push('\n');
    out
}

/// Largest char boundary ≤ `i` (stable substitute for
/// `str::floor_char_boundary`).
fn floor_char_boundary(s: &str, i: usize) -> usize {
    let mut i = i.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    loop {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {
                                if writer.write_all(line.as_bytes()).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn clean_plan_is_a_transparent_pipe() {
        let (addr, _h) = echo_server();
        let proxy = FaultProxy::start(addr, FaultPlan::clean(1)).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"{\"id\":1,\"ok\":true}\n").unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert_eq!(resp, "{\"id\":1,\"ok\":true}\n");
        assert_eq!(proxy.injected(), 0);
    }

    #[test]
    fn always_drop_swallows_every_line() {
        let (addr, _h) = echo_server();
        let plan = FaultPlan { drop_pm: 1000, ..FaultPlan::clean(7) };
        let proxy = FaultProxy::start(addr, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        c.write_all(b"hello\n").unwrap();
        let mut buf = [0u8; 64];
        let got = c.read(&mut buf);
        assert!(
            matches!(got, Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut),
            "dropped line must never arrive: {got:?}"
        );
        assert!(proxy.injected_of(FaultKind::Drop) >= 1);
    }

    #[test]
    fn garble_keeps_framing_but_breaks_content() {
        let (addr, _h) = echo_server();
        let plan = FaultPlan { garble_pm: 1000, ..FaultPlan::clean(99) };
        let proxy = FaultProxy::start(addr, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let sent = "{\"id\":1,\"ok\":true,\"result\":{\"x\":12345}}\n";
        c.write_all(sent.as_bytes()).unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.ends_with('\n'), "garbled frame stays newline-framed");
        assert_ne!(resp, sent, "content must be corrupted");
        assert_eq!(proxy.injected_of(FaultKind::Garble), 1);
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let plan = FaultPlan {
            drop_pm: 100,
            close_pm: 100,
            garble_pm: 100,
            truncate_pm: 100,
            delay_pm: 100,
            ..FaultPlan::clean(42)
        };
        let seq = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            (0..200).map(|_| plan.decide(rng.next_u64())).collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43), "different seeds diverge");
        let faults = seq(42).iter().filter(|d| d.is_some()).count();
        assert!((40..160).contains(&faults), "~50% fault rate, got {faults}/200");
    }

    #[test]
    fn truncate_cuts_the_frame_and_closes() {
        let (addr, _h) = echo_server();
        let plan = FaultPlan { truncate_pm: 1000, ..FaultPlan::clean(5) };
        let proxy = FaultProxy::start(addr, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let sent = "{\"id\":1,\"ok\":true,\"result\":{\"payload\":\"abcdefgh\"}}\n";
        c.write_all(sent.as_bytes()).unwrap();
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        assert!(!got.is_empty() && got.len() < sent.len(), "partial frame, then EOF");
        assert!(!got.ends_with(b"\n"));
    }
}
