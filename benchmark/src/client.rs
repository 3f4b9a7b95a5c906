//! The load generator: a loopback HTTP client that times each request's
//! stages, open-loop injector threads, and the `spark serve` child process
//! they drive.
//!
//! The client sends head and body in one write on a `TCP_NODELAY` socket,
//! so it adds no Nagle stall of its own. A request's stages tile the time
//! from its intended send time to its end exactly: `gen.late` (intended
//! send time → send starts), `http.connect`, `http.wait` (connected →
//! first response byte, which includes the single request write) and
//! `http.recv` (first byte → the server closes the connection).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use spark_serve::http::client_call;
use spark_util::json::Value;
use spark_util::proc::ChildProc;

use crate::schedule::Arrival;
use crate::trace::{self, Span};

/// Per-socket read and write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How an odd (non-canonical) body is compared against earlier ones before
/// it is kept for verification: only the last few of the same spec.
const ODD_DEDUPE_WINDOW: usize = 8;

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 200 with exactly the canonical body the local library produces.
    Canonical,
    /// 200 with another body: index into the phase's odd-body list, which
    /// is verified semantically after the timed window.
    Odd(usize),
    /// A status other than 200.
    Status(u16),
    /// Connect, send or receive failed, or the response was malformed.
    Transport,
}

/// Stage timestamps of one request, ns since the phase origin.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Oracle key of the request.
    pub spec: u32,
    /// When the schedule wanted it sent.
    pub intended_ns: u64,
    /// When the injector started connecting.
    pub start_ns: u64,
    /// Connection established.
    pub connected_ns: u64,
    /// First response byte read.
    pub first_byte_ns: u64,
    /// Response complete (server closed the connection).
    pub end_ns: u64,
    /// Status and oracle outcome.
    pub outcome: Outcome,
}

impl Sample {
    /// Latency from the moment the send started to the complete response.
    /// The wait before it, lateness, is reported on its own: on a shared
    /// host it is mostly the injector's sleep overshooting its wake-up
    /// time, the generator's error rather than the server's, and with two
    /// injectors it would otherwise queue into later requests' latency.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One timed window of traffic.
pub struct Phase<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// The requests, indexed by [`Arrival::spec`].
    pub requests: &'a [Request],
    /// Send each request as its arrival's tenant (`X-Spark-Tenant`).
    pub tenants: bool,
    /// Canonical response bodies, indexed by [`Arrival::spec`].
    pub canonical: &'a [Vec<u8>],
    /// The schedule.
    pub arrivals: &'a [Arrival],
    /// Injector threads, which is also the most connections in flight.
    pub threads: usize,
    /// Record spans.
    pub traced: bool,
    /// Added to the arrival index to form span request ids.
    pub req_base: u64,
}

/// What one injector thread observed.
#[derive(Default)]
struct Part {
    samples: Vec<Sample>,
    odd: Vec<(u32, Vec<u8>)>,
    spans: Vec<Span>,
}

/// Everything a phase observed.
pub struct PhaseResult {
    /// One sample per request sent, in intended-send order.
    pub samples: Vec<Sample>,
    /// Distinct non-canonical 200 bodies, `(spec, body)`.
    pub odd: Vec<(u32, Vec<u8>)>,
    /// Spans, when traced, timed from `started`.
    pub spans: Vec<Span>,
    /// The phase origin every timestamp counts from.
    pub started: Instant,
    /// Wall time of the phase, ns.
    pub elapsed_ns: u64,
}

fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Runs one phase on `phase.threads` injector threads and merges what
/// they saw.
pub fn run(phase: &Phase<'_>) -> PhaseResult {
    let origin = Instant::now();
    let cursor = AtomicUsize::new(0);
    let parts: Vec<Part> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..phase.threads)
            .map(|_| sc.spawn(|| inject(phase, origin, &cursor)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("injector thread panicked"))
            .collect()
    });
    let mut out = PhaseResult {
        samples: Vec::new(),
        odd: Vec::new(),
        spans: Vec::new(),
        started: origin,
        elapsed_ns: since(origin),
    };
    for part in parts {
        let base = out.odd.len();
        out.samples.extend(part.samples.into_iter().map(|mut s| {
            if let Outcome::Odd(i) = s.outcome {
                s.outcome = Outcome::Odd(i + base);
            }
            s
        }));
        out.odd.extend(part.odd);
        trace::append(&mut out.spans, part.spans);
    }
    out.samples.sort_by_key(|s| s.intended_ns);
    out
}

fn inject(phase: &Phase<'_>, origin: Instant, cursor: &AtomicUsize) -> Part {
    let mut out = Part::default();
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut wire = Vec::with_capacity(64 * 1024);
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&arrival) = phase.arrivals.get(i) else {
            break;
        };
        let request = &phase.requests[arrival.spec as usize];
        request.write(phase.tenants.then_some(arrival.tenant), &mut wire);
        let due = origin + Duration::from_nanos(arrival.at_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let intended_ns = arrival.at_ns;
        let start_ns = since(origin).max(intended_ns);
        let (times, outcome) = match call(phase.addr, &wire, origin, &mut buf) {
            Ok((times, 200, body_at)) => {
                let body = &buf[body_at..];
                let outcome = if body == phase.canonical[arrival.spec as usize].as_slice() {
                    Outcome::Canonical
                } else {
                    Outcome::Odd(note_odd(&mut out.odd, arrival.spec, body))
                };
                (times, outcome)
            }
            Ok((times, status, _)) => (times, Outcome::Status(status)),
            Err(()) => {
                let t = since(origin);
                ([t; 3], Outcome::Transport)
            }
        };
        let [connected_ns, first_byte_ns, end_ns] = times;
        let s = Sample {
            spec: arrival.spec,
            intended_ns,
            start_ns,
            connected_ns: connected_ns.max(start_ns),
            first_byte_ns: first_byte_ns.max(connected_ns),
            end_ns: end_ns.max(first_byte_ns),
            outcome,
        };
        if phase.traced {
            push_spans(&mut out.spans, &s, phase.req_base + i as u64);
        }
        out.samples.push(s);
    }
    out
}

/// Keeps `body` for later verification unless a recent identical one of
/// the same spec is already kept; returns its index.
fn note_odd(odd: &mut Vec<(u32, Vec<u8>)>, spec: u32, body: &[u8]) -> usize {
    let recent = odd
        .iter()
        .enumerate()
        .rev()
        .filter(|(_, (s, _))| *s == spec)
        .take(ODD_DEDUPE_WINDOW)
        .find(|(_, (_, b))| b.as_slice() == body);
    match recent {
        Some((i, _)) => i,
        None => {
            odd.push((spec, body.to_vec()));
            odd.len() - 1
        }
    }
}

fn push_spans(spans: &mut Vec<Span>, s: &Sample, req: u64) {
    let root = spans.len();
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        req,
        work: 0,
    };
    spans.push(span("http.request", s.intended_ns, s.end_ns, None));
    spans.push(span("gen.late", s.intended_ns, s.start_ns, Some(root)));
    spans.push(span("http.connect", s.start_ns, s.connected_ns, Some(root)));
    spans.push(span(
        "http.wait",
        s.connected_ns,
        s.first_byte_ns,
        Some(root),
    ));
    spans.push(span("http.recv", s.first_byte_ns, s.end_ns, Some(root)));
}

/// One request on a fresh connection. Returns `[connected, first byte,
/// end]` timestamps, the status, and where the body starts in `buf`.
fn call(
    addr: SocketAddr,
    wire: &[u8],
    origin: Instant,
    buf: &mut Vec<u8>,
) -> Result<([u64; 3], u16, usize), ()> {
    let mut s = TcpStream::connect(addr).map_err(drop)?;
    let connected = since(origin);
    s.set_nodelay(true).map_err(drop)?;
    s.set_read_timeout(Some(IO_TIMEOUT)).map_err(drop)?;
    s.set_write_timeout(Some(IO_TIMEOUT)).map_err(drop)?;
    s.write_all(wire).map_err(drop)?;
    buf.clear();
    buf.resize(16 * 1024, 0);
    let n = s.read(buf).map_err(drop)?;
    let first = since(origin);
    if n == 0 {
        return Err(());
    }
    buf.truncate(n);
    s.read_to_end(buf).map_err(drop)?;
    let end = since(origin);
    let (status, body_at) = parse_response(buf).ok_or(())?;
    Ok(([connected, first, end], status, body_at))
}

/// Status code and body offset of a complete `Connection: close`
/// response, or `None` when the head is malformed or the body length
/// disagrees with `Content-Length`.
pub fn parse_response(raw: &[u8]) -> Option<(u16, usize)> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let body_at = head_end + 4;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                let len: usize = v.trim().parse().ok()?;
                if raw.len() - body_at != len {
                    return None;
                }
            }
        }
    }
    Some((status, body_at))
}

/// One request a workload sends, less the tenant header.
pub struct Request {
    /// HTTP method.
    pub method: &'static str,
    /// Request target.
    pub path: String,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Writes the request's bytes into `out` (cleared first): head and
    /// body in one buffer, so it goes out in one write. `tenant` adds
    /// `X-Spark-Tenant: t<tenant>`.
    pub fn write(&self, tenant: Option<u32>, out: &mut Vec<u8>) {
        use std::io::Write as _;
        out.clear();
        let _ = write!(
            out,
            "{} {} HTTP/1.1\r\nHost: spark\r\n",
            self.method, self.path
        );
        let _ = write!(out, "Content-Type: {}\r\n", self.content_type);
        if let Some(t) = tenant {
            let _ = write!(out, "X-Spark-Tenant: t{t}\r\n");
        }
        let _ = write!(
            out,
            "Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.body.len()
        );
        out.extend_from_slice(&self.body);
    }
}

/// A running `spark serve` child on an ephemeral loopback port. Dropping
/// it kills and reaps the process.
pub struct ServeProc {
    child: ChildProc,
    /// The server's address.
    pub addr: SocketAddr,
}

impl ServeProc {
    /// Spawns `spark serve` on a free port with `args` appended and waits
    /// for `/healthz` to answer 200. Returns the process and the seconds
    /// from spawn to that first 200.
    ///
    /// # Errors
    ///
    /// Spawn failure, early exit, or no healthy answer within 30 s.
    pub fn start(bin: &Path, args: &[String]) -> Result<(Self, f64), String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("pick a free port: {e}"))?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let mut argv = vec!["serve".to_string(), "--addr".into(), addr.to_string()];
        argv.extend_from_slice(args);
        let t0 = Instant::now();
        let mut child = ChildProc::spawn(&bin.to_path_buf(), &argv, "spark serve")?;
        loop {
            let up = client_call(&addr.to_string(), "GET", "/healthz", "", &[], b"");
            if matches!(up, Ok(ref r) if r.status == 200) {
                return Ok((Self { child, addr }, t0.elapsed().as_secs_f64()));
            }
            if child.try_wait()?.is_some() {
                return Err(format!("spark serve {args:?} exited before it was healthy"));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("spark serve not healthy within 30 s".into());
            }
            // Poll again at once rather than sleep: a sleep's wake-up on a
            // shared host overshoots by up to a millisecond, a large and
            // variable share of a few-millisecond start.
            std::thread::yield_now();
        }
    }

    /// Sends one request and returns `(status, body)`.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        client_call(
            &self.addr.to_string(),
            method,
            path,
            content_type,
            &[],
            body,
        )
        .map(|r| (r.status, r.body))
        .map_err(|e| format!("{method} {path}: {e}"))
    }

    /// The parsed `/metrics` snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures, non-200, or unparseable JSON.
    pub fn metrics(&self) -> Result<Value, String> {
        let (status, body) = self.request("GET", "/metrics", "", b"")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let text = String::from_utf8(body).map_err(|e| format!("/metrics: {e}"))?;
        spark_util::json::parse(&text).map_err(|e| format!("/metrics: {e}"))
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc` cannot be read or holds no `VmHWM` line.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// CPU time the child has used so far, all threads, in seconds.
    ///
    /// # Errors
    ///
    /// When `/proc` cannot be read or parsed.
    pub fn cpu_s(&self) -> Result<f64, String> {
        cpu_s(&format!("/proc/{}/stat", self.child.id()))
    }

    /// Asks the server to shut down and waits for the process to exit.
    ///
    /// # Errors
    ///
    /// When the shutdown request fails or the process does not exit
    /// cleanly within 10 s (it is killed on drop either way).
    pub fn stop(mut self) -> Result<(), String> {
        self.request("POST", "/shutdown", "", b"")?;
        match self.child.wait_deadline(Duration::from_secs(10))? {
            true => Ok(()),
            false => Err("spark serve exited with an error status".into()),
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
///
/// # Errors
///
/// When the file cannot be read or holds no `VmHWM` line.
pub fn peak_rss_mib(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))
}

/// User plus system CPU time of a `/proc/<pid>/stat` file, in seconds:
/// every thread of the process, the exited ones included. Unlike wall
/// time it does not grow while a thread waits to be woken or scheduled,
/// and a guest kernel with paravirtual steal accounting leaves out the
/// time the hypervisor took the vCPU away.
///
/// # Errors
///
/// When the file cannot be read or parsed.
pub fn cpu_s(stat_path: &str) -> Result<f64, String> {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    let text = std::fs::read_to_string(stat_path).map_err(|e| format!("{stat_path}: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime 14 and stime 15.
    let fields: Vec<&str> = text
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
        return Err(format!("{stat_path}: no utime/stime fields"));
    };
    // SAFETY: sysconf reads no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz <= 0 {
        return Err("sysconf(_SC_CLK_TCK) failed".into());
    }
    Ok((utime + stime) / hz as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_and_length_mismatches_are_rejected() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Type: x\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse_response(ok), Some((200, ok.len() - 3)));
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc";
        assert_eq!(parse_response(short), None);
        assert_eq!(parse_response(b"HTTP/1.1 503 X\r\n\r\n"), Some((503, 18)));
        assert_eq!(parse_response(b"garbage"), None);
    }

    #[test]
    fn odd_bodies_are_deduplicated_per_spec() {
        let mut odd = Vec::new();
        assert_eq!(note_odd(&mut odd, 1, b"x"), 0);
        assert_eq!(note_odd(&mut odd, 2, b"x"), 1);
        assert_eq!(note_odd(&mut odd, 1, b"x"), 0);
        assert_eq!(note_odd(&mut odd, 1, b"y"), 2);
        assert_eq!(odd.len(), 3);
    }

    #[test]
    fn requests_carry_head_and_body_in_one_buffer() {
        let req = Request {
            method: "POST",
            path: "/v1/infer".into(),
            content_type: "application/json",
            body: b"{}".to_vec(),
        };
        let mut w = b"stale".to_vec();
        req.write(Some(1), &mut w);
        let text = String::from_utf8(w.clone()).unwrap();
        assert!(text.starts_with("POST /v1/infer HTTP/1.1\r\n"));
        assert!(text.contains("X-Spark-Tenant: t1\r\nContent-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        req.write(None, &mut w);
        assert!(!String::from_utf8(w).unwrap().contains("X-Spark-Tenant"));
    }
}
