//! `serve_mix`: an in-process `sea_serve::Server` with
//! `ServeConfig::default()`, driven by one load-generating child process
//! over at most `nproc` keep-alive connections: an open loop at a fixed
//! offered rate, then a closed-loop saturation phase.

use crate::inputs::ServeBodies;
use crate::report::{Outcome, Report};
use crate::trace::{write_jsonl, Tracer};
use crate::util::{mean, median, peak_rss_mb, process_cpu_s, quantile, secs, tail, timed};
use sea_batch::{solve_instance, BatchOptions, WarmStartCache};
use sea_cli::manifest::manifest_instance;
use sea_core::NullObserver;
use sea_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Offered rate of the open loop, requests per second: about a quarter of
/// the lowest closed-loop capacity of the parent commit on a 2-core x86-64
/// VM (1000–1800 req/s at 2 keep-alive connections, as the shared host's
/// speed drifts). At half the capacity, a slow spell of the host put the
/// open loop near saturation and its p50 became a measure of queueing
/// behind 150×150 bodies. Frozen so that a faster or slower server sees the
/// same offered load.
pub const OPEN_RATE: f64 = 250.0;

/// The open loop sleeps until this long before a request is due and
/// spins the rest, so the sleep's wake-up delay is not timed.
const SPIN_S: f64 = 300e-6;
/// Every `SAMPLE_EVERY`-th request's objective is checked against a
/// direct `solve_instance` of the same body.
const SAMPLE_EVERY: u64 = 16;
/// Slices of a run; each is an open-loop then a closed-loop phase.
const SLICES: usize = 12;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Relative objective agreement demanded of sampled answers.
const OBJECTIVE_TOL: f64 = 1e-6;

pub fn conns() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// One keep-alive client connection.
pub struct Conn(BufReader<TcpStream>);

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        // A stalled server fails the run instead of hanging it.
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn(BufReader::new(s)))
    }

    /// One exchange; returns (status, body).
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let frame = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.0.get_mut().write_all(frame.as_bytes())?;
        let mut line = String::new();
        self.0.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut len = 0usize;
        loop {
            line.clear();
            self.0.read_line(&mut line)?;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut buf = vec![0u8; len];
        self.0.read_exact(&mut buf)?;
        Ok((status, String::from_utf8_lossy(&buf).into_owned()))
    }
}

/// The raw text of a top-level field of a one-line JSON response.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// One request as the load generator saw it.
#[derive(Debug, Clone)]
pub struct Rec {
    pub slice: usize,
    pub open: bool,
    pub k: u64,
    pub body: usize,
    pub status: u16,
    /// From when the request was due (open loop) or sent (closed loop).
    pub lat_ms: f64,
    /// How late the generator sent it (open loop only).
    pub late_ms: f64,
    /// Time from send to response.
    pub service_ms: f64,
    pub converged: bool,
    pub hit: bool,
    pub iterations: f64,
    pub objective: f64,
}

impl Rec {
    fn line(&self) -> String {
        format!(
            "rec {} {} {} {} {} {} {} {} {} {} {} {:e}",
            self.slice,
            u8::from(self.open),
            self.k,
            self.body,
            self.status,
            self.lat_ms,
            self.late_ms,
            self.service_ms,
            u8::from(self.converged),
            u8::from(self.hit),
            self.iterations,
            self.objective
        )
    }

    fn parse(line: &str) -> Option<Rec> {
        let f: Vec<&str> = line.strip_prefix("rec ")?.split(' ').collect();
        let n = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok());
        Some(Rec {
            slice: f.first()?.parse().ok()?,
            open: n(1)? == 1.0,
            k: f.get(2)?.parse().ok()?,
            body: f.get(3)?.parse().ok()?,
            status: f.get(4)?.parse().ok()?,
            lat_ms: n(5)?,
            late_ms: n(6)?,
            service_ms: n(7)?,
            converged: n(8)? == 1.0,
            hit: n(9)? == 1.0,
            iterations: n(10)?,
            objective: n(11)?,
        })
    }
}

/// Load-generator settings (the child process's arguments).
#[derive(Debug, Clone)]
pub struct Load {
    pub addr: SocketAddr,
    pub seed: u64,
    pub rate: f64,
    /// Each slice is an open-loop phase of `open_s` then a closed-loop
    /// phase of `closed_s`.
    pub slices: usize,
    pub open_s: f64,
    pub closed_s: f64,
    pub conns: usize,
    /// Index of the first request in the seed's traffic sequence.
    pub start: u64,
    pub trace: bool,
}

impl Load {
    fn args(&self) -> Vec<String> {
        vec![
            "--loadgen".into(),
            self.addr.to_string(),
            self.seed.to_string(),
            self.rate.to_string(),
            self.slices.to_string(),
            self.open_s.to_string(),
            self.closed_s.to_string(),
            self.conns.to_string(),
            self.start.to_string(),
            u8::from(self.trace).to_string(),
        ]
    }

    pub fn from_args(a: &[String]) -> Option<Load> {
        Some(Load {
            addr: a.first()?.parse().ok()?,
            seed: a.get(1)?.parse().ok()?,
            rate: a.get(2)?.parse().ok()?,
            slices: a.get(3)?.parse().ok()?,
            open_s: a.get(4)?.parse().ok()?,
            closed_s: a.get(5)?.parse().ok()?,
            conns: a.get(6)?.parse().ok()?,
            start: a.get(7)?.parse().ok()?,
            trace: a.get(8)? == "1",
        })
    }
}

/// Request indices of slice `i`: open-loop ones from `base(i)`, closed-loop
/// ones from `base(i) + CLOSED`, so no two phases replay one sequence.
const SLICE_STRIDE: u64 = 1 << 24;
const CLOSED: u64 = 1 << 23;

/// Child-process body: run every slice's open then closed phase, and
/// print one `rec` line per request.
pub fn loadgen(load: &Load) -> std::io::Result<()> {
    let bodies = ServeBodies::new(load.seed);
    let counters: Vec<[AtomicU64; 2]> = (0..load.slices)
        .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
        .collect();
    let slice_s = load.open_s + load.closed_s;
    let t0 = Instant::now();
    let per_thread: Vec<std::io::Result<Vec<Rec>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..load.conns)
            .map(|c| {
                let (bodies, counters) = (&bodies, &counters);
                s.spawn(move || -> std::io::Result<Vec<Rec>> {
                    let tr = Tracer::new(load.trace);
                    let mut conn = Conn::open(load.addr)?;
                    let mut recs = Vec::new();
                    let mut send =
                        |slice: usize, k: u64, open: bool, due: f64| -> std::io::Result<()> {
                            let body = ServeBodies::pick(load.seed, k);
                            let sent = secs(t0);
                            let (status, resp) = tr.span("http_exchange", || {
                                conn.exchange("POST", "/solve", &bodies.bodies[body])
                            })?;
                            let end_s = secs(t0);
                            let num = |key| field(&resp, key).and_then(|v| v.parse::<f64>().ok());
                            recs.push(Rec {
                                slice,
                                open,
                                k,
                                body,
                                status,
                                lat_ms: (end_s - due) * 1e3,
                                late_ms: (sent - due) * 1e3,
                                service_ms: (end_s - sent) * 1e3,
                                converged: field(&resp, "stop") == Some("converged"),
                                hit: field(&resp, "cache") == Some("hit"),
                                iterations: num("iterations").unwrap_or(0.0),
                                objective: num("objective").unwrap_or(f64::NAN),
                            });
                            Ok(())
                        };
                    for (i, [open_next, closed_next]) in counters.iter().enumerate() {
                        let begin = i as f64 * slice_s;
                        let base = load.start + i as u64 * SLICE_STRIDE;
                        // Open loop: request j is due at j / rate, whoever is free.
                        loop {
                            let j = open_next.fetch_add(1, Ordering::SeqCst);
                            let due = begin + j as f64 / load.rate;
                            if due >= begin + load.open_s {
                                break;
                            }
                            let wait = due - SPIN_S - secs(t0);
                            if wait > 0.0 {
                                std::thread::sleep(Duration::from_secs_f64(wait));
                            }
                            while secs(t0) < due {
                                std::hint::spin_loop();
                            }
                            send(i, base + j, true, due)?;
                        }
                        // Closed loop: each connection sends as soon as it hears back.
                        let wait = begin + load.open_s - secs(t0);
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        while secs(t0) < begin + slice_s {
                            let j = closed_next.fetch_add(1, Ordering::SeqCst);
                            send(i, base + CLOSED + j, false, secs(t0))?;
                        }
                    }
                    if load.trace {
                        let path =
                            format!(".bench_out/spans-serve-loadgen-{}-{c}.jsonl", load.seed);
                        write_jsonl(std::path::Path::new(&path), &tr.spans())?;
                    }
                    Ok(recs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for recs in per_thread {
        for r in recs? {
            writeln!(out, "{}", r.line())?;
        }
    }
    out.flush()
}

/// A running server with its warm cache filled.
pub struct Live {
    server: Server,
    pub bodies: ServeBodies,
}

impl Live {
    /// Generate the bodies, bind a default server on an ephemeral port,
    /// and send every family's base body once to fill the warm cache.
    pub fn start(seed: u64) -> Live {
        let bodies = ServeBodies::new(seed);
        let server = Server::bind(ServeConfig::default()).expect("bind the server");
        let mut c = Conn::open(server.addr()).expect("connect to the server");
        for i in bodies.bases() {
            let (status, _) = c
                .exchange("POST", "/solve", &bodies.bodies[i])
                .expect("warm-up request");
            assert_eq!(status, 200, "warm-up request for body {i}");
        }
        Live { server, bodies }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Run the load generator as a child process against this server.
    /// Returns its records and this process's peak resident memory in MB
    /// when the load ended. The child writes its records to a file under
    /// `.bench_out/`, read only after the peak is taken, so the
    /// benchmark's own per-request bookkeeping is not counted.
    pub fn drive(&self, load: &Load) -> (Vec<Rec>, f64) {
        let exe = std::env::current_exe().expect("own executable path");
        std::fs::create_dir_all(".bench_out").expect("create .bench_out");
        let path = format!(".bench_out/serve-loadgen-{}.txt", std::process::id());
        let file = std::fs::File::create(&path).expect("create the load generator's output");
        let status = Command::new(exe)
            .args(load.args())
            .stdout(file)
            .stderr(Stdio::inherit())
            .status()
            .expect("run the load generator");
        assert!(status.success(), "load generator failed: {status}");
        let peak = peak_rss_mb();
        let text = std::fs::read_to_string(&path).expect("read the load generator's output");
        let _ = std::fs::remove_file(&path);
        (text.lines().filter_map(Rec::parse).collect(), peak)
    }

    /// `/metrics` sample values by series name (unlabelled series only,
    /// plus `name{labels}` keys verbatim).
    pub fn scrape(&self) -> BTreeMap<String, f64> {
        let mut c = Conn::open(self.addr()).expect("connect for /metrics");
        let (_, text) = c.exchange("GET", "/metrics", "").expect("scrape /metrics");
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect()
    }

    pub fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}

/// Record each request's outcome, checking sampled objectives against a
/// direct cold `solve_instance` of the same body.
pub fn check(recs: &[Rec], bodies: &ServeBodies, out: &mut Outcome) -> usize {
    let mut direct: BTreeMap<usize, f64> = BTreeMap::new();
    let mut checked = 0;
    for r in recs {
        let ok = r.status == 200 && r.converged;
        let mut right = true;
        if ok && r.k % SAMPLE_EVERY == 0 {
            let want = *direct.entry(r.body).or_insert_with(|| {
                let inst =
                    manifest_instance(1, &bodies.bodies[r.body]).expect("generated body parses");
                let (item, _) = solve_instance(
                    &inst,
                    &BatchOptions::default(),
                    &WarmStartCache::new(),
                    &mut NullObserver,
                );
                item.outcome.map_or(f64::NAN, |s| s.objective())
            });
            right = (r.objective - want).abs() <= OBJECTIVE_TOL * want.abs().max(1.0);
            checked += 1;
        }
        out.record(ok, right);
    }
    checked
}

pub fn run(seed: u64, seconds: f64) -> Report {
    let mut setup_times = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            Live::stop(old);
        }
        let (l, dt) = timed(|| Live::start(seed));
        setup_times.push(dt);
        live = Some(l);
    }
    let live = live.expect("at least one set-up");
    let load = Load {
        addr: live.addr(),
        seed,
        rate: OPEN_RATE,
        slices: SLICES,
        open_s: 0.5 * seconds / SLICES as f64,
        closed_s: 0.4 * seconds / SLICES as f64,
        conns: conns(),
        start: 0,
        trace: false,
    };
    // The server runs in this process and the load generator in its own,
    // so this process's CPU time over the drive is the server's.
    let cpu0 = process_cpu_s();
    let (recs, peak_mb) = live.drive(&load);
    let cpu_s = process_cpu_s() - cpu0;
    let cpu_ms = cpu_s * 1e3 / recs.len().max(1) as f64;
    let mut out = Outcome::default();
    let checked = check(&recs, &live.bodies, &mut out);
    live.stop();

    // Per slice: open-loop p50 (of all requests, and of the warm 40×40
    // re-requests alone) and closed-loop throughput; the run reports the
    // median slice, so one disturbed slice does not move it.
    let (mut p50s, mut rereq_p50s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..SLICES {
        let open_i: Vec<&Rec> = recs.iter().filter(|r| r.slice == i && r.open).collect();
        let lat: Vec<f64> = open_i.iter().map(|r| r.lat_ms).collect();
        let rereq: Vec<f64> = open_i
            .iter()
            .filter(|r| ServeBodies::is_rerequest(r.body))
            .map(|r| r.lat_ms)
            .collect();
        let done = recs
            .iter()
            .filter(|r| r.slice == i && !r.open && r.status == 200)
            .count();
        p50s.push(median(&lat));
        rereq_p50s.push(median(&rereq));
        rates.push(done as f64 / load.closed_s);
    }
    let (open, closed): (Vec<&Rec>, Vec<&Rec>) = recs.iter().partition(|r| r.open);
    let lat: Vec<f64> = open.iter().map(|r| r.lat_ms).collect();
    let late: Vec<f64> = open.iter().map(|r| r.late_ms).collect();
    let req_per_s = median(&rates);
    let answered: Vec<f64> = recs
        .iter()
        .filter(|r| r.status == 200)
        .map(|r| r.iterations)
        .collect();
    let hits = recs.iter().filter(|r| r.hit).count() as f64 / recs.len().max(1) as f64;

    let rereqs = open
        .iter()
        .filter(|r| ServeBodies::is_rerequest(r.body))
        .count();

    let mut r = Report::new(out, median(&setup_times));
    // The gated cost and rate of requests are taken from the server's CPU
    // time: on a shared host, open-loop latency is mostly the time to wake
    // idle cores, and wall-clock latency and throughput halve or double in
    // a busy spell of the host. They are printed below, ungated.
    r.e2e("op_ms", cpu_ms);
    r.e2e("iterations", mean(&answered));
    r.e2e("ops_per_s", recs.len() as f64 / cpu_s);
    r.e2e("peak_rss_mb", peak_mb);
    r.show("req_p50_ms", median(&p50s), "ms", lat.len());
    // p99 has at least ten samples beyond it from 1000 requests on.
    r.show("req_p99_ms", quantile(&lat, 0.99), "ms", lat.len());
    r.show("req_p50_rerequest_ms", median(&rereq_p50s), "ms", rereqs);
    r.show("server_cpu_ms_per_req", cpu_ms, "ms", recs.len());
    r.show("req_per_s", req_per_s, "req/s", closed.len());
    r.show("iterations", mean(&answered), "count", answered.len());
    r.show("offered_rate", OPEN_RATE, "req/s", 0);
    let (late_label, late_v) = tail(&late);
    r.show(
        &format!("generator_late_{late_label}_ms"),
        late_v,
        "ms",
        late.len(),
    );
    r.show("warm_hit_frac", hits, "ratio", recs.len());
    r.note(format!(
        "checked {checked} sampled objectives against direct solve_instance"
    ));
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    r.note(format!(
        "slices req_p50_ms=[{}] req_p50_rerequest_ms=[{}] req_per_s=[{}]",
        list(&p50s),
        list(&rereq_p50s),
        list(&rates)
    ));
    r
}
