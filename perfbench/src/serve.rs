//! The two serving workloads, `serve_hot` and `serve_cold`: a
//! `fast-serve` server in its own process loaded with the Fig. 2
//! sanitizer as a `.fastc` artifact, driven over TCP by this process.
//!
//! Three kinds of process take part, so that the process-global tree
//! interner of the server sees every page for the first time:
//!
//! * the **generator** compiles Fig. 2, builds the artifact, renders the
//!   pages to wire frames and computes each expected output with the
//!   hand-written `baseline_sanitize`, writes all of it to stdout and
//!   exits;
//! * the **server** decodes the artifact and serves until its stdin
//!   closes;
//! * the **replay** makes the executor's calls in-process and
//!   single-threaded over the same requests, for the per-layer split.

use crate::layers::{self, Replay};
use crate::measure::{self, Worker};
use fast_bench::sanitizer::{baseline_sanitize, compile_fig2, corpus, FIG2_FIXED};
use fast_json::Json;
use fast_rt::{Artifact, ArtifactBuilder, BatchMemo, RunOptions};
use fast_serve::proto;
use fast_serve::ServeConfig;
use fast_trees::{HtmlDoc, HtmlElem, HtmlGen, Tree, TreeType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The published transducer every request runs.
const TARGET: &str = "sani";

/// Server executor threads and client connections (the machine has two
/// cores).
const CLIENTS: usize = 2;

/// Largest request frame the server accepts: the 409 KB corpus page is a
/// 3.3 MB frame.
const MAX_FRAME: usize = 8 << 20;

/// Deepest input the server accepts: the same page nests about 700 deep.
const MAX_DEPTH: usize = 1024;

/// `serve_cold` page sizes in rendered HTML bytes, drawn uniformly per
/// request: well below the corpus, so that each request is quick while
/// every one of them misses the memo.
const COLD_PAGE_BYTES: (usize, usize) = (2_000, 12_000);

/// `serve_cold` offered load in requests per second: half the
/// closed-loop capacity of two clients on these pages (65 requests per
/// second on the reference machine).
const COLD_RATE: f64 = 32.0;

/// Each `serve_cold` arrival is shifted by a seeded amount of up to this
/// share of the mean interval either way.
const COLD_JITTER: f64 = 0.1;

/// Latency limits: a request finishing later than this after it was due
/// (`serve_cold`) or sent (`serve_hot`) misses.
pub const HOT_LIMIT_MS: f64 = 1_000.0;
/// See [`HOT_LIMIT_MS`].
pub const COLD_LIMIT_MS: f64 = 250.0;

/// Requests in each replay process; every other one is traced.
const HOT_REPLAY: usize = 60;
/// See [`HOT_REPLAY`].
const COLD_REPLAY: usize = 150;

/// Pages sent to a `serve_cold` server before the timed phase, drawn
/// from a seed range no timed request uses.
const COLD_WARM_PAGES: usize = 6;

/// One request: its wire frame payload, the expected output rendering,
/// and (open loop) when it is due, in µs from the start of the schedule.
pub struct Req {
    pub frame: Vec<u8>,
    pub expected: String,
    pub due_us: u64,
}

/// Everything the generator hands over.
pub struct Inputs {
    pub artifact: Vec<u8>,
    pub warm: Vec<Vec<u8>>,
    pub reqs: Vec<Req>,
}

fn frame(id: usize, input: &str) -> Vec<u8> {
    Json::obj([
        ("id", Json::Int(id as i64)),
        ("op", Json::Str("run".into())),
        ("target", Json::Str(TARGET.into())),
        ("input", Json::Str(input.into())),
    ])
    .to_string()
    .into_bytes()
}

/// Renders `doc` in `Tree::parse` syntax under the Fig. 3 `HtmlE`
/// encoding, written out here rather than through `HtmlDoc::encode` and
/// `Tree::display`: the expected outputs then rest on no code of the
/// tree crate, and generation interns nothing.
fn render(doc: &HtmlDoc) -> String {
    let mut out = String::new();
    render_siblings(&mut out, &doc.roots);
    out
}

const NIL: &str = "nil[\"\"]";

/// `node[tag](attrs, children, next)` down the sibling chain, then `nil`.
fn render_siblings(out: &mut String, elems: &[HtmlElem]) {
    for e in elems {
        out.push_str(&format!("node[{:?}](", e.tag));
        for (name, value) in &e.attrs {
            out.push_str(&format!("attr[{name:?}]("));
            render_chars(out, value);
            out.push_str(", ");
        }
        out.push_str(NIL);
        out.push_str(&")".repeat(e.attrs.len()));
        out.push_str(", ");
        render_siblings(out, &e.children);
        out.push_str(", ");
    }
    out.push_str(NIL);
    out.push_str(&")".repeat(elems.len()));
}

/// A string as a `val[c](…)` chain of its characters.
fn render_chars(out: &mut String, s: &str) {
    let mut n = 0;
    for c in s.chars() {
        out.push_str(&format!("val[{:?}](", c.to_string()));
        n += 1;
    }
    out.push_str(NIL);
    out.push_str(&")".repeat(n));
}

/// The `serve_hot` request mix of one round: every corpus page once and
/// the five smallest a second time, in a seeded order. The extra weight
/// puts the median inside one page's latency band instead of on the edge
/// between two, which steadies `op_p50_ms` from run to run.
fn hot_round(seed: u64) -> Vec<usize> {
    let mut round: Vec<usize> = (0..10).chain(0..5).collect();
    let mut rng = StdRng::seed_from_u64(measure::mix(seed, 2));
    for i in (1..round.len()).rev() {
        round.swap(i, rng.gen_range(0..=i));
    }
    round
}

/// The generator: writes the artifact, warm-up frames and requests.
pub fn generate(hot: bool, seed: u64, seconds: u64, out: &mut impl Write) -> io::Result<()> {
    let compiled = compile_fig2();
    let mut builder = ArtifactBuilder::new();
    builder.add_transducer(
        TARGET,
        compiled.transducer(TARGET).expect("Fig. 2 defines sani"),
    );
    let artifact = builder.build().encode();

    let (warm, reqs) = if hot {
        let docs = corpus(measure::mix(seed, 1));
        let pages: Vec<(Vec<u8>, String)> = measure::par_map(docs.len(), |i| {
            let d = &docs[i];
            (frame(i, &render(d)), render(&baseline_sanitize(d)))
        });
        let warm: Vec<Vec<u8>> = pages.iter().map(|p| p.0.clone()).collect();
        let reqs: Vec<Req> = hot_round(seed)
            .into_iter()
            .map(|i| Req {
                frame: pages[i].0.clone(),
                expected: pages[i].1.clone(),
                due_us: 0,
            })
            .collect();
        (warm, reqs)
    } else {
        let (lo, hi) = COLD_PAGE_BYTES;
        let mid = (lo + hi) / 2;
        let warm: Vec<Vec<u8>> = (0..COLD_WARM_PAGES)
            .map(|j| {
                let doc = HtmlGen::new(measure::mix(seed, 1 << 40 | j as u64)).doc_of_size(mid);
                frame(j, &render(&doc))
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(measure::mix(seed, 3));
        let n = (COLD_RATE * seconds as f64).ceil() as usize;
        let interval_us = 1e6 / COLD_RATE;
        let spread = (interval_us * COLD_JITTER) as i64;
        let draws: Vec<(usize, f64)> = (0..n)
            .map(|i| {
                let size = rng.gen_range(lo..hi);
                let jitter = rng.gen_range(-spread..=spread) as f64;
                (size, (i as f64 + 0.5) * interval_us + jitter)
            })
            .collect();
        let reqs: Vec<Req> = measure::par_map(n, |i| {
            let (size, due_us) = draws[i];
            let doc = HtmlGen::new(measure::mix(seed, 1 << 32 | i as u64)).doc_of_size(size);
            Req {
                frame: frame(i, &render(&doc)),
                expected: render(&baseline_sanitize(&doc)),
                due_us: due_us as u64,
            }
        });
        (warm, reqs)
    };

    let mut out = BufWriter::new(out);
    measure::put(&mut out, &artifact)?;
    measure::put_u64(&mut out, warm.len() as u64)?;
    for w in &warm {
        measure::put(&mut out, w)?;
    }
    measure::put_u64(&mut out, reqs.len() as u64)?;
    for r in &reqs {
        measure::put(&mut out, &r.frame)?;
        measure::put(&mut out, r.expected.as_bytes())?;
        measure::put_u64(&mut out, r.due_us)?;
    }
    out.flush()
}

/// Parses the generator's output.
fn read_inputs(r: &mut impl Read) -> io::Result<Inputs> {
    let artifact = measure::get(r)?;
    let warm = (0..measure::get_u64(r)?)
        .map(|_| measure::get(r))
        .collect::<io::Result<_>>()?;
    let reqs = (0..measure::get_u64(r)?)
        .map(|_| {
            Ok(Req {
                frame: measure::get(r)?,
                expected: measure::get_str(r)?,
                due_us: measure::get_u64(r)?,
            })
        })
        .collect::<io::Result<_>>()?;
    Ok(Inputs {
        artifact,
        warm,
        reqs,
    })
}

/// The server process: reads the artifact from stdin, prints the bound
/// address, then answers commands on stdin until it closes: `mark`
/// starts a measurement of the server's own `serve.request` histogram
/// and `report` prints its executor-time summary since the mark.
pub fn server() -> io::Result<()> {
    let mut stdin = io::stdin().lock();
    let bytes = measure::get(&mut stdin)?;
    let artifact = Artifact::decode(&bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let cfg = ServeConfig {
        workers: CLIENTS,
        queue_depth: 64,
        max_connections: CLIENTS + 4,
        max_request_bytes: MAX_FRAME,
        max_input_depth: MAX_DEPTH,
        timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = fast_serve::start(vec![artifact], "127.0.0.1:0", cfg)?;
    println!("{}", handle.addr());
    io::stdout().flush()?;
    let exec = || fast_obs::histogram("serve.request").snapshot();
    let mut mark = exec();
    let mut line = String::new();
    while stdin.read_line(&mut line)? > 0 {
        match line.trim() {
            "mark" => {
                mark = exec();
                println!("ok");
            }
            _ => {
                let d = exec().delta_from(&mark);
                println!(
                    "{}",
                    Json::obj([
                        ("requests", Json::Int(d.count as i64)),
                        ("exec_p50_ms", Json::Float(hist_quantile_ns(&d, 0.5) / 1e6)),
                    ])
                );
            }
        }
        io::stdout().flush()?;
        line.clear();
    }
    handle.shutdown();
    Ok(())
}

/// The `q`-quantile of a histogram, interpolated linearly inside its
/// power-of-two bucket (bucket `i` ≥ 1 holds `[2^(i-1), 2^i)` ns). The
/// `stats` operation reports the bucket's upper bound instead, which can
/// be up to twice the true value.
fn hist_quantile_ns(h: &fast_obs::HistSnapshot, q: f64) -> f64 {
    let target = q * h.count as f64;
    let mut seen = 0.0;
    for (i, &c) in h.buckets.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= target {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            return lo + lo * (target - seen) / c;
        }
        seen += c;
    }
    0.0
}

/// A started server process plus the generator's inputs.
pub struct Running {
    pub server: Worker,
    pub addr: String,
    pub inputs: Inputs,
    /// The generator's raw output, for the replay processes.
    pub blob: Vec<u8>,
}

/// One full set-up: generator, server start, warm-up pass.
pub fn setup(workload: &str, seed: u64, seconds: u64) -> io::Result<Running> {
    let mut gen = Worker::spawn(&[
        "--role".into(),
        "gen".into(),
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        seconds.to_string(),
    ])?;
    let mut blob = Vec::new();
    gen.stdout.read_to_end(&mut blob)?;
    if !gen.finish(Duration::from_secs(10)) {
        return Err(io::Error::other("generator failed"));
    }
    let inputs = read_inputs(&mut &blob[..])?;

    let mut server = Worker::spawn(&["--role".into(), "server".into()])?;
    {
        let stdin = server.stdin.as_mut().expect("server stdin is open");
        measure::put(stdin, &inputs.artifact)?;
        stdin.flush()?;
    }
    let addr = server.line()?;

    // Warm up over both connections, like the timed phase.
    let warmed = measure::par_map(CLIENTS, |c| -> io::Result<()> {
        let mut conn = Conn::connect(&addr)?;
        for w in inputs.warm.iter().skip(c).step_by(CLIENTS) {
            let resp = conn.call(w)?;
            let ok = Json::parse(std::str::from_utf8(&resp).unwrap_or(""))
                .ok()
                .and_then(|j| j.get("ok").and_then(Json::as_bool));
            if ok != Some(true) {
                return Err(io::Error::other("warm-up request failed"));
            }
        }
        Ok(())
    });
    warmed.into_iter().collect::<io::Result<()>>()?;
    Ok(Running {
        server,
        addr,
        inputs,
        blob,
    })
}

/// A client connection speaking the frame protocol directly, so the
/// timed interval holds only the request's own wire round trip.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn call(&mut self, frame: &[u8]) -> io::Result<Vec<u8>> {
        proto::write_frame(&mut self.writer, frame)?;
        match proto::read_frame(&mut self.reader, 64 << 20) {
            Ok(Some(b)) => Ok(b),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            )),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }
}

/// How one request ended.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Right output.
    Ok,
    /// An error response (shed, timeout, …) or a broken connection.
    Failed,
    /// A response whose output differs from the reference.
    Wrong,
}

/// One finished request.
#[derive(Clone, Copy)]
pub struct Outcome {
    /// From due (open loop) or send (closed loop) to the last response
    /// byte, in ms.
    pub latency_ms: f64,
    /// How late the request was sent against its schedule, in ms.
    pub lag_ms: f64,
    /// When the response arrived, in s from the start of the timed phase.
    pub done_s: f64,
    pub verdict: Verdict,
}

fn check(resp: &[u8], expected: &str) -> Verdict {
    let Ok(j) = Json::parse(std::str::from_utf8(resp).unwrap_or("")) else {
        return Verdict::Wrong;
    };
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Verdict::Failed;
    }
    match j.get("outputs").and_then(Json::as_array) {
        Some([out]) if out.as_str() == Some(expected) => Verdict::Ok,
        _ => Verdict::Wrong,
    }
}

/// The timed phase. Closed loop (`serve_hot`): each of the two clients
/// sends its next request as soon as the previous one is answered and
/// checked, cycling through the request mix until `seconds` pass. Open
/// loop (`serve_cold`): each request is sent at its due time by
/// whichever client is free, and timed from when it was due.
///
/// The output check runs after the response is timed and before the
/// client's next request; [`load`] returns its total time as well.
pub fn load(
    addr: &str,
    reqs: &[Req],
    open: bool,
    seconds: u64,
) -> io::Result<(Vec<Outcome>, Duration)> {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::new());
    let check_time = Mutex::new(Duration::ZERO);
    let start = Instant::now();
    let stop = Duration::from_secs(seconds);
    std::thread::scope(|s| -> io::Result<()> {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| -> io::Result<()> {
                    let mut conn = Conn::connect(addr)?;
                    let mut mine = Vec::new();
                    let mut checking = Duration::ZERO;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let req = if open {
                            match reqs.get(i) {
                                Some(r) => r,
                                None => break,
                            }
                        } else {
                            if start.elapsed() >= stop {
                                break;
                            }
                            &reqs[i % reqs.len()]
                        };
                        let due = if open {
                            let due = Duration::from_micros(req.due_us);
                            if let Some(wait) = due.checked_sub(start.elapsed()) {
                                std::thread::sleep(wait);
                            }
                            due
                        } else {
                            start.elapsed()
                        };
                        let sent = start.elapsed();
                        let result = conn.call(&req.frame);
                        let done = start.elapsed();
                        let t = Instant::now();
                        let verdict = match &result {
                            Ok(resp) => check(resp, &req.expected),
                            Err(_) => Verdict::Failed,
                        };
                        checking += t.elapsed();
                        if result.is_err() {
                            conn = Conn::connect(addr)?;
                        }
                        mine.push(Outcome {
                            latency_ms: (done - due).as_secs_f64() * 1e3,
                            lag_ms: (sent - due).as_secs_f64() * 1e3,
                            done_s: done.as_secs_f64(),
                            verdict,
                        });
                    }
                    outcomes.lock().expect("no client panicked").extend(mine);
                    *check_time.lock().expect("no client panicked") += checking;
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread")?;
        }
        Ok(())
    })?;
    Ok((
        outcomes.into_inner().expect("no client panicked"),
        check_time.into_inner().expect("no client panicked"),
    ))
}

/// Sends one command line to the server process and reads its answer.
pub fn command(server: &mut Worker, cmd: &str) -> io::Result<String> {
    let stdin = server.stdin.as_mut().expect("server stdin is open");
    writeln!(stdin, "{cmd}")?;
    stdin.flush()?;
    server.line()
}

/// The executor's calls for one request, in the executor's order, each
/// in a span named after its layer. Returns the rendered outputs and
/// the length of the response frame.
fn execute(
    framed: &[u8],
    ty: &TreeType,
    plan: &fast_rt::Plan,
    memo: &BatchMemo,
    opts: &RunOptions,
) -> Result<(Vec<String>, usize), String> {
    let _op = fast_obs::span!("op");
    let bytes = {
        let _s = fast_obs::span!("proto.io");
        proto::read_frame(&mut &framed[..], MAX_FRAME)
            .map_err(|e| e.to_string())?
            .ok_or("empty frame")?
    };
    let req = {
        let _s = fast_obs::span!("json.parse");
        proto::parse_request(&bytes).map_err(|(_, m)| m)?
    };
    let tree = {
        let _s = fast_obs::span!("trees.parse");
        Tree::parse(ty, &req.input)?
    };
    let outputs = {
        let _s = fast_obs::span!("rt.run");
        let (mut results, _) = plan.run_batch_shared(std::slice::from_ref(&tree), opts, memo);
        results.remove(0).map_err(|e| e.to_string())?
    };
    let rendered: Vec<String> = {
        let _s = fast_obs::span!("trees.display");
        outputs.iter().map(|t| t.display(ty).to_string()).collect()
    };
    let text = {
        let _s = fast_obs::span!("json.encode");
        proto::ok_response(
            &req.id,
            vec![
                ("op", Json::Str("run".into())),
                ("target", Json::Str(req.target.clone())),
                ("count", Json::Int(rendered.len() as i64)),
                (
                    "outputs",
                    Json::Array(rendered.iter().cloned().map(Json::Str).collect()),
                ),
            ],
        )
        .to_string()
    };
    let wire = {
        let _s = fast_obs::span!("proto.io");
        let mut wire = Vec::with_capacity(text.len() + proto::LEN_PREFIX_BYTES);
        proto::write_frame(&mut wire, text.as_bytes()).map_err(|e| e.to_string())?;
        wire
    };
    Ok((rendered, wire.len()))
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(payload.len() + proto::LEN_PREFIX_BYTES);
    proto::write_frame(&mut v, payload).expect("writing to a Vec cannot fail");
    v
}

/// The replay process: reads the generator's output from stdin, warms up
/// like the server, then replays the first requests of the timed
/// sequence in-process, tracing those whose index has the given parity.
pub fn replay(hot: bool, parity: usize) -> io::Result<Replay> {
    let inputs = read_inputs(&mut io::stdin().lock())?;
    let count = if hot { HOT_REPLAY } else { COLD_REPLAY };

    let mut layers = layers::Layers::default();
    fast_obs::set_tracing(true);
    {
        let _s = fast_obs::span!("lang.compile");
        let compiled =
            fast_lang::compile(FIG2_FIXED).map_err(|e| io::Error::other(e.to_string()))?;
        std::hint::black_box(compiled);
    }
    fast_obs::set_tracing(false);
    layers.collect();

    let artifact = Artifact::decode(&inputs.artifact)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let plan = artifact
        .transducer(TARGET)
        .expect("artifact holds sani")
        .clone();
    let ty = artifact
        .transducer_type(TARGET)
        .expect("artifact types sani")
        .clone();
    let memo = BatchMemo::new(ServeConfig::default().memo_capacity);
    let opts = RunOptions {
        workers: 1,
        timeout: Some(Duration::from_secs(30)),
        ..RunOptions::default()
    };
    for w in &inputs.warm {
        execute(&framed(w), &ty, &plan, &memo, &opts).map_err(io::Error::other)?;
    }

    let reqs: Vec<(Vec<u8>, &str)> = (0..count)
        .map(|i| {
            let r = &inputs.reqs[i % inputs.reqs.len()];
            (framed(&r.frame), r.expected.as_str())
        })
        .collect();
    let (mut bytes_in, mut bytes_out) = (0usize, 0usize);
    let mut report = Replay::default();
    let before = fast_obs::snapshot();
    for (i, (f, expected)) in reqs.iter().enumerate() {
        let traced = i % 2 == parity;
        fast_obs::set_tracing(traced);
        let t = Instant::now();
        let out = execute(f, &ty, &plan, &memo, &opts);
        let wall = t.elapsed();
        fast_obs::set_tracing(false);
        layers.collect();
        report.record(traced, wall);
        bytes_in += f.len();
        match out {
            Ok((rendered, wire)) => {
                bytes_out += wire;
                if rendered.len() != 1 || rendered[0] != *expected {
                    report.wrong += 1;
                }
            }
            Err(_) => report.wrong += 1,
        }
    }
    let end = fast_obs::snapshot();
    report.counts = layers::counter_metrics(&end.delta_from(&before), &end, count);
    report.counts.insert(
        "proto.frame_in_bytes".into(),
        bytes_in as f64 / count as f64,
    );
    report.counts.insert(
        "proto.frame_out_bytes".into(),
        bytes_out as f64 / count as f64,
    );
    report.layer_ms = layers.totals_ms();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_inside_a_bucket() {
        let h = fast_obs::Hist::new();
        for ns in [1000, 1100, 1200, 1300] {
            h.record_ns(ns);
        }
        // All four samples fall in [1024, 2048) except the first.
        let q = hist_quantile_ns(&h.snapshot(), 0.5);
        assert!((1024.0..2048.0).contains(&q), "{q}");
        assert_eq!(hist_quantile_ns(&fast_obs::HistSnapshot::empty(), 0.5), 0.0);
    }

    #[test]
    fn rendering_matches_the_tree_crate() {
        let compiled = compile_fig2();
        let ty = compiled.tree_type("HtmlE").expect("Fig. 2 declares HtmlE");
        let mut doc = HtmlGen::new(9).doc_of_size(3_000);
        doc.roots[0]
            .attrs
            .push(("title".into(), "a\"b'c\\d".into()));
        assert_eq!(render(&doc), doc.encode(ty).display(ty).to_string());
        assert_eq!(render(&HtmlDoc::default()), NIL);
    }

    #[test]
    fn hot_rounds_weight_the_small_pages() {
        let round = hot_round(3);
        assert_eq!(round.len(), 15);
        for page in 0..10 {
            let n = round.iter().filter(|&&p| p == page).count();
            assert_eq!(n, if page < 5 { 2 } else { 1 });
        }
    }
}
