//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload from a seed, checks every output against an
//! independent reference and prints, as its last line, one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! the traced run (`--trace 1`). `perfbench/README.md` describes the
//! workloads, the metrics and what each layer metric should move.
//!
//! The same binary also plays the helper processes (`--role …`): the
//! input generator, the server, the in-process replay and the in-process
//! worker.

mod inproc;
mod layers;
mod measure;
mod serve;

use fast_json::Json;
use layers::Replay;
use measure::Worker;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["serve_hot", "serve_cold", "batch_fig7", "ar_check"];

/// Set-ups per timed run; `setup_s` is their median and the last one is
/// measured. The in-process set-ups take milliseconds, so they repeat
/// more often; a serve set-up takes seconds.
fn setup_reps(workload: &str) -> usize {
    if is_serve(workload) {
        3
    } else {
        5
    }
}

/// The traced run fails when the per-request layer times of a serve
/// workload, summed, differ from the untraced in-process time per request
/// by more than this share. One replay process traces the even requests
/// and the other the odd ones, so both sides cover every request once and
/// share both processes; the spans cost microseconds per request, and
/// what remains is the machine's drift within the replays.
const RECONCILE_TOLERANCE: f64 = 0.15;

/// Command-line arguments: the four of a benchmark run plus the helper roles'.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: String,
    mode: String,
    parity: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        role: "bench".into(),
        mode: "timed".into(),
        parity: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("missing value for {}", pair[0]));
        };
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{key} wants a number"))
        };
        match key.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num(value)?,
            "--seconds" => a.seconds = num(value)?.max(1),
            "--trace" => a.trace = num(value)? != 0,
            "--role" => a.role = value.clone(),
            "--mode" => a.mode = value.clone(),
            "--parity" => a.parity = (num(value)? % 2) as usize,
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    if a.role != "server" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.role.as_str() {
        "bench" => bench(&args),
        "gen" => generate(&args),
        "server" => serve::server(),
        "replay" => serve::replay(args.workload == "serve_hot", args.parity)
            .and_then(|r| print_line(&r.to_json())),
        "work" => work(&args),
        other => Err(io::Error::other(format!("unknown role {other}"))),
    };
    if let Err(e) = result {
        eprintln!("perfbench ({}): {e}", args.role);
        std::process::exit(1);
    }
}

fn print_line(j: &Json) -> io::Result<()> {
    let mut out = io::stdout().lock();
    writeln!(out, "{j}")?;
    out.flush()
}

fn is_serve(workload: &str) -> bool {
    workload.starts_with("serve_")
}

/// The generator role: the serve workloads' wire inputs, or a textual
/// dump of an in-process workload's inputs.
fn generate(a: &Args) -> io::Result<()> {
    let mut out = io::stdout().lock();
    if is_serve(&a.workload) {
        serve::generate(a.workload == "serve_hot", a.seed, a.seconds, &mut out)
    } else {
        out.write_all(
            inproc::Work::setup(&a.workload, a.seed)
                .describe()
                .as_bytes(),
        )
    }
}

/// The in-process worker role: set up, say `ready`, then run the mode
/// and stay alive until stdin closes, so the parent can read the peak
/// RSS of a process that did the work.
fn work(a: &Args) -> io::Result<()> {
    let w = inproc::Work::setup(&a.workload, a.seed);
    println!("ready");
    io::stdout().flush()?;
    match a.mode.as_str() {
        "setup" => return Ok(()),
        "timed" => print_line(&w.timed(a.seconds))?,
        _ => print_line(&w.replay(a.parity).to_json())?,
    }
    io::copy(&mut io::stdin().lock(), &mut io::sink())?;
    Ok(())
}

fn helper(role: &str, a: &Args, extra: &[(&str, String)]) -> Vec<String> {
    let mut v: Vec<String> = vec![
        "--role".into(),
        role.into(),
        "--workload".into(),
        a.workload.clone(),
        "--seed".into(),
        a.seed.to_string(),
        "--seconds".into(),
        a.seconds.to_string(),
    ];
    for (k, val) in extra {
        v.push(format!("--{k}"));
        v.push(val.clone());
    }
    v
}

/// What the timed phase of a run measured.
#[derive(Default)]
struct Timed {
    setup_s: Vec<f64>,
    attempted: usize,
    failed: usize,
    wrong: usize,
    /// Latencies of the successful operations, sorted.
    lat_ms: Vec<f64>,
    within: usize,
    ops_per_s: f64,
    peak_rss_mb: f64,
    lag_p90_ms: f64,
    exec_p50_ms: f64,
    /// The generator's output (serve workloads), for the replays.
    blob: Vec<u8>,
}

fn limit_ms(workload: &str) -> f64 {
    match workload {
        "serve_hot" => serve::HOT_LIMIT_MS,
        "serve_cold" => serve::COLD_LIMIT_MS,
        "batch_fig7" => inproc::FIG7_LIMIT_MS,
        _ => inproc::AR_LIMIT_MS,
    }
}

fn serve_timed(a: &Args, reps: usize) -> io::Result<Timed> {
    let mut t = Timed::default();
    let mut running: Option<serve::Running> = None;
    for _ in 0..reps {
        if let Some(r) = running.take() {
            r.server.finish(Duration::from_secs(10));
        }
        let start = Instant::now();
        running = Some(serve::setup(&a.workload, a.seed, a.seconds)?);
        t.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut run = running.expect("at least one set-up");
    let open = a.workload == "serve_cold";
    serve::command(&mut run.server, "mark")?;
    let (outcomes, check_time) = serve::load(&run.addr, &run.inputs.reqs, open, a.seconds)?;
    let report = serve::command(&mut run.server, "report")?;
    t.exec_p50_ms = Json::parse(&report)
        .ok()
        .and_then(|j| j.get("exec_p50_ms").and_then(Json::as_f64))
        .ok_or_else(|| io::Error::other("unreadable server report"))?;
    t.peak_rss_mb = measure::peak_rss_mb(run.server.pid());
    run.server.finish(Duration::from_secs(10));

    let limit = limit_ms(&a.workload);
    t.attempted = outcomes.len();
    let mut lags = Vec::new();
    let mut last_done = 0f64;
    for o in &outcomes {
        lags.push(o.lag_ms);
        match o.verdict {
            serve::Verdict::Ok => {
                t.lat_ms.push(o.latency_ms);
                t.within += usize::from(o.latency_ms <= limit);
                last_done = last_done.max(o.done_s);
            }
            serve::Verdict::Failed => t.failed += 1,
            serve::Verdict::Wrong => t.wrong += 1,
        }
    }
    t.ops_per_s = t.lat_ms.len() as f64 / last_done.max(1e-9);
    lags.sort_by(f64::total_cmp);
    t.lag_p90_ms = measure::quantile(&lags, 0.9);
    eprintln!(
        "perfbench: {} requests, output checks took {:.1} ms in all",
        t.attempted,
        check_time.as_secs_f64() * 1e3
    );
    t.blob = run.blob;
    Ok(t)
}

fn inproc_timed(a: &Args, reps: usize) -> io::Result<Timed> {
    let mut t = Timed::default();
    let mut worker = None;
    for rep in 0..reps {
        let mode = if rep + 1 == reps { "timed" } else { "setup" };
        let start = Instant::now();
        let mut w = Worker::spawn(&helper("work", a, &[("mode", mode.into())]))?;
        if w.line()? != "ready" {
            return Err(io::Error::other("worker did not get ready"));
        }
        t.setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 == reps {
            worker = Some(w);
        } else if !w.finish(Duration::from_secs(10)) {
            return Err(io::Error::other("set-up worker failed"));
        }
    }
    let mut w = worker.expect("at least one set-up");
    let line = w.line()?;
    t.peak_rss_mb = measure::peak_rss_mb(w.pid());
    if !w.finish(Duration::from_secs(10)) {
        return Err(io::Error::other("timed worker failed"));
    }
    let j = Json::parse(&line).map_err(|e| io::Error::other(e.to_string()))?;
    let int = |k: &str| j.get(k).and_then(Json::as_int).unwrap_or(0) as usize;
    t.attempted = int("attempted");
    t.failed = int("failed");
    t.wrong = int("wrong");
    // One latency list per timed thread. Each thread's completed
    // operations per second of operation time; the threads run side by
    // side, so their rates add up.
    for lat in j
        .get("latencies_ms")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let lat: Vec<f64> = lat
            .as_array()
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        t.ops_per_s += lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3).max(1e-9);
        t.lat_ms.extend(lat);
    }
    let limit = limit_ms(&a.workload);
    t.within = t.lat_ms.iter().filter(|&&l| l <= limit).count();
    Ok(t)
}

/// Runs one replay process, tracing the operations of the given index
/// parity, and parses its report.
fn replay(a: &Args, parity: usize, blob: &[u8]) -> io::Result<Replay> {
    let parity = ("parity", parity.to_string());
    let mut w = if is_serve(&a.workload) {
        let mut w = Worker::spawn(&helper("replay", a, &[parity]))?;
        let mut stdin = w.stdin.take().expect("replay stdin is open");
        stdin.write_all(blob)?;
        drop(stdin);
        w
    } else {
        let mut w = Worker::spawn(&helper("work", a, &[("mode", "replay".into()), parity]))?;
        w.line()?;
        w
    };
    let line = w.line()?;
    if !w.finish(Duration::from_secs(10)) {
        return Err(io::Error::other("replay failed"));
    }
    Json::parse(&line)
        .ok()
        .as_ref()
        .and_then(Replay::from_json)
        .ok_or_else(|| io::Error::other("unreadable replay report"))
}

/// The benchmark run: prints the result line, returns whether every
/// output was right.
fn bench(a: &Args) -> io::Result<()> {
    let reps = if a.trace { 1 } else { setup_reps(&a.workload) };
    let mut t = if is_serve(&a.workload) {
        serve_timed(a, reps)?
    } else {
        inproc_timed(a, reps)?
    };
    t.lat_ms.sort_by(f64::total_cmp);
    let attempted = t.attempted.max(1);
    let mut correct = t.wrong == 0;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !a.trace {
        metrics = vec![
            ("setup_s".into(), measure::median(t.setup_s.clone()), "s"),
            ("ops_per_s".into(), t.ops_per_s, "1/s"),
            ("op_p50_ms".into(), measure::quantile(&t.lat_ms, 0.5), "ms"),
            ("op_p90_ms".into(), measure::quantile(&t.lat_ms, 0.9), "ms"),
            (
                "within_limit_ratio".into(),
                t.within as f64 / attempted as f64,
                "ratio",
            ),
            ("peak_rss_mb".into(), t.peak_rss_mb, "MB"),
        ];
    } else {
        // Two replay processes; each traces the operations the other
        // does not, so both sides see both processes and every operation.
        let reps = [replay(a, 0, &t.blob)?, replay(a, 1, &t.blob)?];
        correct &= reps.iter().all(|r| r.wrong == 0);
        if reps
            .iter()
            .any(|r| r.counts.get("trace.dropped").copied().unwrap_or(0.0) > 0.0)
        {
            eprintln!("perfbench: the span buffer overflowed; layer times are incomplete");
            correct = false;
        }
        let traced_ops: usize = reps.iter().map(|r| r.traced_ops).sum();
        let untraced_ops: usize = reps.iter().map(|r| r.ops - r.traced_ops).sum();
        let traced_ms = reps.iter().map(|r| r.traced_ms).sum::<f64>() / traced_ops as f64;
        let untraced_ms = reps.iter().map(|r| r.untraced_ms).sum::<f64>() / untraced_ops as f64;
        let mut layer_ms: BTreeMap<String, f64> = BTreeMap::new();
        for r in &reps {
            for (k, v) in &r.layer_ms {
                *layer_ms.entry(k.clone()).or_default() += v;
            }
        }
        for (k, v) in layer_ms.iter_mut() {
            // The set-up compile runs once per process, traced in both.
            *v /= if k == "lang.compile_ms" {
                reps.len()
            } else {
                traced_ops
            } as f64;
        }
        let layer_sum: f64 = layer_ms
            .iter()
            .filter(|(k, _)| *k != "lang.compile_ms")
            .map(|(_, v)| v)
            .sum();
        let sum_ratio = layer_sum / untraced_ms;

        let mut m: BTreeMap<String, f64> = reps[0].counts.clone();
        m.extend(layer_ms);
        m.insert(
            "error_ratio".into(),
            (t.failed + t.wrong) as f64 / attempted as f64,
        );
        if is_serve(&a.workload) {
            let p50 = measure::quantile(&t.lat_ms, 0.5);
            m.insert("client.lag_p90_ms".into(), t.lag_p90_ms);
            m.insert("serve.exec_p50_ms".into(), t.exec_p50_ms);
            m.insert("serve.wait_p50_ms".into(), p50 - t.exec_p50_ms);
        }
        m.insert("trace.overhead_ratio".into(), traced_ms / untraced_ms);
        m.insert("trace.layer_sum_ratio".into(), sum_ratio);
        if is_serve(&a.workload) && (sum_ratio - 1.0).abs() > RECONCILE_TOLERANCE {
            eprintln!(
                "perfbench: layer times sum to {sum_ratio:.3} of the untraced request time, \
                 outside ±{RECONCILE_TOLERANCE}"
            );
            correct = false;
        }
        eprintln!(
            "perfbench: replay {traced_ops} traced + {untraced_ops} untraced ops, \
             {untraced_ms:.3} ms/op untraced, {traced_ms:.3} ms/op traced, conflicts {}",
            reps[0].counts.get("ar.conflicts").copied().unwrap_or(0.0)
        );
        for (name, unit) in layers::PER_LAYER {
            metrics.push((name.to_string(), m.get(*name).copied().unwrap_or(0.0), unit));
        }
    }
    if t.wrong > 0 {
        eprintln!("perfbench: {} outputs differ from the reference", t.wrong);
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(t.attempted as i64)),
        ("failed", Json::Int((t.failed + t.wrong) as i64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Float(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })),
        ),
    ]);
    print_line(&line)?;
    if correct {
        Ok(())
    } else {
        Err(io::Error::other("an output check failed"))
    }
}
