//! The perf ledger: one single-process live-cluster benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfledger/Cargo.toml -- \
//!     --workload <ycsb-tcp|ticket-channel|mixed-open|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, half the seconds each, and reports
//! the per-layer metrics. Every cluster is quiesced and its output checked
//! before any number is printed. The last line of standard output is one
//! JSON object; see `perfledger/README.md` for the metrics.

mod alloc;
mod check;
mod cluster;
mod layers;
mod open_loop;
mod stats;
mod trace;
mod workload;

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cluster::{Harvest, Live, Window};
use stats::{quantile, ratio};
use workload::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage: perfledger --workload <ycsb-tcp|ticket-channel|mixed-open|all> --seed <n> --seconds <s> --trace <0|1>";

/// Warm-up before every measured window: connections, caches and pools
/// settle, and the ticket store is already growing when timing starts.
const WARMUP: Duration = Duration::from_secs(1);

/// Cluster set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Length of the slices a window is split into for its medians.
const SLICE_SECS: f64 = 0.05;

/// Slices before a slice whose steal counts against it: its transactions
/// were submitted up to this long before they were decided.
const LOOKBACK: usize = 4;

/// Share of a closed loop's slices that count: those with the least steal.
const CALM_SHARE: f64 = 0.1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && Workload::by_name(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Shown beside the value in the human-readable lines only.
    note: String,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            note: String::new(),
        }
    }

    fn noted(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The result of one workload's run.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Reported in the JSON line.
    metrics: Vec<Metric>,
    /// Printed in the human-readable lines only.
    extra: Vec<Metric>,
}

/// What one measured window saw, beyond the completion samples.
pub struct Phase {
    /// Window length in seconds.
    pub secs: f64,
    /// `(busy_us, idle_us, drives, parks)` of the reactor over the window.
    pub reactor: (u64, u64, u64, u64),
    /// Work steals over the window.
    pub steals: u64,
    /// `(flushes, bytes)` written to sockets over the window.
    pub io: (u64, u64),
    /// Allocations over the window (counted in traced windows only).
    pub allocs: u64,
    /// CPU seconds this process used over the window.
    pub cpu_s: f64,
    /// Per slice of the window: `(all, stolen)` CPU ticks of the VM.
    pub ticks: Vec<(u64, u64)>,
    /// Most submits owed a reply at any poll of the window.
    pub outstanding_max: u64,
    /// Peak RSS in MiB once the workload's fixed commit count was reached.
    pub peak_rss_mb: Option<f64>,
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `(all, stolen)` CPU ticks of the whole VM so far, from `/proc/stat`.
fn host_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    // cpu user nice system idle iowait irq softirq steal [guest guest_nice]
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .take(8)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .filter(|t: &Vec<u64>| t.len() == 8)
        .ok_or("malformed /proc/stat")?;
    Ok((ticks.iter().sum(), ticks[7]))
}

/// CPU time (user + system) this process has used, in seconds.
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks (USER_HZ = 100).
    let rest = stat
        .rsplit_once(")")
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or("malformed /proc/self/stat")
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

fn sub4(a: (u64, u64, u64, u64), b: (u64, u64, u64, u64)) -> (u64, u64, u64, u64) {
    (a.0 - b.0, a.1 - b.1, a.2 - b.2, a.3 - b.3)
}

/// Warm up, then measure `secs` seconds of completions. With `rss_at`,
/// read peak RSS when that many transactions have committed since the
/// cluster started, running past the window if it takes longer.
fn measure(live: &mut Live, secs: f64, rss_at: Option<u64>, traced: bool) -> Result<Phase, String> {
    let mut rss = None;
    let poll = |live: &mut Live, rss: &mut Option<f64>| -> Result<(), String> {
        live.recorder.drain();
        match rss_at {
            Some(n) if rss.is_none() && live.recorder.committed >= n => *rss = Some(peak_rss_mb()?),
            _ => {}
        }
        Ok(())
    };
    let warm_end = Instant::now() + WARMUP;
    while Instant::now() < warm_end {
        std::thread::sleep(Duration::from_millis(10));
        poll(live, &mut rss)?;
    }
    if traced {
        live.armed.store(true, std::sync::atomic::Ordering::Relaxed);
        alloc::set_counting(true);
    }
    let cpu0 = cpu_seconds()?;
    let (reactor0, steals0, io0, alloc0) = (
        live.reactor.worker_stats(),
        live.reactor.steals(),
        live.io_stats(),
        alloc::count(),
    );
    let start_us = live.clock.now().as_micros();
    let end_us = start_us + (secs * 1e6) as u64;
    let slices = ((secs / SLICE_SECS).round() as usize).max(1);
    live.recorder.window = Some(Window {
        start_us,
        end_us,
        slices: vec![Vec::new(); slices],
        ..Window::default()
    });
    let mut outstanding_max = 0;
    let mut marks = vec![host_ticks()?];
    loop {
        let now = live.clock.now().as_micros();
        while marks.len() <= slices
            && now >= start_us + (end_us - start_us) * marks.len() as u64 / slices as u64
        {
            marks.push(host_ticks()?);
        }
        if now >= end_us {
            break;
        }
        std::thread::sleep(Duration::from_micros((end_us - now).min(10_000)));
        poll(live, &mut rss)?;
        outstanding_max =
            outstanding_max.max(live.gate.forwarded().saturating_sub(live.recorder.total));
    }
    if traced {
        live.armed
            .store(false, std::sync::atomic::Ordering::Relaxed);
        alloc::set_counting(false);
    }
    let phase = Phase {
        secs,
        reactor: sub4(live.reactor.worker_stats(), reactor0),
        steals: live.reactor.steals() - steals0,
        io: {
            let io = live.io_stats();
            (io.0 - io0.0, io.1 - io0.1)
        },
        allocs: alloc::count() - alloc0,
        cpu_s: cpu_seconds()? - cpu0,
        outstanding_max,
        peak_rss_mb: None,
        ticks: marks
            .windows(2)
            .map(|m| (m[1].0 - m[0].0, m[1].1 - m[0].1))
            .collect(),
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while rss_at.is_some() && rss.is_none() {
        if Instant::now() > deadline {
            return Err("the fixed commit count for peak_rss_mb was never reached".into());
        }
        std::thread::sleep(Duration::from_millis(5));
        poll(live, &mut rss)?;
    }
    Ok(Phase {
        peak_rss_mb: rss,
        ..phase
    })
}

/// Window samples of a harvest (every measured cluster has a window).
fn window(h: &Harvest) -> &Window {
    h.window.as_ref().expect("a measured cluster has a window")
}

/// Throughput, p50 and p99 latency (µs) of a window, with a note on how
/// they were taken.
///
/// The closed loops saturate the CPU of a shared host, so they are read
/// from `SLICE_SECS` slices of the window:
///
/// - a slice is ranked by the share of the VM's CPU time the hypervisor
///   stole over it and the `LOOKBACK` slices before it, when the
///   transactions decided in it were in flight. Only the `CALM_SHARE` of
///   the slices with the least steal counts, ties included, so every slice
///   counts when nothing was stolen. Steal is the host's noise, and a
///   regression in the program does not pick the slices the host disturbs.
///   A descheduled vCPU stalls every transaction in flight, which adds to
///   latency rather than scaling it, so only slices with a calm history
///   give a steady tail;
/// - each counted slice is timed on the CPU time the VM actually had: its
///   length is scaled by the share that was not stolen. Throughput scales
///   with that share and, by Little's law, latency with its inverse;
/// - each figure is the median over the counted slices.
///
/// The open loop runs below capacity at a fixed rate, so it is read from
/// the whole window on the wall clock.
fn summarize(w: &Workload, win: &Window, phase: &Phase) -> (f64, f64, f64, String) {
    if w.is_open() {
        let mut lat = win.latency_us.clone();
        return (
            win.committed as f64 / phase.secs,
            quantile(&mut lat, 0.50),
            quantile(&mut lat, 0.99),
            format!(
                "whole window; {} commits in {} s",
                win.committed, phase.secs
            ),
        );
    }
    let n = win.slices.len();
    let width = phase.secs / n as f64;
    let ticks = |i: usize| phase.ticks.get(i).copied().unwrap_or((0, 0));
    let stolen = |(all, stolen): (u64, u64)| ratio(stolen as f64, all as f64);
    // The first slices have no full history inside the window.
    let first = if n > LOOKBACK { LOOKBACK } else { 0 };
    let history = |i: usize| {
        stolen(
            (i.saturating_sub(LOOKBACK)..=i)
                .map(ticks)
                .fold((0, 0), |a, t| (a.0 + t.0, a.1 + t.1)),
        )
    };
    let mut ranked: Vec<f64> = (first..n).map(history).collect();
    ranked.sort_by(f64::total_cmp);
    let count = (((n - first) as f64 * CALM_SHARE).ceil() as usize).max(1);
    let cut = ranked[count - 1];
    let calm: Vec<usize> = (first..n).filter(|&i| history(i) <= cut).collect();
    let (mut tps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for &i in &calm {
        let share = 1.0 - stolen(ticks(i));
        let share = if share > 0.0 { share } else { 1.0 };
        let mut lat = win.slices[i].clone();
        tps.push((lat.len() as f64 / (width * share) * 1e3) as u64);
        p50.push((quantile(&mut lat, 0.50) * share * 1e3) as u64);
        p99.push((quantile(&mut lat, 0.99) * share * 1e3) as u64);
        (lo, hi) = (lo.min(share), hi.max(share));
    }
    (
        quantile(&mut tps, 0.5) / 1e3,
        quantile(&mut p50, 0.5) / 1e3,
        quantile(&mut p99, 0.5) / 1e3,
        format!(
            "median of the {} of {n} slices with the least steal over them and the {} s before (steal {:.3}..{:.3} there; non-stolen share {:.2}..{:.2} in the slices); {} commits in {} s",
            calm.len(),
            LOOKBACK as f64 * width,
            ranked[0],
            cut,
            lo,
            hi,
            win.committed,
            phase.secs
        ),
    )
}

/// `--trace 0`: measure one cluster, then set up `SETUPS - 1` more.
fn run_untraced(w: &'static Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    // The measured cluster is the first, so its peak RSS is not inflated by
    // allocator arenas left over from earlier set-ups.
    // Host CPU ticks `(all, stolen)` spent inside set-ups.
    let mut setup_ticks = (0, 0);
    let mut set_up = |setups: &mut Vec<u64>| -> Result<Live, String> {
        let before = host_ticks()?;
        let (live, took) = Live::start(w, seed, false)?;
        let after = host_ticks()?;
        setup_ticks.0 += after.0 - before.0;
        setup_ticks.1 += after.1 - before.1;
        setups.push(took.as_nanos() as u64);
        Ok(live)
    };
    let mut setups = Vec::new();
    let mut live = set_up(&mut setups)?;
    let phase = measure(&mut live, seconds as f64, Some(w.rss_at_commits), false)?;
    let harvest = live.stop()?;
    for _ in 1..SETUPS {
        set_up(&mut setups)?.stop()?;
    }
    {
        let win = window(&harvest);
        let attempted = win.committed + win.failed;
        let n = win.latency_us.len();
        let (tps, p50, p99, how) = summarize(w, win, &phase);
        // Set-ups are timed on non-stolen CPU time, like the closed loops'
        // slices; one set-up is too short for its own steal reading, so
        // the share is taken over all of them.
        let share = 1.0 - ratio(setup_ticks.1 as f64, setup_ticks.0 as f64);
        let share = if share > 0.0 { share } else { 1.0 };
        let setup_s = quantile(&mut setups, 0.5) / 1e9 * share;
        let setup_range = format!(
            "median of {SETUPS} set-ups ({:.4}..{:.4} s on the wall clock) x non-stolen share {share:.3}",
            setups[0] as f64 / 1e9,
            setups[SETUPS - 1] as f64 / 1e9
        );
        let metrics = vec![
            Metric::new("commit_tps", tps, "1/s").noted(how),
            Metric::new("latency_p50_ms", p50 / 1e3, "ms").noted(format!("n={n}")),
            Metric::new("latency_p99_ms", p99 / 1e3, "ms").noted(format!("n={n}")),
            Metric::new(
                "commit_frac",
                ratio(win.committed as f64, attempted as f64),
                "fraction",
            )
            .noted(format!(
                "failed_frac={}",
                ratio(win.failed as f64, attempted as f64)
            )),
            Metric::new("setup_s", setup_s, "s").noted(setup_range),
            Metric::new("peak_rss_mb", phase.peak_rss_mb.unwrap_or(0.0), "MiB")
                .noted(format!("at {} commits", w.rss_at_commits)),
        ];
        let extra = vec![
            Metric::new(
                "failed_frac",
                ratio(win.failed as f64, attempted as f64),
                "fraction",
            ),
            Metric::new("shed", harvest.shed as f64, "count"),
            Metric::new(
                "cpu_us_per_txn",
                phase.cpu_s * 1e6 / win.committed as f64,
                "us",
            ),
            Metric::new("wall_tps", win.committed as f64 / phase.secs, "1/s"),
        ];
        Ok(Outcome {
            attempted,
            failed: win.failed,
            metrics,
            extra,
        })
    }
}

/// `--trace 1`: an untraced and a traced cluster, half the seconds each.
fn run_traced(w: &'static Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let half = seconds as f64 / 2.0;
    let (mut plain, _) = Live::start(w, seed, false)?;
    let plain_phase = measure(&mut plain, half, None, false)?;
    let plain = plain.stop()?;
    let (mut live, _) = Live::start(w, seed, true)?;
    let phase = measure(&mut live, half, None, true)?;
    let tracer = live.tracer.clone().expect("a traced cluster has a tracer");
    let config = live.config.clone();
    let traced = live.stop()?;
    let (a, b) = (window(&plain), window(&traced));
    let tps = (summarize(w, a, &plain_phase).0, summarize(w, b, &phase).0);
    let (metrics, extra) = layers::metrics(w, &config, &phase, &traced, &tracer, tps);
    Ok(Outcome {
        attempted: a.committed + a.failed + b.committed + b.failed,
        failed: a.failed + b.failed,
        metrics,
        extra,
    })
}

/// The git revision, or a fingerprint of the sources when the checkout is
/// not a git repository.
fn revision(root: &std::path::Path) -> String {
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    let mut dirs = vec![root.join("crates"), root.join("perfledger")];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() && name != "target" {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&file).unwrap_or_default();
        for byte in rel.bytes().chain(body) {
            hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{hash:016x}")
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfledger: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = check::self_test() {
        eprintln!("perfledger: output-check self-test failed: {e}");
        std::process::exit(1);
    }
    let chosen: Vec<&'static Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![Workload::by_name(&args.workload).expect("validated workload name")]
    };
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    let mut results = Vec::new();
    for w in chosen {
        let run = if args.trace {
            run_traced(w, args.seed, args.seconds)
        } else {
            run_untraced(w, args.seed, args.seconds)
        };
        let outcome = match run {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfledger: {}: run failed: {e}", w.name);
                std::process::exit(1);
            }
        };
        for m in outcome.metrics.iter().chain(&outcome.extra) {
            println!(
                "{:<16} {:<40} {:>16.6} {:<8} {}",
                w.name, m.name, m.value, m.unit, m.note
            );
        }
        results.push((w, outcome));
    }
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (rustc, rev) = (rustc_version(), revision(&root));
    for (w, _) in &results {
        println!(
            "provenance {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"rev\": {}, \"params\": {}}}",
            json_str(w.name),
            args.seed,
            args.seconds,
            args.trace as u8,
            json_str(&rustc),
            json_str(&rev),
            w.params_json()
        );
    }
    let prefix = results.len() > 1;
    let mut fields = Vec::new();
    for (w, outcome) in &results {
        for m in &outcome.metrics {
            let name = if prefix {
                format!("{}.{}", w.name, m.name)
            } else {
                m.name.clone()
            };
            fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&name),
                m.value,
                json_str(m.unit)
            ));
        }
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().map(|(_, o)| o.attempted).sum::<u64>(),
        results.iter().map(|(_, o)| o.failed).sum::<u64>(),
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closed-loop window of one second: slice `i` holds 100 commits of
    /// `lat(i)` µs and the VM's `(all, stolen)` ticks `ticks(i)`.
    fn summarize_closed(
        lat: impl Fn(usize) -> u64,
        ticks: impl Fn(usize) -> (u64, u64),
    ) -> (f64, f64, f64) {
        let n = (1.0 / SLICE_SECS).round() as usize;
        let win = Window {
            slices: (0..n).map(|i| vec![lat(i); 100]).collect(),
            ..Window::default()
        };
        let phase = Phase {
            secs: 1.0,
            reactor: (0, 0, 0, 0),
            steals: 0,
            io: (0, 0),
            allocs: 0,
            cpu_s: 0.0,
            ticks: (0..n).map(ticks).collect(),
            outstanding_max: 0,
            peak_rss_mb: None,
        };
        let w = Workload::by_name("ycsb-tcp").expect("a closed-loop workload");
        let (tps, p50, p99, _) = summarize(w, &win, &phase);
        (tps, p50, p99)
    }

    #[test]
    fn closed_loops_count_only_slices_with_a_calm_history() {
        // Steal from slice 10 on, and in slice 2: slices 4..=6 still have
        // slice 2 in their history, so only 7..=9 count.
        let stolen = |i: usize| i == 2 || i >= 10;
        let (tps, p50, p99) = summarize_closed(
            |i| if (7..10).contains(&i) { 1000 } else { 9000 },
            |i| (10, if stolen(i) { 5 } else { 0 }),
        );
        assert_eq!((p50, p99), (1000.0, 1000.0));
        assert_eq!(tps, 100.0 / SLICE_SECS);
    }

    #[test]
    fn counted_slices_are_timed_on_the_cpu_the_vm_had() {
        // Every slice lost a fifth of its CPU time: all tie, all count.
        let (tps, p50, _) = summarize_closed(|_| 1000, |_| (10, 2));
        assert!((p50 - 800.0).abs() < 1e-6, "p50 {p50}");
        assert!((tps - 100.0 / (SLICE_SECS * 0.8)).abs() < 1.0, "tps {tps}");
    }
}
