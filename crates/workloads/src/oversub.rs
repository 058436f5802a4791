//! The oversubscribed latency / bounded-memory trial family (`experiments -- oversub`).
//!
//! Throughput is the paper's headline metric, but the *production* case for DEBRA+ is an
//! SLO argument: when threads outnumber cores and a reader gets preempted mid-operation,
//! what happens to tail latency and to the garbage in limbo?  This family answers that
//! with one table across all seven schemes and three modes per structure:
//!
//! * **off** — recording disabled, at the base thread count.  The throughput baseline.
//! * **on** — identical configuration with the sample rings enabled.  The `off`/`on`
//!   twin rows quantify the recording overhead (the harness's discipline targets ≤5%).
//! * **oversub** — recording on, `max(4 × cores, 8)` threads, plus a pinned *laggard*
//!   (an extra registered thread that holds operations open for 5 ms windows,
//!   responding to neutralization).  The paper's Figure 9 regime, forced
//!   deterministically.
//!
//! Every cell runs in its **own child process** (`OVERSUB_CELL=structure:scheme:mode`,
//! spawned automatically by the parent run, following the microbench's isolation
//! pattern): a fresh heap, empty page stores and zeroed registries per cell, so no
//! row's latency distribution or limbo watermark depends on which rows ran before it.
//! The parent folds each child's allocation-pipeline gauges with
//! [`PoolStats::merge_across_processes`] — distinct page stores sum, they do not max.
//!
//! Besides the table, the run writes `BENCH_latency.json` (override with
//! `BENCH_LATENCY_JSON`), validated in CI by `bench_schema_check`.

use std::io::Write as _;

use debra::PoolStats;
use smr_obs::LatencySummary;

use crate::experiments::{
    allocator_from_env, run_config, AllocatorKind, ReclaimerKind, StructureKind,
};
use crate::workload::{KeyDistribution, OperationMix, WorkloadConfig};

/// Environment variable naming the single cell a child process runs
/// (`structure:scheme:mode`, e.g. `HashMap:DEBRA+:oversub`).
pub const CELL_ENV: &str = "OVERSUB_CELL";
/// Environment variable with the path a child writes its one-row JSON to.
const OUT_ENV: &str = "OVERSUB_OUT";
/// Stall-window length of the pinned laggard in `oversub` mode.
const LAGGARD_STALL_MS: u64 = 5;
/// Key range / prefill budget shared by every cell (small enough that chains are
/// contended, large enough that the structures see real traversals).
const KEY_RANGE: u64 = 4_096;

/// The structures this family sweeps: one map (every operation traverses shared chains)
/// and one bag (every successful dequeue retires — the worst-case garbage regime).
pub const STRUCTURES: [StructureKind; 2] = [StructureKind::HashMap, StructureKind::Queue];

/// Recording / scheduling mode of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Recording disabled, base thread count (the overhead twin's baseline).
    Off,
    /// Recording enabled, base thread count.
    On,
    /// Recording enabled, `max(4 × cores, 8)` threads plus the pinned laggard.
    Oversub,
}

impl Mode {
    /// All three modes, in row order.
    pub const ALL: [Mode; 3] = [Mode::Off, Mode::On, Mode::Oversub];

    /// The mode's name as it appears in the table and the JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::On => "on",
            Mode::Oversub => "oversub",
        }
    }

    fn parse(s: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// Base (non-oversubscribed) worker count: the machine's cores, clamped to `2..=4` so
/// the `off`/`on` twins measure the same contention level across CI boxes.
pub fn base_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).clamp(2, 4)
}

/// Oversubscribed worker count: at least four workers per core (and never fewer than 8),
/// so the OS must multiplex and operations routinely lose their core mid-flight.
pub fn oversub_threads() -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    (cores * 4).max(8)
}

/// One row of the latency/limbo table and of `BENCH_latency.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyRow {
    /// Data structure.
    pub structure: StructureKind,
    /// Reclamation scheme.
    pub reclaimer: ReclaimerKind,
    /// Recording / scheduling mode.
    pub mode: Mode,
    /// Worker thread count (excluding the laggard).
    pub threads: usize,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Latency summary over *all* operation kinds (empty when `mode` is `off`).
    pub latency: LatencySummary,
    /// High watermark of bytes in limbo (sum of per-thread watermarks — an upper bound
    /// on the true process peak; see `ReclaimerStats::limbo_bytes_hwm`).
    pub limbo_bytes_hwm: u64,
    /// Epoch-stall observations (scheme-specific; structurally 0 for HP/ThreadScan/None).
    pub epoch_stalls: u64,
    /// Neutralization signals observed (DEBRA+ only).
    pub neutralized: u64,
    /// The cell's allocation-pipeline gauges, kept whole so the parent can fold them
    /// with [`PoolStats::merge_across_processes`].
    pub pool: PoolStats,
}

/// Runs one cell of the family in-process and returns its row.
pub fn run_cell(
    structure: StructureKind,
    reclaimer: ReclaimerKind,
    mode: Mode,
    duration_ms: u64,
) -> LatencyRow {
    let (threads, latency, laggard_stall_ms) = match mode {
        Mode::Off => (base_threads(), false, 0),
        Mode::On => (base_threads(), true, 0),
        Mode::Oversub => (oversub_threads(), true, LAGGARD_STALL_MS),
    };
    // Page pool by default: it is the memory configuration whose gauges
    // (pages_mapped / slots_live) make the cross-process fold meaningful.
    let cfg = WorkloadConfig {
        threads,
        key_range: KEY_RANGE,
        mix: OperationMix::UPDATE_HEAVY,
        distribution: KeyDistribution::Uniform,
        duration_ms,
        prefill: true,
        allocator: allocator_from_env(AllocatorKind::PagePool),
        latency,
        laggard_stall_ms,
    };
    let row = run_config(structure, reclaimer, &cfg, 0x0B5E);
    LatencyRow {
        structure,
        reclaimer,
        mode,
        threads,
        mops: row.result.throughput_mops,
        latency: row.result.latency.all,
        limbo_bytes_hwm: row.result.reclaimer.limbo_bytes_hwm,
        epoch_stalls: row.result.reclaimer.epoch_stalls,
        neutralized: row.result.reclaimer.neutralized,
        pool: row.result.pool,
    }
}

/// Serializes rows as `BENCH_latency.json` (one row object per line; hand-rolled on
/// purpose — the workspace takes no JSON dependency).
pub fn write_json(rows: &[LatencyRow], path: &str) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"latency\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"structure\": \"{}\", \"scheme\": \"{}\", \"mode\": \"{}\", \
             \"threads\": {}, \"mops\": {:.4}, \"samples\": {}, \"mean_ns\": {}, \
             \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
             \"max_ns\": {}, \"limbo_bytes_hwm\": {}, \"epoch_stalls\": {}, \
             \"neutralized\": {}, \"magazine_hits\": {}, \"magazine_misses\": {}, \
             \"pages_mapped\": {}, \"slots_live\": {}, \"slots_free\": {}}}{}\n",
            r.structure.name(),
            r.reclaimer.name(),
            r.mode.name(),
            r.threads,
            r.mops,
            r.latency.count,
            r.latency.mean_ns,
            r.latency.p50_ns,
            r.latency.p90_ns,
            r.latency.p99_ns,
            r.latency.p999_ns,
            r.latency.max_ns,
            r.limbo_bytes_hwm,
            r.epoch_stalls,
            r.neutralized,
            r.pool.magazine_hits,
            r.pool.magazine_misses,
            r.pool.pages_mapped,
            r.pool.slots_live,
            r.pool.slots_free,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

/// Parses the one-row-per-line JSON [`write_json`] produces (the parent reads each
/// child's output with this; same minimal field scan as `bench_schema_check`).
pub fn parse_json(text: &str) -> Vec<LatencyRow> {
    fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
        let tag = format!("\"{name}\": ");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        if let Some(stripped) = rest.strip_prefix('"') {
            Some(&stripped[..stripped.find('"')?])
        } else {
            let end = rest
                .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == 'e'))
                .unwrap_or(rest.len());
            Some(&rest[..end])
        }
    }
    fn num(line: &str, name: &str) -> Option<u64> {
        field(line, name)?.parse().ok()
    }
    text.lines()
        .filter(|l| l.contains("\"structure\""))
        .filter_map(|line| {
            Some(LatencyRow {
                structure: StructureKind::from_name(field(line, "structure")?)?,
                reclaimer: ReclaimerKind::from_name(field(line, "scheme")?)?,
                mode: Mode::parse(field(line, "mode")?)?,
                threads: num(line, "threads")? as usize,
                mops: field(line, "mops")?.parse().ok()?,
                latency: LatencySummary {
                    count: num(line, "samples")?,
                    mean_ns: num(line, "mean_ns")?,
                    p50_ns: num(line, "p50_ns")?,
                    p90_ns: num(line, "p90_ns")?,
                    p99_ns: num(line, "p99_ns")?,
                    p999_ns: num(line, "p999_ns")?,
                    max_ns: num(line, "max_ns")?,
                },
                limbo_bytes_hwm: num(line, "limbo_bytes_hwm")?,
                epoch_stalls: num(line, "epoch_stalls")?,
                neutralized: num(line, "neutralized")?,
                pool: PoolStats {
                    magazine_hits: num(line, "magazine_hits")?,
                    magazine_misses: num(line, "magazine_misses")?,
                    pages_mapped: num(line, "pages_mapped")?,
                    slots_live: num(line, "slots_live")?,
                    slots_free: num(line, "slots_free")?,
                },
            })
        })
        .collect()
}

/// Human-readable duration: raw ns below 1 µs, else µs / ms with a decimal.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else {
        format!("{:.2}ms", ns as f64 / 1.0e6)
    }
}

/// Prints the latency/limbo table.
pub fn print_latency_rows(title: &str, rows: &[LatencyRow]) {
    println!("\n### {title}\n");
    println!(
        "| structure | scheme     | mode    | thr | Mops/s   | samples | p50      | p90      | p99      | p999     | max      | limbo-hwm | stalls   | neutral |"
    );
    println!(
        "|-----------|------------|---------|-----|----------|---------|----------|----------|----------|----------|----------|-----------|----------|---------|"
    );
    for r in rows {
        let (p50, p90, p99, p999, max) = if r.latency.count == 0 {
            ("-".into(), "-".into(), "-".into(), "-".into(), "-".into())
        } else {
            (
                fmt_ns(r.latency.p50_ns),
                fmt_ns(r.latency.p90_ns),
                fmt_ns(r.latency.p99_ns),
                fmt_ns(r.latency.p999_ns),
                fmt_ns(r.latency.max_ns),
            )
        };
        println!(
            "| {:9} | {:10} | {:7} | {:3} | {:8.3} | {:7} | {:8} | {:8} | {:8} | {:8} | {:8} | {:8}K | {:8} | {:7} |",
            r.structure.name(),
            r.reclaimer.name(),
            r.mode.name(),
            r.threads,
            r.mops,
            r.latency.count,
            p50,
            p90,
            p99,
            p999,
            max,
            r.limbo_bytes_hwm / 1024,
            r.epoch_stalls,
            r.neutralized,
        );
    }
}

/// Prints the `off`→`on` recording-overhead twins: per (structure, scheme), the
/// throughput ratio with recording on versus off.  The harness's discipline
/// (pre-allocated rings, raw TSC reads, post-trial conversion) targets ≤5% overhead;
/// the twin rows in the JSON are the demonstration.
pub fn print_overhead_twins(rows: &[LatencyRow]) {
    println!("\nrecording overhead (throughput with recording on, relative to off):");
    let mut ratios = Vec::new();
    for r_on in rows.iter().filter(|r| r.mode == Mode::On) {
        if let Some(r_off) = rows.iter().find(|r| {
            r.mode == Mode::Off && r.structure == r_on.structure && r.reclaimer == r_on.reclaimer
        }) {
            if r_off.mops > 0.0 {
                let ratio = r_on.mops / r_off.mops;
                ratios.push(ratio);
                println!(
                    "  {:9} x {:10}: {:.3}x ({:+.1}%)",
                    r_on.structure.name(),
                    r_on.reclaimer.name(),
                    ratio,
                    (ratio - 1.0) * 100.0,
                );
            }
        }
    }
    if !ratios.is_empty() {
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let median = ratios[ratios.len() / 2];
        println!("  median: {:.3}x ({:+.1}%)", median, (median - 1.0) * 100.0);
    }
}

/// The default output path (workspace root), overridable with `BENCH_LATENCY_JSON`.
pub fn json_path() -> String {
    std::env::var("BENCH_LATENCY_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_latency.json").into())
}

/// The full cell grid, in row order.
fn cells() -> Vec<(StructureKind, ReclaimerKind, Mode)> {
    let mut v = Vec::new();
    for structure in STRUCTURES {
        for reclaimer in ReclaimerKind::ALL {
            for mode in Mode::ALL {
                v.push((structure, reclaimer, mode));
            }
        }
    }
    v
}

/// Child mode: runs the one cell named by [`CELL_ENV`] and writes its row to the file
/// named by `OVERSUB_OUT`.
fn run_child(cell: &str, duration_ms: u64) {
    let mut parts = cell.splitn(3, ':');
    let (s, r, m) = (
        parts.next().and_then(StructureKind::from_name),
        parts.next().and_then(ReclaimerKind::from_name),
        parts.next().and_then(Mode::parse),
    );
    let (Some(structure), Some(reclaimer), Some(mode)) = (s, r, m) else {
        eprintln!("bad {CELL_ENV}={cell:?} (expected structure:scheme:mode)");
        std::process::exit(2);
    };
    let row = run_cell(structure, reclaimer, mode, duration_ms);
    let out = std::env::var(OUT_ENV).expect("child needs OVERSUB_OUT");
    if let Err(e) = write_json(&[row], &out) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
}

/// Parent mode: spawn one child per cell and collect their rows; `Err` only when
/// children cannot be spawned at all (the caller then falls back in-process).
fn run_isolated(duration_ms: u64) -> std::io::Result<Vec<LatencyRow>> {
    let exe = std::env::current_exe()?;
    let mut rows = Vec::new();
    let grid = cells();
    for (i, (structure, reclaimer, mode)) in grid.iter().enumerate() {
        let cell = format!("{}:{}:{}", structure.name(), reclaimer.name(), mode.name());
        let tmp =
            std::env::temp_dir().join(format!("oversub_cell_{}_{}.json", std::process::id(), i));
        eprintln!("--- oversub cell {}/{}: {cell} (fresh process) ---", i + 1, grid.len());
        let status = std::process::Command::new(&exe)
            .arg("oversub")
            .env(CELL_ENV, &cell)
            .env(OUT_ENV, &tmp)
            .env("DURATION_MS", duration_ms.to_string())
            .status()?;
        if !status.success() {
            eprintln!("oversub cell {cell} failed ({status}); aborting");
            let _ = std::fs::remove_file(&tmp);
            std::process::exit(1);
        }
        let text = std::fs::read_to_string(&tmp)?;
        let _ = std::fs::remove_file(&tmp);
        rows.extend(parse_json(&text));
    }
    Ok(rows)
}

/// Entry point for `experiments -- oversub`: dispatches child cells, runs the family,
/// prints the table + overhead twins + cross-process pool fold, writes the JSON.
pub fn run_oversub(duration_ms: u64) {
    if let Ok(cell) = std::env::var(CELL_ENV) {
        run_child(&cell, duration_ms);
        return;
    }
    let rows = run_isolated(duration_ms).unwrap_or_else(|e| {
        eprintln!("child-process isolation unavailable ({e}); running in-process");
        cells().into_iter().map(|(s, r, m)| run_cell(s, r, m, duration_ms)).collect()
    });
    print_latency_rows(
        &format!(
            "Oversubscribed latency + bounded-memory family ({} base / {} oversub threads + laggard)",
            base_threads(),
            oversub_threads()
        ),
        &rows,
    );
    print_overhead_twins(&rows);
    // Each cell ran in its own process with its own page store, so the gauges sum.
    let mut pool = PoolStats::default();
    for r in &rows {
        pool.merge_across_processes(&r.pool);
    }
    println!(
        "\nallocation pipeline across all {} cells (summed across processes): \
         {} pages mapped, {} slots live, {} slots free, {:.1}% magazine hit rate",
        rows.len(),
        pool.pages_mapped,
        pool.slots_live,
        pool.slots_free,
        pool.hit_rate_pct(),
    );
    let path = json_path();
    match write_json(&rows, &path) {
        Ok(()) => println!("\nwrote {path} ({} rows)", rows.len()),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_through_the_parser() {
        let rows = vec![
            LatencyRow {
                structure: StructureKind::HashMap,
                reclaimer: ReclaimerKind::DebraPlus,
                mode: Mode::Oversub,
                threads: 16,
                mops: 1.5,
                latency: LatencySummary {
                    count: 4096,
                    mean_ns: 812,
                    p50_ns: 400,
                    p90_ns: 900,
                    p99_ns: 12_000,
                    p999_ns: 5_000_000,
                    max_ns: 9_000_000,
                },
                limbo_bytes_hwm: 123_456,
                epoch_stalls: 7,
                neutralized: 3,
                pool: PoolStats {
                    magazine_hits: 10,
                    magazine_misses: 2,
                    pages_mapped: 4,
                    slots_live: 100,
                    slots_free: 28,
                },
            },
            LatencyRow {
                structure: StructureKind::Queue,
                reclaimer: ReclaimerKind::None,
                mode: Mode::Off,
                threads: 2,
                mops: 9.25,
                latency: LatencySummary::default(),
                limbo_bytes_hwm: 0,
                epoch_stalls: 0,
                neutralized: 0,
                pool: PoolStats::default(),
            },
        ];
        let tmp =
            std::env::temp_dir().join(format!("oversub_roundtrip_{}.json", std::process::id()));
        write_json(&rows, tmp.to_str().expect("utf-8 temp path")).expect("write");
        let text = std::fs::read_to_string(&tmp).expect("read");
        let _ = std::fs::remove_file(&tmp);
        let parsed = parse_json(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].reclaimer, ReclaimerKind::DebraPlus);
        assert_eq!(parsed[0].latency.p999_ns, 5_000_000);
        assert_eq!(parsed[0].pool.slots_free, 28);
        assert_eq!(parsed[1].mode, Mode::Off);
        assert!((parsed[1].mops - 9.25).abs() < 1e-9);
    }

    #[test]
    fn cell_grid_covers_every_structure_scheme_mode() {
        let grid = cells();
        assert_eq!(grid.len(), 2 * 8 * 3);
        // Every scheme name parses back (including the `+` in DEBRA+).
        for (s, r, m) in &grid {
            let spec = format!("{}:{}:{}", s.name(), r.name(), m.name());
            let mut parts = spec.splitn(3, ':');
            assert_eq!(parts.next().and_then(StructureKind::from_name), Some(*s));
            assert_eq!(parts.next().and_then(ReclaimerKind::from_name), Some(*r));
            assert_eq!(parts.next().and_then(Mode::parse), Some(*m));
        }
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(812), "812ns");
        assert_eq!(fmt_ns(45_300), "45.3us");
        assert_eq!(fmt_ns(9_000_000), "9.00ms");
    }

    #[test]
    fn thread_counts_satisfy_the_oversubscription_contract() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        assert!(oversub_threads() >= cores * 4, "oversub must be >= 4x cores");
        assert!(oversub_threads() >= 8);
        assert!((2..=4).contains(&base_threads()));
    }
}
