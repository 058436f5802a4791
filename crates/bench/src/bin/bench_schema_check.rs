//! Schema check for `BENCH_reclaimer.json` and `BENCH_latency.json` (CI gate, **not** a
//! performance gate).
//!
//! Verifies that the file produced by the `reclaimer_microbench` bench target contains
//! every expected (scheme × operation) row: the primitive costs per scheme, the retire
//! rows for the bag-based schemes, and the whole-structure hash-map rows for both key
//! distributions.  Numbers are not judged — only presence and well-formedness — so a
//! refactor that silently drops a scheme or a structure from the benchmark matrix fails
//! CI, while an honest perf regression does not.
//!
//! When a second path is given, it is checked as the latency family's output
//! (`experiments -- oversub`): every (structure × scheme × mode) cell must be present,
//! rows with recording off must carry zero samples, rows with recording on must carry
//! samples with ordered quantiles (p50 ≤ p90 ≤ p99 ≤ p999 ≤ max).  The on/off overhead
//! twins are *printed*, not enforced — recording overhead depends on the machine, and a
//! CI gate on it would flake.
//!
//! ```text
//! cargo run --release -p smr-bench --bin bench_schema_check \
//!     [path/to/BENCH_reclaimer.json] [path/to/BENCH_latency.json]
//! ```
//!
//! Exit code 0 if the schemas are complete, 1 otherwise.  The parser is deliberately a
//! minimal hand-rolled scan (the workspace has no JSON dependency, see `shims/README.md`).

use smr_workloads::oversub::{Mode, STRUCTURES};
use smr_workloads::ReclaimerKind;

/// (scheme, op) pairs the JSON must contain.
fn expected_rows() -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for scheme in ReclaimerKind::ALL.map(|k| k.name()) {
        rows.push((scheme.to_string(), "op_boundary".to_string()));
        rows.push((scheme.to_string(), "protect".to_string()));
        rows.push((scheme.to_string(), "hashmap_uniform".to_string()));
        rows.push((scheme.to_string(), "hashmap_zipf".to_string()));
        // The guard-layer overhead pair (safe Domain/Guard/Shield API vs the raw Record
        // Manager list embedded in the benchmark), plus the skip list's and the BST's
        // absolute safe-API rows.
        rows.push((scheme.to_string(), "list_raw".to_string()));
        rows.push((scheme.to_string(), "list_guard".to_string()));
        rows.push((scheme.to_string(), "skiplist_guard".to_string()));
        rows.push((scheme.to_string(), "bst_guard".to_string()));
        // The bag-shaped structures (smr-queue): alternating push/pop per scheme.
        rows.push((scheme.to_string(), "queue_guard".to_string()));
        rows.push((scheme.to_string(), "stack_guard".to_string()));
        // The allocation-pipeline comparison: the same list/bag workloads composed with
        // the type-stable page-pool allocator (smr-pagepool) instead of malloc.
        rows.push((scheme.to_string(), "list_guard_pagepool".to_string()));
        rows.push((scheme.to_string(), "queue_guard_pagepool".to_string()));
        rows.push((scheme.to_string(), "stack_guard_pagepool".to_string()));
    }
    for scheme in ["DEBRA", "EBR", "IBR", "VBR"] {
        rows.push((scheme.to_string(), "retire".to_string()));
    }
    // The read-heavy (90/5/5) comparison family: the announcement-free-read claim,
    // measured as EBR-vs-VBR (plus the guard-vs-raw list twins) under uniform and
    // Zipf 0.99 keys, every row over the page pool so the allocator cancels out.
    for scheme in ["EBR", "VBR"] {
        for op in [
            "list_raw_readheavy_uniform",
            "list_readheavy_uniform",
            "hashmap_readheavy_uniform",
            "list_raw_readheavy_zipf",
            "list_readheavy_zipf",
            "hashmap_readheavy_zipf",
        ] {
            rows.push((scheme.to_string(), op.to_string()));
        }
    }
    rows
}

/// Extracts the string value of `"field": "value"` from one JSON object line.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// Extracts the numeric value of `"field": 12.5` from one JSON object line.
fn number(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .map(|i| i + start)
        .unwrap_or(line.len());
    line[start..end].parse().ok()
}

/// Checks `BENCH_reclaimer.json`; returns the number of problems found.
fn check_reclaimer(path: &str) -> usize {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_schema_check: cannot read {path}: {e}");
            return 1;
        }
    };

    let mut present = Vec::new();
    let mut malformed = 0usize;
    for line in text.lines().filter(|l| l.contains("\"name\"")) {
        let (Some(scheme), Some(op)) = (field(line, "scheme"), field(line, "op")) else {
            eprintln!("bench_schema_check: malformed row: {}", line.trim());
            malformed += 1;
            continue;
        };
        match number(line, "ns_per_iter") {
            Some(ns) if ns.is_finite() && ns >= 0.0 => {}
            _ => {
                eprintln!("bench_schema_check: bad ns_per_iter in row: {}", line.trim());
                malformed += 1;
                continue;
            }
        }
        present.push((scheme.to_string(), op.to_string()));
    }

    let missing: Vec<(String, String)> =
        expected_rows().into_iter().filter(|row| !present.contains(row)).collect();

    if !missing.is_empty() {
        eprintln!("bench_schema_check: {path} is missing {} expected row(s):", missing.len());
        for (scheme, op) in &missing {
            eprintln!("  - {scheme}/{op}");
        }
    }
    if malformed == 0 && missing.is_empty() {
        println!(
            "bench_schema_check: {path} OK ({} rows, all {} expected scheme x op cells present)",
            present.len(),
            expected_rows().len()
        );
    }
    malformed + missing.len()
}

/// Checks `BENCH_latency.json` (the oversubscribed latency family); returns the number
/// of problems found.
fn check_latency(path: &str) -> usize {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_schema_check: cannot read {path}: {e}");
            return 1;
        }
    };

    let mut problems = 0usize;
    // (structure, scheme, mode) -> mops, for the printed (not enforced) overhead twins.
    let mut present: Vec<(String, String, String, f64)> = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"structure\"")) {
        let (Some(structure), Some(scheme), Some(mode)) =
            (field(line, "structure"), field(line, "scheme"), field(line, "mode"))
        else {
            eprintln!("bench_schema_check: malformed latency row: {}", line.trim());
            problems += 1;
            continue;
        };
        let Some(samples) = number(line, "samples") else {
            eprintln!("bench_schema_check: latency row without samples: {}", line.trim());
            problems += 1;
            continue;
        };
        if mode == "off" {
            if samples != 0.0 {
                eprintln!(
                    "bench_schema_check: {structure}/{scheme}/off claims {samples} samples \
                     with recording disabled"
                );
                problems += 1;
            }
        } else {
            // Recording was on: the row must carry samples with ordered quantiles.
            let q: Vec<f64> = ["p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns"]
                .iter()
                .filter_map(|name| number(line, name))
                .collect();
            if samples <= 0.0 || q.len() != 5 {
                eprintln!(
                    "bench_schema_check: {structure}/{scheme}/{mode} has no usable \
                     latency sample (samples={samples}, quantiles={})",
                    q.len()
                );
                problems += 1;
            } else if q.windows(2).any(|w| w[0] > w[1]) {
                eprintln!(
                    "bench_schema_check: {structure}/{scheme}/{mode} quantiles out of \
                     order: {q:?}"
                );
                problems += 1;
            }
        }
        let mops = number(line, "mops").unwrap_or(0.0);
        present.push((structure.to_string(), scheme.to_string(), mode.to_string(), mops));
    }

    let structures = STRUCTURES.map(|s| s.name());
    let schemes = ReclaimerKind::ALL.map(|k| k.name());
    let modes = Mode::ALL.map(|m| m.name());
    let mut missing = 0usize;
    for structure in structures {
        for scheme in schemes {
            for mode in modes {
                if !present
                    .iter()
                    .any(|(st, sc, m, _)| st == structure && sc == scheme && m == mode)
                {
                    eprintln!(
                        "bench_schema_check: {path} missing cell {structure}/{scheme}/{mode}"
                    );
                    missing += 1;
                }
            }
        }
    }

    // Informational: the recording-overhead twins (on vs off throughput).  Printed so a
    // human or the CI log can eyeball the overhead claim; never a gate.
    let lookup = |structure: &str, scheme: &str, mode: &str| {
        present
            .iter()
            .find(|(st, sc, m, _)| st == structure && sc == scheme && m == mode)
            .map(|&(_, _, _, mops)| mops)
    };
    for structure in structures {
        for scheme in schemes {
            if let (Some(off), Some(on)) =
                (lookup(structure, scheme, "off"), lookup(structure, scheme, "on"))
            {
                if off > 0.0 {
                    println!("  overhead twin {structure:7} x {scheme:10}: {:.3}x", on / off);
                }
            }
        }
    }

    if problems == 0 && missing == 0 {
        let cells = structures.len() * schemes.len() * modes.len();
        println!(
            "bench_schema_check: {path} OK ({} rows, all {cells} structure x scheme x mode \
             cells present)",
            present.len()
        );
    }
    problems + missing
}

fn main() {
    let reclaimer_path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_reclaimer.json".to_string());
    let latency_path = std::env::args().nth(2);

    let mut problems = check_reclaimer(&reclaimer_path);
    if let Some(path) = latency_path {
        problems += check_latency(&path);
    }
    if problems > 0 {
        std::process::exit(1);
    }
}
