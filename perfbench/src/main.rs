//! The benchmark's worker binary.  `run.py` starts one process per cell and reads the
//! JSON object this binary prints as its last line.
//!
//! ```text
//! perfbench cell  --workload W --scheme S --memory M --seed N --threads T --millis MS
//!                 [--traced] [--byte-cap BYTES] [--trace-out CSV] [--samples-out BIN]
//! perfbench probe --scheme S --threads T --millis MS [--trace-out CSV]
//! perfbench p95 BIN...
//! ```
//!
//! `--samples-out` writes a cell's sampled latencies as little-endian `u32` nanoseconds;
//! `p95` pools such files (one per round of a scheme) and reports their joint p95.

mod cell;
mod gen;
mod probe;
mod stats;
mod trace;
mod verify;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use cell::{CellCfg, Memory, Scheme, Workload};

/// `--flag value` pairs and bare `--flag`s.
struct Args(HashMap<String, Option<String>>);

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let key = a.strip_prefix("--").ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            map.insert(key.to_string(), value);
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        match self.0.get(key) {
            Some(Some(v)) => Ok(v),
            _ => Err(format!("missing --{key}")),
        }
    }

    fn num(&self, key: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.0.get(key), default) {
            (Some(Some(v)), _) => v.parse().map_err(|_| format!("--{key}: not a number: {v}")),
            (None, Some(d)) => Ok(d),
            _ => Err(format!("missing --{key}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn scheme(&self) -> Result<Scheme, String> {
        let s = self.get("scheme")?;
        Scheme::parse(s).ok_or_else(|| format!("unknown scheme {s}"))
    }

    fn trace_out(&self) -> Option<PathBuf> {
        self.get("trace-out").ok().map(PathBuf::from)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

fn run_cell(args: &Args) -> Result<String, String> {
    let workload = args.get("workload")?;
    let memory = args.get("memory")?;
    let cfg = CellCfg {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        scheme: args.scheme()?,
        memory: Memory::parse(memory).ok_or_else(|| format!("unknown memory {memory}"))?,
        seed: args.num("seed", None)?,
        threads: args.num("threads", None)?.max(1) as usize,
        millis: args.num("millis", None)?,
        traced: args.flag("traced"),
        byte_cap: args.num("byte-cap", Some(u64::MAX))?,
    };
    let out = cell::run(&cfg);
    if let Some(path) = args.trace_out() {
        trace::write_csv(&path, &out.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let r = &out.reclaim;
    if let Ok(path) = args.get("samples-out") {
        let bytes: Vec<u8> = out.latency.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(format!(
        concat!(
            "{{\"attempted\":{},\"timed_ops\":{},\"correct\":{},\"error\":{},",
            "\"setup_s\":{},\"mops\":{},\"retired\":{},\"reclaimed\":{},\"epochs\":{},",
            "\"signals\":{},\"neutralized\":{},\"stalls\":{},\"limbo_hwm_bytes\":{},",
            "\"limbo_mean_bytes\":{},\"pool_hits\":{},\"pool_misses\":{},",
            "\"pages_mapped\":{},\"op_p50_ns\":{},\"update_p50_ns\":{}}}"
        ),
        out.attempted,
        out.timed_ops,
        out.verdict.is_ok(),
        out.verdict.as_ref().err().map_or("null".to_string(), |e| json_str(e)),
        out.setup_s,
        out.mops,
        r.retired,
        r.reclaimed,
        r.epochs_advanced,
        r.signals_sent,
        r.neutralized,
        r.epoch_stalls,
        r.limbo_bytes_hwm,
        out.limbo_mean_bytes,
        out.pool.magazine_hits,
        out.pool.magazine_misses,
        out.pool.pages_mapped,
        json_num(out.op_p50_ns.map(|v| v as f64)),
        json_num(out.update_p50_ns.map(|v| v as f64)),
    ))
}

fn run_probe(args: &Args) -> Result<String, String> {
    let out = probe::run(
        args.scheme()?,
        args.num("threads", None)?.max(1) as usize,
        args.num("millis", None)?,
    );
    if let Some(path) = args.trace_out() {
        trace::write_csv(&path, &out.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let fields: Vec<String> = out
        .ns_per_call
        .iter()
        .map(|(name, ns)| format!("{}:{}", json_str(name), json_num(Some(*ns))))
        .collect();
    Ok(format!("{{\"ns_per_call\":{{{}}}}}", fields.join(",")))
}

fn run_p95(paths: &[String]) -> Result<String, String> {
    let mut all = Vec::new();
    for path in paths {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        if bytes.len() % 4 != 0 {
            return Err(format!("{path}: not a whole number of u32 samples"));
        }
        all.extend(bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])));
    }
    all.sort_unstable();
    let p95 = stats::percentile(&all, 0.95).map(f64::from);
    Ok(format!("{{\"p95_ns\":{},\"samples\":{}}}", json_num(p95), all.len()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) if cmd == "p95" => run_p95(rest),
        Some((cmd, rest)) => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "cell" => run_cell(&args),
            "probe" => run_probe(&args),
            other => Err(format!("unknown command {other:?} (expected cell, probe or p95)")),
        }),
        None => {
            Err("usage: perfbench <cell|probe> --flag value ... | perfbench p95 BIN...".to_string())
        }
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
