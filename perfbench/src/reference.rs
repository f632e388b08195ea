//! The modeled-output reference table stored with the benchmark.
//!
//! Every request's modeled latency, energy and DRAM bytes must equal the
//! entry for its (benchmark, data seed, scale, engine), exactly. The
//! table was captured with `perfbench --capture-reference` and is
//! embedded at build time, so a change to the cost model or to trace
//! compilation shows up as a failed request.

use std::collections::HashMap;

use pointacc::RunReport;

/// The table embedded in the binary.
pub const EMBEDDED: &str = include_str!("../reference.tsv");

/// Modeled outputs of one replay.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Modeled {
    /// Simulated latency, ms.
    pub latency_ms: f64,
    /// Simulated energy, pJ.
    pub energy_pj: f64,
    /// Simulated DRAM traffic, bytes.
    pub dram_bytes: u64,
}

impl Modeled {
    /// The report's end-to-end numbers, as the engine surface reports them.
    pub fn of(report: &RunReport) -> Self {
        let e = report.to_engine_report();
        Modeled { latency_ms: e.latency_ms(), energy_pj: e.energy.get(), dram_bytes: e.dram_bytes }
    }
}

/// `(benchmark, seed, scale_ppm, engine)`.
type Entry = (String, u64, u64, String);

/// Parsed reference table.
#[derive(Debug, Default)]
pub struct Reference {
    entries: HashMap<Entry, Modeled>,
}

impl Reference {
    /// Parses the tab-separated table (`#` lines are comments).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = |what: &str| format!("reference line {}: {what}: {line}", n + 1);
            if f.len() != 7 {
                return Err(bad("expected 7 fields"));
            }
            let key = (
                f[0].to_string(),
                f[1].parse().map_err(|_| bad("seed"))?,
                f[2].parse().map_err(|_| bad("scale_ppm"))?,
                f[3].to_string(),
            );
            let value = Modeled {
                latency_ms: f[4].parse().map_err(|_| bad("latency_ms"))?,
                energy_pj: f[5].parse().map_err(|_| bad("energy_pj"))?,
                dram_bytes: f[6].parse().map_err(|_| bad("dram_bytes"))?,
            };
            entries.insert(key, value);
        }
        Ok(Reference { entries })
    }

    /// The stored outputs, if the table covers the entry.
    fn get(&self, bench: &str, seed: u64, scale_ppm: u64, engine: &str) -> Option<Modeled> {
        self.entries.get(&(bench.to_string(), seed, scale_ppm, engine.to_string())).copied()
    }

    /// Compares `got` with the stored entry; `Err` names the mismatch.
    pub fn check(
        &self,
        bench: &str,
        seed: u64,
        scale_ppm: u64,
        engine: &str,
        got: Modeled,
    ) -> Result<(), String> {
        match self.get(bench, seed, scale_ppm, engine) {
            None => Err(format!(
                "no reference entry for {bench} seed {seed} ppm {scale_ppm} on {engine}"
            )),
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!(
                "{bench} seed {seed} on {engine}: modeled {got:?} differs from reference {want:?}"
            )),
        }
    }
}

/// One table line; floats print in shortest round-trip form, so parsing
/// the line gives back the same bits.
pub fn line(bench: &str, seed: u64, scale_ppm: u64, engine: &str, m: Modeled) -> String {
    format!(
        "{bench}\t{seed}\t{scale_ppm}\t{engine}\t{:?}\t{:?}\t{}",
        m.latency_ms, m.energy_pj, m.dram_bytes
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_exactly() {
        let m = Modeled { latency_ms: 0.1 + 0.2, energy_pj: 1.0 / 3.0, dram_bytes: 7 };
        let table = Reference::parse(&line("MinkNet(i)", 42, 1_000_000, "PointAcc", m)).unwrap();
        assert_eq!(table.check("MinkNet(i)", 42, 1_000_000, "PointAcc", m), Ok(()));
        let off = Modeled { dram_bytes: 8, ..m };
        assert!(table.check("MinkNet(i)", 42, 1_000_000, "PointAcc", off).is_err());
        assert!(table.check("MinkNet(i)", 43, 1_000_000, "PointAcc", m).is_err());
    }

    #[test]
    fn embedded_table_parses() {
        assert!(!Reference::parse(EMBEDDED).unwrap().entries.is_empty());
    }
}
