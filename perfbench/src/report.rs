//! The metric catalog and the result line.
//!
//! Every run prints its whole catalog — the end-to-end metrics untraced,
//! the per-layer metrics traced — as the last line of standard output:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.

use std::collections::BTreeMap;

/// The nine timed execution families. The `simd` families take the
/// lane count of one 256-bit register at the workload's precision.
pub const FAMILIES: [&str; 9] = [
    "seq",
    "threaded",
    "simd",
    "simd_threaded",
    "simt",
    "fused",
    "fused_simd",
    "mpi_fused",
    "tiled",
];

/// The families that dispatch rounds on the caller's pool.
pub const POOLED: [&str; 6] = [
    "threaded",
    "simd_threaded",
    "simt",
    "fused",
    "fused_simd",
    "tiled",
];

/// Families whose `Recorder` rows are per-loop (no fused group rows, no
/// per-rank sums), so their bytes ÷ seconds is a loop's GB/s.
pub const KERNEL_FAMILIES: [&str; 3] = ["seq", "simd", "threaded"];

/// Kernels of both applications, in program order.
pub const AIRFOIL_LOOPS: [&str; 5] = ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"];
/// Volna's kernels.
pub const VOLNA_LOOPS: [&str; 7] = [
    "sim_1",
    "compute_flux",
    "numerical_flux",
    "space_disc",
    "bc_flux",
    "RK_1",
    "RK_2",
];

/// `(name, unit)` of every end-to-end metric, in print order.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut m = vec![
        ("setup_s".to_string(), "s"),
        ("peak_rss_mb".to_string(), "MB"),
    ];
    m.extend(FAMILIES.iter().map(|f| (format!("step_ms.{f}"), "ms")));
    m.push(("jobs_per_s".into(), "1/s"));
    m.push(("job_p50_ms".into(), "ms"));
    m.push(("job_p99_ms".into(), "ms"));
    m
}

/// `(name, unit)` of every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("mesh.generate_ms", "ms");
    add("mesh.renumber_ms", "ms");
    add("plan.build_ms", "ms");
    add("plan.block_colors", "count");
    add("plan.max_elem_colors", "count");
    add("plan.builds", "count");
    add("plan.hits", "count");
    add("pool.round_us", "us");
    for f in POOLED {
        add(&format!("pool.rounds_per_step.{f}"), "count");
    }
    add("exec.parallel_eff", "frac");
    for l in AIRFOIL_LOOPS.iter().chain(VOLNA_LOOPS.iter()) {
        for f in KERNEL_FAMILIES {
            add(&format!("kernel.{l}.gbs.{f}"), "GB/s");
        }
    }
    add("mem.stream_gbs", "GB/s");
    add("layout.shim_ms", "ms");
    add("lazy.rounds_saved_per_step", "count");
    add("lazy.bytes_not_restreamed_per_step", "B");
    add("tile.redundant_frac", "frac");
    add("tile.copy_mb", "MB");
    add("tile.epochs_per_call", "count");
    add("tile.rounds_per_call", "count");
    add("tile.tiles_per_call", "count");
    for d in [
        "partition",
        "distribute",
        "rank_setup",
        "spawn",
        "assemble",
        "halo_wait",
    ] {
        add(&format!("dist.{d}_ms"), "ms");
    }
    add("serve.submit_us", "us");
    for s in ["first_frame", "busy", "wait", "materialize", "snapshot"] {
        add(&format!("serve.{s}_ms"), "ms");
    }
    add("serve.rejected", "count");
    add("trace.overhead_frac", "frac");
    m
}

/// A metric name the result format accepts: starts with a letter or a
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Operations attempted and failed, and the metrics measured, of one run.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations: timed family calls and service jobs.
    pub attempted: u64,
    /// Operations whose result missed its reference (or, for jobs, that
    /// were refused or did not complete).
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Render the result line over `catalog`. Fails when a catalog
    /// metric was not measured, one is not finite, or a measured metric
    /// is outside the catalog — a run never prints a partial result.
    pub fn render(&self, catalog: &[(String, &str)]) -> Result<String, String> {
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !catalog.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the catalog"));
        }
        let mut fields = Vec::with_capacity(catalog.len());
        for (name, unit) in catalog {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with every digit of its shortest
/// round-trip form (`Debug` prints `2.0`, `1e21`, `1e-7`: all JSON).
pub fn json_num(v: f64) -> String {
    format!("{v:?}")
}

/// A string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_valid_and_unique() {
        for catalog in [end_to_end(), per_layer()] {
            let mut seen = std::collections::HashSet::new();
            for (name, unit) in &catalog {
                assert!(valid_name(name), "invalid metric name {name}");
                assert!(seen.insert(name.clone()), "duplicate metric {name}");
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .bytes()
                            .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)),
                    "invalid unit {unit}"
                );
            }
        }
        assert_eq!(end_to_end().len(), 14);
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let (e2e, layers) = (end_to_end(), per_layer());
        for (name, unit) in e2e.iter().chain(layers.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // the workloads, and no metric beyond the catalog
        let workloads = spec.matches("\"why\": ").count();
        assert_eq!(
            spec.matches("\"name\": ").count(),
            workloads + e2e.len() + layers.len()
        );
    }

    #[test]
    fn name_validity() {
        for ok in [
            "setup_s",
            "step_ms.fused_simd",
            "kernel.RK_1.gbs.seq",
            "9a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "a\"b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn render_requires_the_whole_catalog() {
        let cat = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        let mut o = Outcome::default();
        o.check(true);
        o.set("a", 1.5);
        assert!(o.render(&cat).is_err(), "missing b");
        o.set("b", 3.0);
        assert_eq!(
            o.render(&cat).unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
        o.set("c", 1.0);
        assert!(o.render(&cat).is_err(), "c is outside the catalog");
        let mut nan = Outcome::default();
        nan.set("a", f64::NAN);
        nan.set("b", 1.0);
        assert!(nan.render(&cat).is_err());
        o.metrics.remove("c");
        o.check(false);
        assert!(o
            .render(&cat)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(1e21), "1e21");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
