//! What one invocation prints: a human-readable table of every figure
//! (metrics and supporting notes), then the result as one JSON line.

/// The figures and check results of one invocation.
#[derive(Default)]
pub struct Output {
    /// Metrics listed in `BENCHMARK.json`, in print order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Supporting figures printed in the table only.
    notes: Vec<(String, f64, &'static str)>,
    lines: Vec<String>,
    failures: Vec<String>,
    /// Workload runs measured.
    pub attempted: u64,
}

impl Output {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.metrics.iter().all(|(n, ..)| n != name),
            "metric {name} printed twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), value, unit));
    }

    pub fn text(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Print the table to stdout, failures to stderr, and the JSON result
    /// as the last line of stdout.
    pub fn print(&self) {
        for line in &self.lines {
            println!("# {line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>18.6} {unit}");
        }
        for (name, value, unit) in &self.notes {
            println!("{name:<36} {value:>18.6} {unit}  (table only)");
        }
        for why in &self.failures {
            eprintln!("CHECK FAILED: {why}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            // each failed check counts once, as if it failed one run
            self.failures.len().min(self.attempted.max(1) as usize),
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with every digit of the measurement (`{}` on an
/// `f64` prints the shortest exact round-trip form).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1234567890123), "0.1234567890123");
        assert_eq!(json_number(1e-12), "0.000000000001");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }
}
