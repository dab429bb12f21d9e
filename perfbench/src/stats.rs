//! Order statistics and the naming rules the benchmark reports under.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Samples of `n` that rank strictly beyond percentile `q` (nearest rank).
pub fn beyond(n: usize, q: f64) -> usize {
    // The small epsilon keeps 0.99 × 1000 from rounding up to 991.
    n - ((q * n as f64 - 1e-9).ceil().max(0.0) as usize).min(n)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when `n` is too small for any.
pub fn tail_rule(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| beyond(n, q) >= TAIL_MIN_BEYOND)
}

/// The tail percentile to report for a workload planned at `planned`:
/// the planned rung while `n` samples still leave ten beyond it,
/// otherwise the highest rung that does. Fixing the rung per workload
/// keeps a faster build (more samples) from being scored at a stricter
/// percentile than its parent.
pub fn tail_percentile(planned: f64, n: usize) -> Option<f64> {
    if beyond(n, planned) >= TAIL_MIN_BEYOND {
        Some(planned)
    } else {
        tail_rule(n)
    }
}

/// Linear-interpolated quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            if frac == 0.0 {
                // Exact rank: no interpolation (which would turn an
                // infinite neighbour into NaN).
                return sorted[lo];
            }
            sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac
        }
    }
}

/// A sample set summarised for reporting: sorted values plus the tail.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub sorted: Vec<f64>,
}

impl Summary {
    pub fn new(mut xs: Vec<f64>) -> Summary {
        xs.sort_by(f64::total_cmp);
        Summary { sorted: xs }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn p50(&self) -> f64 {
        quantile(&self.sorted, 0.5)
    }

    pub fn at(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }

    /// `(percentile, value)` of the tail planned at `planned`, or the
    /// median when there are too few samples for any rung.
    pub fn tail(&self, planned: f64) -> (f64, f64) {
        let q = tail_percentile(planned, self.n()).unwrap_or(0.5);
        (q, self.at(q))
    }
}

/// Median of an unsorted sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    Summary::new(xs.to_vec()).p50()
}

/// Metric and workload names: a letter or digit first, then at most 63
/// more of `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

/// Units: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_rung_with_ten_beyond() {
        assert_eq!(tail_rule(9), None);
        assert_eq!(tail_rule(19), None);
        assert_eq!(tail_rule(20), Some(0.5));
        assert_eq!(tail_rule(39), Some(0.5));
        assert_eq!(tail_rule(40), Some(0.75));
        assert_eq!(tail_rule(100), Some(0.9));
        assert_eq!(tail_rule(199), Some(0.9));
        assert_eq!(tail_rule(200), Some(0.95));
        assert_eq!(tail_rule(999), Some(0.95));
        assert_eq!(tail_rule(1000), Some(0.99));
        assert_eq!(tail_rule(10_000), Some(0.999));
        assert_eq!(tail_rule(1_000_000), Some(0.999));
    }

    #[test]
    fn beyond_counts_strictly_higher_ranks() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1001, 0.99), 10);
        assert_eq!(beyond(1100, 0.99), 11);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(10, 0.5), 5);
        assert_eq!(beyond(0, 0.5), 0);
        // Every rung the rule picks really leaves ten samples beyond it.
        for n in 0..3000 {
            if let Some(q) = tail_rule(n) {
                assert!(beyond(n, q) >= TAIL_MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn planned_rung_is_kept_until_too_few_samples() {
        assert_eq!(tail_percentile(0.95, 5000), Some(0.95));
        assert_eq!(tail_percentile(0.95, 200), Some(0.95));
        assert_eq!(tail_percentile(0.95, 199), Some(0.9));
        assert_eq!(tail_percentile(0.75, 30), Some(0.5));
        assert_eq!(tail_percentile(0.75, 5), None);
    }

    #[test]
    fn quantile_interpolates() {
        let s = Summary::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.p50(), 2.5);
        assert_eq!(s.at(0.0), 1.0);
        assert_eq!(s.at(1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        // Failed requests rank last (+∞) without poisoning lower ranks.
        let f = Summary::new(vec![1.0, f64::INFINITY, 2.0]);
        assert_eq!(f.p50(), 2.0);
        assert_eq!(f.at(1.0), f64::INFINITY);
        // Too few samples for any rung: the tail falls back to the median.
        assert_eq!(Summary::new(vec![1.0, 2.0, 3.0]).tail(0.99), (0.5, 2.0));
    }

    #[test]
    fn name_charset() {
        for ok in [
            "small-tcp",
            "read_p50_ms",
            "net.rtt_overhead_us.p50",
            "0x",
            "A.b-c_9",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_charset() {
        for ok in ["ms", "s", "1/s", "req/s", "%", "count", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
