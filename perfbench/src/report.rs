//! Result output, summary statistics and the host class.

use std::fmt::Write as _;
use std::fs;

use reset_crypto::Backend;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 when empty.
pub fn quantile<T: Ord + Copy + Default>(xs: &mut [T], q: f64) -> T {
    if xs.is_empty() {
        return T::default();
    }
    xs.sort_unstable();
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// ISA flags that decide which crypto backend runs and how fast.
const ISA_FLAGS: [&str; 10] = [
    "sse2",
    "ssse3",
    "sse4_1",
    "avx",
    "avx2",
    "bmi2",
    "avx512f",
    "avx512vl",
    "avx512ifma",
    "sha_ni",
];

/// The host class as one JSON object: CPU model, `nproc`, ISA flags and
/// the crypto backend the datapath selected. Results from different
/// classes are not comparable.
pub fn host_json() -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let isa: Vec<&str> = ISA_FLAGS
        .iter()
        .copied()
        .filter(|f| flags.split_whitespace().any(|g| g == *f))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {nproc}, \"isa\": [{}], \"backend\": \"{}\"}}",
        field("model name").replace('"', "'"),
        isa.iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        Backend::select().name()
    )
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the human-readable lines, then the result object as the last
/// line of standard output.
pub fn print_result(
    workload: &str,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    extra: &[Metric],
) {
    println!("host: {}", host_json());
    for m in metrics.iter().chain(extra) {
        println!("{workload}: {} = {} {}", m.name, number(m.value), m.unit);
    }
    let mut obj = String::new();
    let _ = write!(
        obj,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            obj,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    obj.push_str("}}");
    println!("{obj}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut xs: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(quantile(&mut xs, 0.5), 500);
        assert_eq!(quantile(&mut xs, 0.99), 990);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
