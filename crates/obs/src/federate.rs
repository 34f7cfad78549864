//! Metrics federation: parsing and merging Prometheus text
//! expositions.
//!
//! `gph-net`'s `FleetClient::metrics` scrapes the `Metrics` exposition
//! of every address in the fleet manifest and folds the fresh ones into
//! one fleet-wide view with [`merge_expositions`]. Merge rules, per
//! family type:
//!
//! * **counter** — values sum across nodes.
//! * **gauge** — values sum, except families whose name ends in
//!   `_peak`, which merge by max (a fleet-wide high-water mark summed
//!   across nodes would be meaningless).
//! * **summary** — `_sum`/`_count` samples sum; quantile samples merge
//!   by max, a conservative upper bound (exact cross-node quantiles
//!   cannot be recovered from pre-rendered summaries).
//! * untyped samples sum.
//!
//! [`Exposition::parse`] is also the CLI's reader: `gph-store stats`
//! and `fleettop` pull individual series out of a scrape with
//! [`Exposition::value`].

use std::collections::HashMap;

/// One metric family: the `# HELP`/`# TYPE` header plus its samples in
/// first-seen order.
#[derive(Clone, Debug, Default)]
struct Family {
    name: String,
    help: String,
    type_name: String,
    /// `(series key, value)` — the series key is the full sample name
    /// including any label block (e.g. `gph_latency_ns{quantile="0.5"}`
    /// or `gph_latency_ns_sum`).
    samples: Vec<(String, f64)>,
}

/// A parsed Prometheus text exposition (version 0.0.4, the dialect
/// [`crate::MetricsRegistry::render`] emits).
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    families: Vec<Family>,
}

/// The base metric name of a sample series: everything before the label
/// block.
fn sample_name(series: &str) -> &str {
    series.split('{').next().unwrap_or(series)
}

impl Exposition {
    /// Parses an exposition. Unknown lines are skipped (never an
    /// error): a scrape is best-effort telemetry, not a checksummed
    /// payload. Samples appearing before any `# TYPE` header form
    /// untyped single-sample families.
    pub fn parse(text: &str) -> Exposition {
        let mut families: Vec<Family> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                if let Some((name, help)) = rest.split_once(' ') {
                    let i = *index.entry(name.to_string()).or_insert_with(|| {
                        families.push(Family { name: name.to_string(), ..Family::default() });
                        families.len() - 1
                    });
                    families[i].help = help.to_string();
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, t)) = rest.split_once(' ') {
                    let i = *index.entry(name.to_string()).or_insert_with(|| {
                        families.push(Family { name: name.to_string(), ..Family::default() });
                        families.len() - 1
                    });
                    families[i].type_name = t.to_string();
                }
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            // A sample: `series value` — the value is the last
            // space-separated token (label values may contain spaces).
            let Some((series, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            let name = sample_name(series);
            // Summary `_sum`/`_count` samples belong to their base
            // family when one is declared.
            let family = [name]
                .into_iter()
                .chain(name.strip_suffix("_sum"))
                .chain(name.strip_suffix("_count"))
                .find(|base| index.contains_key(*base))
                .unwrap_or(name);
            let i = *index.entry(family.to_string()).or_insert_with(|| {
                families.push(Family { name: family.to_string(), ..Family::default() });
                families.len() - 1
            });
            families[i].samples.push((series.to_string(), value));
        }
        Exposition { families }
    }

    /// Looks up one sample by its full series key (name plus label
    /// block, exactly as rendered).
    pub fn value(&self, series: &str) -> Option<f64> {
        self.families
            .iter()
            .flat_map(|f| f.samples.iter())
            .find(|(s, _)| s == series)
            .map(|(_, v)| *v)
    }

    /// Every `(series, value)` sample, in exposition order.
    pub fn samples(&self) -> impl Iterator<Item = (&str, f64)> {
        self.families.iter().flat_map(|f| f.samples.iter().map(|(s, v)| (s.as_str(), *v)))
    }
}

/// How one sample merges across nodes.
enum MergeRule {
    Sum,
    Max,
}

fn rule_for(family: &Family, series: &str) -> MergeRule {
    match family.type_name.as_str() {
        "gauge" if family.name.ends_with("_peak") => MergeRule::Max,
        "summary" if sample_name(series) == family.name && series.contains("quantile=") => {
            MergeRule::Max
        }
        _ => MergeRule::Sum,
    }
}

/// Formats a merged value the way the registry renders: integers stay
/// integers.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Merges expositions from many nodes into one (see the module docs
/// for the per-type rules). Family and sample order follow first
/// appearance across the sources.
pub fn merge_expositions(texts: &[&str]) -> String {
    let mut merged: Vec<Family> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for text in texts {
        for fam in Exposition::parse(text).families {
            let i = *index.entry(fam.name.clone()).or_insert_with(|| {
                merged.push(Family { samples: Vec::new(), ..fam.clone() });
                merged.len() - 1
            });
            if merged[i].help.is_empty() {
                merged[i].help = fam.help.clone();
            }
            if merged[i].type_name.is_empty() {
                merged[i].type_name = fam.type_name.clone();
            }
            for (series, value) in fam.samples {
                let rule = rule_for(&merged[i], &series);
                match merged[i].samples.iter_mut().find(|(s, _)| *s == series) {
                    Some((_, acc)) => match rule {
                        MergeRule::Sum => *acc += value,
                        MergeRule::Max => *acc = acc.max(value),
                    },
                    None => merged[i].samples.push((series, value)),
                }
            }
        }
    }
    let mut out = String::new();
    for fam in &merged {
        if !fam.help.is_empty() {
            out.push_str(&format!("# HELP {} {}\n", fam.name, fam.help));
        }
        if !fam.type_name.is_empty() {
            out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.type_name));
        }
        for (series, value) in &fam.samples {
            out.push_str(&format!("{series} {}\n", format_value(*value)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn node(requests: u64, peak: u64, lat: &[u64]) -> String {
        let r = MetricsRegistry::new();
        r.counter("gph_requests_total", "Requests handled.", &[]).add(requests);
        r.gauge("gph_net_write_buffer_peak", "High-water mark.", &[]).set(peak);
        r.gauge("gph_cache_len", "Cache entries.", &[]).set(requests / 2);
        let h = r.histogram("gph_latency_ns", "Latency.", &[]);
        for &v in lat {
            h.record(v);
        }
        r.render()
    }

    #[test]
    fn parse_reads_back_rendered_samples() {
        let text = node(10, 7, &[100, 200]);
        let e = Exposition::parse(&text);
        assert_eq!(e.value("gph_requests_total"), Some(10.0));
        assert_eq!(e.value("gph_net_write_buffer_peak"), Some(7.0));
        assert_eq!(e.value("gph_latency_ns_count"), Some(2.0));
        assert!(e.value("gph_latency_ns{quantile=\"0.99\"}").is_some());
        assert_eq!(e.value("gph_missing"), None);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let a = node(10, 7, &[100]);
        let b = node(5, 90, &[300]);
        let merged = merge_expositions(&[&a, &b]);
        let e = Exposition::parse(&merged);
        assert_eq!(e.value("gph_requests_total"), Some(15.0), "counters sum");
        assert_eq!(e.value("gph_net_write_buffer_peak"), Some(90.0), "peaks max");
        assert_eq!(e.value("gph_cache_len"), Some(7.0), "plain gauges sum");
        assert_eq!(e.value("gph_latency_ns_count"), Some(2.0), "summary counts sum");
        assert_eq!(e.value("gph_latency_ns_sum"), Some(400.0));
        // Quantiles merge by max — the conservative upper bound.
        let q = e.value("gph_latency_ns{quantile=\"0.5\"}").unwrap();
        assert!(q >= 300.0 * 0.9, "p50 upper bound covers the slower node, got {q}");
        // Headers render once per family.
        assert_eq!(merged.matches("# TYPE gph_requests_total counter").count(), 1);
    }

    #[test]
    fn merge_keeps_disjoint_families_from_every_source() {
        let r = MetricsRegistry::new();
        r.counter("gph_only_here_total", "One-node family.", &[]).add(3);
        let merged = merge_expositions(&[&node(1, 1, &[]), &r.render()]);
        let e = Exposition::parse(&merged);
        assert_eq!(e.value("gph_only_here_total"), Some(3.0));
        assert_eq!(e.value("gph_requests_total"), Some(1.0));
    }

    #[test]
    fn merge_of_one_source_is_value_preserving() {
        let a = node(10, 7, &[100, 200, 300]);
        let merged = merge_expositions(&[&a]);
        let ea = Exposition::parse(&a);
        let em = Exposition::parse(&merged);
        for (series, value) in ea.samples() {
            assert_eq!(em.value(series), Some(value), "series {series}");
        }
    }

    #[test]
    fn labeled_series_merge_per_label_set() {
        let mk = |n: u64| {
            let r = MetricsRegistry::new();
            r.counter("gph_shard_queries_total", "Per-shard.", &[("shard", "0")]).add(n);
            r.counter("gph_shard_queries_total", "Per-shard.", &[("shard", "1")]).add(n * 10);
            r.render()
        };
        let merged = merge_expositions(&[&mk(1), &mk(2)]);
        let e = Exposition::parse(&merged);
        assert_eq!(e.value("gph_shard_queries_total{shard=\"0\"}"), Some(3.0));
        assert_eq!(e.value("gph_shard_queries_total{shard=\"1\"}"), Some(30.0));
    }
}
