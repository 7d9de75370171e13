//! End-of-run manifests: a structured, diffable record of what a run did.
//!
//! A [`RunManifest`] captures the run configuration (tool, workload,
//! model, ops, threads, seed), event totals and per-kind counts, per-rule
//! firing counts, engine bookkeeping counters, per-stage latency
//! histograms, and a digest of the bug reports. Manifests serialize to
//! deterministic JSON (sorted keys) so two runs can be diffed textually,
//! and golden-snapshot tests can pin them byte-for-byte after
//! [`redact_timings`](RunManifest::redact_timings).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{ParseJsonError, Value};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// Schema identifier stamped into every manifest.
pub const MANIFEST_SCHEMA: &str = "pm-obs-run-manifest-v1";

/// Summary of the bug reports a run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BugDigest {
    /// Total number of reports.
    pub total: u64,
    /// Reports with correctness severity.
    pub correctness: u64,
    /// Reports with performance severity.
    pub performance: u64,
    /// Report counts by bug-kind name.
    pub kinds: BTreeMap<String, u64>,
    /// Position-sensitive FNV-1a hash of the report list (the same
    /// reports in another order hash differently), as a hex string
    /// (strings survive JSON round trips exactly; u64-as-f64 would not in
    /// every consumer).
    pub report_hash: String,
}

/// The end-of-run manifest emitted by `pmdbg run/replay/chaos --metrics`.
///
/// Metric names are routed into structured fields by prefix when a
/// [`MetricsSnapshot`] is [absorbed](RunManifest::absorb_snapshot):
///
/// | prefix | destination |
/// |---|---|
/// | `events.<kind>` | [`event_kinds`](Self::event_kinds) (+ [`events_total`](Self::events_total)) |
/// | `rule.<name>` | [`rule_firings`](Self::rule_firings) |
/// | `custom_rule.<name>` | [`rule_firings`](Self::rule_firings) as `custom:<name>` |
/// | `bookkeeping.<field>` | [`bookkeeping`](Self::bookkeeping) |
/// | `stage.<name>` (histograms) | [`stages`](Self::stages) |
/// | anything else | [`counters`](Self::counters) / [`gauges`](Self::gauges) / [`stages`](Self::stages) verbatim |
///
/// # Example
///
/// ```
/// use pm_obs::{MetricsRegistry, RunManifest};
///
/// let registry = MetricsRegistry::new();
/// registry.counter("events.store").add(7);
/// registry.counter("rule.no-durability-guarantee").inc();
/// registry.counter("bookkeeping.tree_inserts").add(3);
/// {
///     let _span = registry.span("stage.detect");
/// }
///
/// let mut manifest = RunManifest::new("pmdebugger", "memcached", "epoch");
/// manifest.ops = 1000;
/// manifest.threads = 4;
/// manifest.absorb_snapshot(&registry.snapshot());
///
/// assert_eq!(manifest.events_total, 7);
/// assert_eq!(manifest.event_kinds["store"], 7);
/// assert_eq!(manifest.rule_firings["no-durability-guarantee"], 1);
/// assert_eq!(manifest.bookkeeping["tree_inserts"], 3);
/// assert_eq!(manifest.stages["detect"].count, 1);
///
/// // Deterministic JSON round trip.
/// manifest.redact_timings();
/// let json = manifest.to_json();
/// let back = RunManifest::from_json(&json).unwrap();
/// assert_eq!(back, manifest);
/// assert_eq!(back.to_json(), json);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Schema identifier ([`MANIFEST_SCHEMA`]).
    pub schema: String,
    /// Detector/tool name (e.g. `pmdebugger`, `pmemcheck`).
    pub tool: String,
    /// Workload or trace name.
    pub workload: String,
    /// Persistency model name (`strict`/`epoch`/`strand`).
    pub model: String,
    /// Operations executed (0 when not applicable, e.g. replay).
    pub ops: u64,
    /// Worker thread count (1 for the sequential engine).
    pub threads: u64,
    /// Workload seed when one was used.
    pub seed: Option<u64>,
    /// Total events seen by the event tap.
    pub events_total: u64,
    /// Events by kind name (`store`, `flush`, `fence`, ...).
    pub event_kinds: BTreeMap<String, u64>,
    /// Rule firings by bug-kind name (custom rules as `custom:<name>`).
    pub rule_firings: BTreeMap<String, u64>,
    /// Engine bookkeeping counters (array stores, migrations, rotations,
    /// ...).
    pub bookkeeping: BTreeMap<String, u64>,
    /// Counters that match no structured prefix, verbatim.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values, verbatim.
    pub gauges: BTreeMap<String, i64>,
    /// Per-stage latency histograms (nanoseconds).
    pub stages: BTreeMap<String, HistogramSnapshot>,
    /// Bug-report digest.
    pub bugs: BugDigest,
}

impl RunManifest {
    /// Creates an empty manifest for a run of `tool` on `workload` under
    /// `model`.
    pub fn new(tool: &str, workload: &str, model: &str) -> Self {
        RunManifest {
            schema: MANIFEST_SCHEMA.to_owned(),
            tool: tool.to_owned(),
            workload: workload.to_owned(),
            model: model.to_owned(),
            ops: 0,
            threads: 1,
            seed: None,
            events_total: 0,
            event_kinds: BTreeMap::new(),
            rule_firings: BTreeMap::new(),
            bookkeeping: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            stages: BTreeMap::new(),
            bugs: BugDigest::default(),
        }
    }

    /// Routes every metric of `snapshot` into the manifest's structured
    /// fields by name prefix (see the type-level table). Counter values
    /// *add* into existing entries, so absorbing several snapshots (e.g.
    /// per-worker) accumulates.
    pub fn absorb_snapshot(&mut self, snapshot: &MetricsSnapshot) {
        for (name, &value) in &snapshot.counters {
            if let Some(kind) = name.strip_prefix("events.") {
                *self.event_kinds.entry(kind.to_owned()).or_default() += value;
                self.events_total += value;
            } else if let Some(rule) = name.strip_prefix("rule.") {
                *self.rule_firings.entry(rule.to_owned()).or_default() += value;
            } else if let Some(rule) = name.strip_prefix("custom_rule.") {
                *self
                    .rule_firings
                    .entry(format!("custom:{rule}"))
                    .or_default() += value;
            } else if let Some(field) = name.strip_prefix("bookkeeping.") {
                *self.bookkeeping.entry(field.to_owned()).or_default() += value;
            } else {
                *self.counters.entry(name.clone()).or_default() += value;
            }
        }
        for (name, &value) in &snapshot.gauges {
            *self.gauges.entry(name.clone()).or_default() += value;
        }
        for (name, hist) in &snapshot.histograms {
            let key = name.strip_prefix("stage.").unwrap_or(name);
            self.stages.entry(key.to_owned()).or_default().merge(hist);
        }
    }

    /// Zeroes every stage histogram (keeping the stage *names*), making
    /// the manifest fully deterministic for golden-snapshot comparison.
    pub fn redact_timings(&mut self) {
        for hist in self.stages.values_mut() {
            *hist = HistogramSnapshot::default();
        }
    }

    /// Serializes to deterministic JSON (keys sorted at every level).
    pub fn to_json(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("schema".to_owned(), Value::Str(self.schema.clone()));
        root.insert("tool".to_owned(), Value::Str(self.tool.clone()));
        root.insert("workload".to_owned(), Value::Str(self.workload.clone()));
        root.insert("model".to_owned(), Value::Str(self.model.clone()));
        root.insert("ops".to_owned(), Value::UInt(self.ops));
        root.insert("threads".to_owned(), Value::UInt(self.threads));
        root.insert(
            "seed".to_owned(),
            match self.seed {
                Some(seed) => Value::UInt(seed),
                None => Value::Null,
            },
        );
        root.insert("events_total".to_owned(), Value::UInt(self.events_total));
        root.insert("event_kinds".to_owned(), counter_map(&self.event_kinds));
        root.insert("rule_firings".to_owned(), counter_map(&self.rule_firings));
        root.insert("bookkeeping".to_owned(), counter_map(&self.bookkeeping));
        root.insert("counters".to_owned(), counter_map(&self.counters));
        root.insert(
            "gauges".to_owned(),
            Value::Obj(
                self.gauges
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::Int(v)))
                    .collect(),
            ),
        );
        root.insert(
            "stages".to_owned(),
            Value::Obj(
                self.stages
                    .iter()
                    .map(|(k, h)| (k.clone(), Value::from_histogram(h)))
                    .collect(),
            ),
        );
        let mut bugs = BTreeMap::new();
        bugs.insert("total".to_owned(), Value::UInt(self.bugs.total));
        bugs.insert("correctness".to_owned(), Value::UInt(self.bugs.correctness));
        bugs.insert("performance".to_owned(), Value::UInt(self.bugs.performance));
        bugs.insert("kinds".to_owned(), counter_map(&self.bugs.kinds));
        bugs.insert(
            "report_hash".to_owned(),
            Value::Str(self.bugs.report_hash.clone()),
        );
        root.insert("bugs".to_owned(), Value::Obj(bugs));
        Value::Obj(root).to_string()
    }

    /// Parses a manifest back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] on malformed JSON, a missing field, or an
    /// unknown schema identifier.
    pub fn from_json(text: &str) -> Result<RunManifest, ManifestError> {
        let value = Value::parse(text)?;
        let str_field = |name: &str| -> Result<String, ManifestError> {
            value
                .get(name)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ManifestError::missing(name))
        };
        let u64_field = |name: &str| -> Result<u64, ManifestError> {
            value
                .get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| ManifestError::missing(name))
        };
        let schema = str_field("schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(ManifestError::Schema(schema));
        }
        let seed = match value.get("seed") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| ManifestError::missing("seed"))?),
        };
        let bugs_obj = value
            .get("bugs")
            .ok_or_else(|| ManifestError::missing("bugs"))?;
        let bug_u64 = |name: &str| -> Result<u64, ManifestError> {
            bugs_obj
                .get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| ManifestError::missing(name))
        };
        let mut stages = BTreeMap::new();
        if let Some(obj) = value.get("stages").and_then(Value::as_obj) {
            for (name, hist) in obj {
                stages.insert(
                    name.clone(),
                    hist.to_histogram()
                        .ok_or_else(|| ManifestError::missing("stages"))?,
                );
            }
        }
        Ok(RunManifest {
            schema,
            tool: str_field("tool")?,
            workload: str_field("workload")?,
            model: str_field("model")?,
            ops: u64_field("ops")?,
            threads: u64_field("threads")?,
            seed,
            events_total: u64_field("events_total")?,
            event_kinds: read_counter_map(&value, "event_kinds")?,
            rule_firings: read_counter_map(&value, "rule_firings")?,
            bookkeeping: read_counter_map(&value, "bookkeeping")?,
            counters: read_counter_map(&value, "counters")?,
            gauges: value
                .get("gauges")
                .and_then(Value::as_obj)
                .map(|obj| {
                    obj.iter()
                        .filter_map(|(k, v)| v.as_i64().map(|n| (k.clone(), n)))
                        .collect()
                })
                .unwrap_or_default(),
            stages,
            bugs: BugDigest {
                total: bug_u64("total")?,
                correctness: bug_u64("correctness")?,
                performance: bug_u64("performance")?,
                kinds: read_counter_map(bugs_obj, "kinds")?,
                report_hash: bugs_obj
                    .get("report_hash")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned(),
            },
        })
    }

    /// Whether this manifest came from a supervised run that quarantined
    /// at least one shard (the `supervisor.degraded` counter supervised
    /// runs always export, even at 0). `false` for unsupervised runs,
    /// which carry no supervisor counters at all.
    pub fn is_degraded(&self) -> bool {
        self.counters
            .get("supervisor.degraded")
            .copied()
            .unwrap_or(0)
            > 0
    }

    /// The supervision counter block `(retries, quarantined, lost_events)`
    /// — `None` when the run did not go through the supervised pipeline.
    pub fn supervision(&self) -> Option<(u64, u64, u64)> {
        let get = |name: &str| self.counters.get(name).copied();
        Some((
            get("supervisor.retries")?,
            get("supervisor.quarantined")?,
            get("supervisor.lost_events")?,
        ))
    }

    /// Renders the manifest as the human-readable table `pmdbg stats`
    /// prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run manifest ({})", self.schema);
        let _ = writeln!(
            out,
            "  tool={} workload={} model={} ops={} threads={} seed={}",
            self.tool,
            self.workload,
            self.model,
            self.ops,
            self.threads,
            self.seed.map_or_else(|| "-".to_owned(), |s| s.to_string()),
        );
        let _ = writeln!(out, "\nevents ({} total)", self.events_total);
        for (kind, n) in &self.event_kinds {
            let _ = writeln!(out, "  {kind:<22} {n:>12}");
        }
        if !self.rule_firings.is_empty() {
            let _ = writeln!(out, "\nrule firings");
            for (rule, n) in &self.rule_firings {
                let _ = writeln!(out, "  {rule:<34} {n:>12}");
            }
        }
        if !self.bookkeeping.is_empty() {
            let _ = writeln!(out, "\nbookkeeping");
            for (field, n) in &self.bookkeeping {
                let _ = writeln!(out, "  {field:<22} {n:>12}");
            }
        }
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            let _ = writeln!(out, "\nother metrics");
            for (name, n) in &self.counters {
                let _ = writeln!(out, "  {name:<34} {n:>12}");
            }
            for (name, n) in &self.gauges {
                let _ = writeln!(out, "  {name:<34} {n:>12}");
            }
        }
        if !self.stages.is_empty() {
            let _ = writeln!(out, "\nstages (latency)");
            for (stage, hist) in &self.stages {
                let _ = writeln!(
                    out,
                    "  {stage:<22} count={:<10} mean={:.0}ns",
                    hist.count,
                    hist.mean()
                );
            }
        }
        if let Some((retries, quarantined, lost_events)) = self.supervision() {
            let _ = writeln!(
                out,
                "\nsupervision: {} (retries={retries} quarantined={quarantined} \
                 lost_events={lost_events})",
                if self.is_degraded() {
                    "DEGRADED"
                } else {
                    "healthy"
                }
            );
        }
        let _ = writeln!(
            out,
            "\nbugs: {} total ({} correctness, {} performance), hash={}",
            self.bugs.total,
            self.bugs.correctness,
            self.bugs.performance,
            if self.bugs.report_hash.is_empty() {
                "-"
            } else {
                &self.bugs.report_hash
            }
        );
        for (kind, n) in &self.bugs.kinds {
            let _ = writeln!(out, "  {kind:<34} {n:>12}");
        }
        out
    }
}

fn counter_map(map: &BTreeMap<String, u64>) -> Value {
    Value::Obj(
        map.iter()
            .map(|(k, &v)| (k.clone(), Value::UInt(v)))
            .collect(),
    )
}

fn read_counter_map(value: &Value, name: &str) -> Result<BTreeMap<String, u64>, ManifestError> {
    let obj = value
        .get(name)
        .and_then(Value::as_obj)
        .ok_or_else(|| ManifestError::missing(name))?;
    let mut out = BTreeMap::new();
    for (key, v) in obj {
        out.insert(
            key.clone(),
            v.as_u64().ok_or_else(|| ManifestError::missing(name))?,
        );
    }
    Ok(out)
}

/// Why a manifest failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The document is not valid JSON.
    Json(ParseJsonError),
    /// A required field is absent or has the wrong type.
    MissingField(String),
    /// The `schema` field names an unknown schema.
    Schema(String),
}

impl ManifestError {
    fn missing(name: &str) -> Self {
        ManifestError::MissingField(name.to_owned())
    }
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "invalid JSON: {e}"),
            ManifestError::MissingField(name) => {
                write!(f, "missing or mistyped field `{name}`")
            }
            ManifestError::Schema(schema) => {
                write!(
                    f,
                    "unknown manifest schema `{schema}` (expected {MANIFEST_SCHEMA})"
                )
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<ParseJsonError> for ManifestError {
    fn from(e: ParseJsonError) -> Self {
        ManifestError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample() -> RunManifest {
        let registry = MetricsRegistry::new();
        registry.counter("events.store").add(10);
        registry.counter("events.fence").add(2);
        registry.counter("rule.no-durability-guarantee").add(3);
        registry.counter("custom_rule.my-check").inc();
        registry.counter("bookkeeping.migrations").add(5);
        registry.counter("parallel.routed").add(12);
        registry.gauge("tree_len_now").set(-1);
        registry.histogram("stage.detect").record(100);
        let mut manifest = RunManifest::new("pmdebugger", "ycsb", "epoch");
        manifest.ops = 500;
        manifest.threads = 2;
        manifest.seed = Some(42);
        manifest.absorb_snapshot(&registry.snapshot());
        manifest.bugs = BugDigest {
            total: 4,
            correctness: 3,
            performance: 1,
            kinds: [("no-durability-guarantee".to_owned(), 3)].into(),
            report_hash: "00ffa3".to_owned(),
        };
        manifest
    }

    #[test]
    fn prefix_routing_fills_structured_fields() {
        let manifest = sample();
        assert_eq!(manifest.events_total, 12);
        assert_eq!(manifest.event_kinds["store"], 10);
        assert_eq!(manifest.rule_firings["no-durability-guarantee"], 3);
        assert_eq!(manifest.rule_firings["custom:my-check"], 1);
        assert_eq!(manifest.bookkeeping["migrations"], 5);
        assert_eq!(manifest.counters["parallel.routed"], 12);
        assert_eq!(manifest.gauges["tree_len_now"], -1);
        assert_eq!(manifest.stages["detect"].count, 1);
    }

    #[test]
    fn absorbing_twice_accumulates() {
        let mut manifest = RunManifest::new("t", "w", "m");
        let mut snap = MetricsSnapshot::new();
        snap.set_counter("events.store", 3);
        manifest.absorb_snapshot(&snap);
        manifest.absorb_snapshot(&snap);
        assert_eq!(manifest.events_total, 6);
        assert_eq!(manifest.event_kinds["store"], 6);
    }

    #[test]
    fn json_round_trip_is_identity() {
        let manifest = sample();
        let json = manifest.to_json();
        let back = RunManifest::from_json(&json).expect("parse");
        assert_eq!(back, manifest);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn redacted_manifest_keeps_stage_names() {
        let mut manifest = sample();
        manifest.redact_timings();
        assert!(manifest.stages.contains_key("detect"));
        assert_eq!(manifest.stages["detect"], HistogramSnapshot::default());
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let json = sample().to_json().replace(MANIFEST_SCHEMA, "bogus-v9");
        assert!(matches!(
            RunManifest::from_json(&json),
            Err(ManifestError::Schema(_))
        ));
    }

    #[test]
    fn missing_field_is_reported() {
        assert!(matches!(
            RunManifest::from_json(r#"{"schema":"pm-obs-run-manifest-v1"}"#),
            Err(ManifestError::MissingField(_))
        ));
        assert!(matches!(
            RunManifest::from_json("{nope"),
            Err(ManifestError::Json(_))
        ));
    }

    #[test]
    fn render_table_mentions_all_sections() {
        let text = sample().render_table();
        for needle in [
            "run manifest",
            "events (12 total)",
            "rule firings",
            "bookkeeping",
            "stages (latency)",
            "bugs: 4 total",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        assert!(
            !text.contains("supervision:"),
            "unsupervised manifests have no supervision line:\n{text}"
        );
    }

    #[test]
    fn supervision_accessors_read_the_counter_block() {
        let mut manifest = sample();
        assert!(!manifest.is_degraded());
        assert_eq!(manifest.supervision(), None);

        manifest.counters.insert("supervisor.retries".into(), 2);
        manifest.counters.insert("supervisor.quarantined".into(), 0);
        manifest.counters.insert("supervisor.lost_events".into(), 0);
        manifest.counters.insert("supervisor.degraded".into(), 0);
        assert!(!manifest.is_degraded(), "quarantine-free run is healthy");
        assert_eq!(manifest.supervision(), Some((2, 0, 0)));
        assert!(manifest.render_table().contains("supervision: healthy"));

        manifest.counters.insert("supervisor.quarantined".into(), 1);
        manifest
            .counters
            .insert("supervisor.lost_events".into(), 96);
        manifest.counters.insert("supervisor.degraded".into(), 1);
        assert!(manifest.is_degraded());
        assert_eq!(manifest.supervision(), Some((2, 1, 96)));
        let text = manifest.render_table();
        assert!(
            text.contains("supervision: DEGRADED")
                && text.contains("quarantined=1")
                && text.contains("lost_events=96"),
            "{text}"
        );
    }
}
