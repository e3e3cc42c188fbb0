//! Streaming trace sinks and phase timing: the engine half of the
//! observability pipeline.
//!
//! [`JsonlSink`] implements [`Recorder`] and writes one self-describing JSON
//! line per [`TraceLine`] to any [`io::Write`]; [`parse_trace`] reads the
//! format back through the workspace's strict JSON reader,
//! [`rrs_model::json`]. [`PhaseTimer`] accumulates wall-clock time per
//! round phase and per mini-round.
//!
//! **Determinism boundary.** Trace lines carry *no* timestamps or other
//! host-dependent fields: the byte stream is a pure function of the
//! (instance, policy, locations, speed) tuple, so traces are golden-testable
//! at any `--jobs` setting. The only records besides the run's events are
//! the meta header and the deterministic `counters` record. [`PhaseTimer`]
//! reads the clock through [`Stopwatch`], is advisory and never feeds
//! deterministic outputs.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::time::Duration;

use rrs_model::json::{self, Quoted, Value};
use rrs_model::ColorId;

use crate::obs::{CounterRegistry, Stopwatch};
use crate::policy::Slot;
use crate::trace::{Phase, Recorder, TraceEvent};

/// Version stamped into every meta line; bump on breaking schema changes.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Run identity written as the first line of a trace file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Policy name as reported by [`crate::policy::Policy::name`].
    pub policy: String,
    /// Reconfiguration cost Δ.
    pub delta: u64,
    /// Number of locations the policy controlled.
    pub locations: usize,
    /// Schedule speed (mini-rounds per round).
    pub speed: u32,
}

/// One trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceLine {
    /// The run-identity header.
    Meta(TraceMeta),
    /// A round-start marker.
    Round {
        /// Round index.
        round: u64,
    },
    /// A simulation event.
    Event(TraceEvent),
    /// A deterministic counter snapshot (name → value, name-sorted).
    Counters {
        /// Counter names and values in serialization order.
        counters: Vec<(String, u64)>,
    },
}

/// A slot as trace JSON: the color index, or `null` for black.
struct SlotJson(Slot);

impl fmt::Display for SlotJson {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            None => f.write_str("null"),
            Some(c) => write!(f, "{}", c.0),
        }
    }
}

impl TraceLine {
    /// Append this line as one JSON object (no trailing newline) to `out`.
    /// Stable key order; colors are dense indices; the black pseudo-color
    /// is `null`.
    pub fn write_json(&self, out: &mut String) {
        // Formatting into a `String` cannot fail.
        let _ = match self {
            TraceLine::Meta(m) => write!(
                out,
                "{{\"ev\":\"meta\",\"version\":{TRACE_SCHEMA_VERSION},\"policy\":{},\
                 \"delta\":{},\"locations\":{},\"speed\":{}}}",
                Quoted(&m.policy),
                m.delta,
                m.locations,
                m.speed
            ),
            TraceLine::Round { round } => write!(out, "{{\"ev\":\"round\",\"round\":{round}}}"),
            TraceLine::Event(TraceEvent::Drop { round, color, count }) => write!(
                out,
                "{{\"ev\":\"drop\",\"round\":{round},\"color\":{},\"count\":{count}}}",
                color.0
            ),
            TraceLine::Event(TraceEvent::Arrive { round, color, count }) => write!(
                out,
                "{{\"ev\":\"arrive\",\"round\":{round},\"color\":{},\"count\":{count}}}",
                color.0
            ),
            TraceLine::Event(TraceEvent::Reconfig { round, mini, location, from, to }) => write!(
                out,
                "{{\"ev\":\"reconfig\",\"round\":{round},\"mini\":{mini},\
                 \"location\":{location},\"from\":{},\"to\":{}}}",
                SlotJson(*from),
                SlotJson(*to)
            ),
            TraceLine::Event(TraceEvent::Execute { round, mini, color, count }) => write!(
                out,
                "{{\"ev\":\"execute\",\"round\":{round},\"mini\":{mini},\"color\":{},\
                 \"count\":{count}}}",
                color.0
            ),
            TraceLine::Counters { counters } => {
                out.push_str("{\"ev\":\"counters\"");
                for (name, value) in counters {
                    let _ = write!(out, ",{}:{value}", Quoted(name));
                }
                out.push('}');
                Ok(())
            }
        };
    }
}

/// A streaming JSONL trace sink: one line per round start and per event,
/// written as they happen. Each line is formatted into a buffer the sink
/// owns and reuses, then written with a single `write_all`.
///
/// I/O errors cannot surface through [`Recorder`]'s `()`-returning hooks, so
/// the sink latches the first error and [`JsonlSink::finish`] reports it;
/// writes after an error are skipped.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    buf: String,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink with no meta header.
    pub fn new(out: W) -> Self {
        Self { out, buf: String::with_capacity(128), lines: 0, error: None }
    }

    /// A sink whose first line identifies the run.
    pub fn with_meta(out: W, meta: &TraceMeta) -> Self {
        let mut sink = Self::new(out);
        sink.emit(&TraceLine::Meta(meta.clone()));
        sink
    }

    fn emit(&mut self, line: &TraceLine) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        line.write_json(&mut self.buf);
        self.buf.push('\n');
        match self.out.write_all(self.buf.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Append a registry's counters as one schema-v1 `counters` line
    /// (name-sorted; nothing if the registry is empty). Conventionally
    /// written once, after the final round.
    pub fn write_counters(&mut self, reg: &CounterRegistry) {
        let counters: Vec<(String, u64)> =
            reg.counters().map(|(name, value)| (name.to_string(), value)).collect();
        if !counters.is_empty() {
            self.emit(&TraceLine::Counters { counters });
        }
    }

    /// Flush and return the writer, surfacing any latched I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Recorder for JsonlSink<W> {
    fn on_round_start(&mut self, round: u64) {
        self.emit(&TraceLine::Round { round });
    }
    fn on_drop(&mut self, round: u64, color: ColorId, count: u64) {
        self.emit(&TraceLine::Event(TraceEvent::Drop { round, color, count }));
    }
    fn on_arrive(&mut self, round: u64, color: ColorId, count: u64) {
        self.emit(&TraceLine::Event(TraceEvent::Arrive { round, color, count }));
    }
    fn on_reconfig(&mut self, round: u64, mini: u32, location: usize, from: Slot, to: Slot) {
        self.emit(&TraceLine::Event(TraceEvent::Reconfig { round, mini, location, from, to }));
    }
    fn on_execute(&mut self, round: u64, mini: u32, color: ColorId, count: u64) {
        self.emit(&TraceLine::Event(TraceEvent::Execute { round, mini, color, count }));
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parse failure, located by 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line (0 for stream-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

fn narrow<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<T, String> {
    T::try_from(v.u64_field(key)?).map_err(|_| format!("field '{key}' out of range"))
}

fn slot(v: &Value, key: &str) -> Result<Slot, String> {
    match v.field(key)? {
        Value::Null => Ok(None),
        _ => narrow(v, key).map(|id| Some(ColorId(id))),
    }
}

fn color(v: &Value, key: &str) -> Result<ColorId, String> {
    slot(v, key)?.ok_or_else(|| format!("field '{key}' must not be black"))
}

/// Decode one JSONL trace line.
pub fn parse_trace_line(line: &str) -> Result<TraceLine, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let fields = v.as_object().ok_or("trace line is not a JSON object")?;
    match v.str_field("ev")? {
        "meta" => {
            let version = v.u64_field("version")?;
            if version != TRACE_SCHEMA_VERSION {
                return Err(format!(
                    "unsupported trace schema version {version} (supported: {TRACE_SCHEMA_VERSION})"
                ));
            }
            Ok(TraceLine::Meta(TraceMeta {
                policy: v.str_field("policy")?.to_string(),
                delta: v.u64_field("delta")?,
                locations: narrow(&v, "locations")?,
                speed: narrow(&v, "speed")?,
            }))
        }
        "round" => Ok(TraceLine::Round { round: v.u64_field("round")? }),
        "counters" => {
            let counters = fields
                .iter()
                .filter(|(key, _)| key != "ev")
                .map(|(key, value)| match value.as_u64() {
                    Some(n) => Ok((key.clone(), n)),
                    None => Err(format!("counter '{key}' is not a u64")),
                })
                .collect::<Result<_, _>>()?;
            Ok(TraceLine::Counters { counters })
        }
        "drop" => Ok(TraceLine::Event(TraceEvent::Drop {
            round: v.u64_field("round")?,
            color: color(&v, "color")?,
            count: v.u64_field("count")?,
        })),
        "arrive" => Ok(TraceLine::Event(TraceEvent::Arrive {
            round: v.u64_field("round")?,
            color: color(&v, "color")?,
            count: v.u64_field("count")?,
        })),
        "reconfig" => Ok(TraceLine::Event(TraceEvent::Reconfig {
            round: v.u64_field("round")?,
            mini: narrow(&v, "mini")?,
            location: narrow(&v, "location")?,
            from: slot(&v, "from")?,
            to: slot(&v, "to")?,
        })),
        "execute" => Ok(TraceLine::Event(TraceEvent::Execute {
            round: v.u64_field("round")?,
            mini: narrow(&v, "mini")?,
            color: color(&v, "color")?,
            count: v.u64_field("count")?,
        })),
        other => Err(format!("unknown event kind '{other}'")),
    }
}

/// A fully parsed trace, with totals accumulated (overflow-checked) while
/// reading.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedTrace {
    /// The run-identity header, if present.
    pub meta: Option<TraceMeta>,
    /// All simulation events in stream order.
    pub events: Vec<TraceEvent>,
    /// Rounds observed (count of round-start markers).
    pub rounds: u64,
    /// Deterministic counters from `counters` records; repeated records
    /// (e.g. a stitched prefix + suffix trace) sum per name.
    pub counters: BTreeMap<String, u64>,
    arrived: u64,
    executed: u64,
    dropped: u64,
    reconfigs: u64,
}

impl ParsedTrace {
    /// Total jobs arrived.
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Total jobs executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Total jobs dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total reconfigurations (recolorings to non-black).
    pub fn reconfigs(&self) -> u64 {
        self.reconfigs
    }

    /// Total cost `Δ·reconfigs + drops`, using the meta Δ; `None` without
    /// a meta line or on overflow.
    pub fn total_cost(&self) -> Option<u64> {
        let delta = self.meta.as_ref()?.delta;
        delta.checked_mul(self.reconfigs)?.checked_add(self.dropped)
    }
}

/// Parse a whole JSONL trace (empty lines ignored). Fails on the first
/// malformed line, or the first line that overflows a total, identified by
/// line number.
pub fn parse_trace(textual: &str) -> Result<ParsedTrace, TraceParseError> {
    let mut out = ParsedTrace::default();
    for (i, line) in textual.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |message: String| TraceParseError { line: i + 1, message };
        let add = |total: &mut u64, n: u64, what: &str| -> Result<(), TraceParseError> {
            *total = total.checked_add(n).ok_or_else(|| fail(format!("{what} overflows u64")))?;
            Ok(())
        };
        match parse_trace_line(line).map_err(fail)? {
            TraceLine::Meta(m) => {
                if out.meta.is_some() {
                    return Err(fail("duplicate meta line".into()));
                }
                out.meta = Some(m);
            }
            TraceLine::Round { .. } => out.rounds += 1,
            TraceLine::Event(e) => {
                match e {
                    TraceEvent::Arrive { count, .. } => add(&mut out.arrived, count, "arrived")?,
                    TraceEvent::Execute { count, .. } => add(&mut out.executed, count, "executed")?,
                    TraceEvent::Drop { count, .. } => add(&mut out.dropped, count, "dropped")?,
                    TraceEvent::Reconfig { to, .. } => {
                        add(&mut out.reconfigs, u64::from(to.is_some()), "reconfigs")?
                    }
                }
                out.events.push(e);
            }
            TraceLine::Counters { counters } => {
                for (name, v) in counters {
                    let what = format!("counter '{name}'");
                    add(out.counters.entry(name).or_insert(0), v, &what)?;
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Phase timing
// ---------------------------------------------------------------------------

/// Accumulates wall-clock time per round phase and per mini-round.
///
/// Purely advisory: timings never appear in traces, tables or any other
/// deterministic output. Attach alongside a sink with the tuple tee, e.g.
/// `run_traced(&mut policy, &mut (&mut sink, &mut timer))`.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimer {
    totals: [Duration; 4],
    per_mini: Vec<Duration>,
    rounds: u64,
    open: Option<(Stopwatch, Phase, u32)>,
}

impl PhaseTimer {
    /// A fresh timer.
    pub fn new() -> Self {
        Self::default()
    }

    fn close(&mut self) {
        if let Some((sw, phase, mini)) = self.open.take() {
            let dt = sw.elapsed();
            self.totals[phase.index()] += dt;
            if matches!(phase, Phase::Reconfig | Phase::Execution) {
                let idx = mini as usize;
                if self.per_mini.len() <= idx {
                    self.per_mini.resize(idx + 1, Duration::ZERO);
                }
                self.per_mini[idx] += dt;
            }
        }
    }

    /// `(phase name, accumulated time)` for all four phases, in round order.
    pub fn totals(&self) -> [(&'static str, Duration); 4] {
        [
            (Phase::Drop.name(), self.totals[0]),
            (Phase::Arrival.name(), self.totals[1]),
            (Phase::Reconfig.name(), self.totals[2]),
            (Phase::Execution.name(), self.totals[3]),
        ]
    }

    /// Accumulated (reconfig + execution) time per mini-round index.
    pub fn per_mini(&self) -> &[Duration] {
        &self.per_mini
    }

    /// Rounds observed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total measured time across all phases.
    pub fn total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// A human-readable phase-time table (advisory wall-clock numbers).
    pub fn render(&self) -> String {
        let total = self.total();
        let mut out = String::new();
        out.push_str(&format!(
            "phase timing over {} rounds (wall clock, advisory):\n",
            self.rounds
        ));
        for (name, dt) in self.totals() {
            let share =
                if total.is_zero() { 0.0 } else { 100.0 * dt.as_secs_f64() / total.as_secs_f64() };
            out.push_str(&format!("  {name:<10} {dt:>12.3?}  {share:5.1}%\n"));
        }
        if self.per_mini.len() > 1 {
            for (i, dt) in self.per_mini.iter().enumerate() {
                out.push_str(&format!("  mini {i}: {dt:.3?} (reconfig+execution)\n"));
            }
        }
        out
    }
}

impl Recorder for PhaseTimer {
    fn on_round_start(&mut self, _round: u64) {
        self.rounds += 1;
    }
    fn on_phase_start(&mut self, _round: u64, mini: u32, phase: Phase) {
        self.close();
        self.open = Some((Stopwatch::start(), phase, mini));
    }
    fn on_round_end(&mut self, _round: u64) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Drop { round: 0, color: ColorId(2), count: 3 },
            TraceEvent::Arrive { round: 0, color: ColorId(0), count: 1 },
            TraceEvent::Reconfig {
                round: 0,
                mini: 0,
                location: 4,
                from: None,
                to: Some(ColorId(1)),
            },
            TraceEvent::Reconfig {
                round: 1,
                mini: 1,
                location: 2,
                from: Some(ColorId(1)),
                to: None,
            },
            TraceEvent::Execute { round: 1, mini: 1, color: ColorId(1), count: 2 },
        ]
    }

    #[test]
    fn lines_round_trip_through_write_json() {
        let meta = TraceMeta {
            policy: "weird \"name\"\\with\tescapes".into(),
            delta: 7,
            locations: 16,
            speed: 2,
        };
        let lines = std::iter::once(TraceLine::Meta(meta))
            .chain(std::iter::once(TraceLine::Round { round: 9 }))
            .chain(sample_events().into_iter().map(TraceLine::Event));
        for line in lines {
            let mut text = String::new();
            line.write_json(&mut text);
            assert_eq!(parse_trace_line(&text).expect(&text), line, "{text}");
        }
    }

    #[test]
    fn sink_stream_parses_back() {
        let mut sink = JsonlSink::with_meta(
            Vec::new(),
            &TraceMeta { policy: "test".into(), delta: 3, locations: 2, speed: 1 },
        );
        sink.on_round_start(0);
        for e in sample_events() {
            match e {
                TraceEvent::Drop { round, color, count } => sink.on_drop(round, color, count),
                TraceEvent::Arrive { round, color, count } => sink.on_arrive(round, color, count),
                TraceEvent::Reconfig { round, mini, location, from, to } => {
                    sink.on_reconfig(round, mini, location, from, to)
                }
                TraceEvent::Execute { round, mini, color, count } => {
                    sink.on_execute(round, mini, color, count)
                }
            }
        }
        let bytes = sink.finish().unwrap();
        let parsed = parse_trace(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(parsed.meta.as_ref().unwrap().delta, 3);
        assert_eq!(parsed.rounds, 1);
        assert_eq!(parsed.events, sample_events());
        assert_eq!(parsed.dropped(), 3);
        assert_eq!(parsed.arrived(), 1);
        assert_eq!(parsed.executed(), 2);
        assert_eq!(parsed.reconfigs(), 1);
        // Δ = 3, one reconfiguration, three drops.
        assert_eq!(parsed.total_cost(), Some(6));
    }

    #[test]
    fn counter_records_round_trip_through_parse() {
        let mut reg = CounterRegistry::new();
        reg.add(crate::obs::names::ROUNDS, 12);
        reg.add(crate::obs::names::DROPPED, 3);

        let mut sink = JsonlSink::with_meta(
            Vec::new(),
            &TraceMeta { policy: "p".into(), delta: 1, locations: 2, speed: 1 },
        );
        sink.on_round_start(0);
        sink.write_counters(&reg);
        let bytes = sink.finish().unwrap();
        let textual = String::from_utf8(bytes).unwrap();
        let record = textual.lines().last().unwrap();
        assert_eq!(record, "{\"ev\":\"counters\",\"jobs_dropped\":3,\"rounds\":12}");

        let parsed = parse_trace(&textual).unwrap();
        let want: BTreeMap<String, u64> =
            [("jobs_dropped".to_string(), 3), ("rounds".to_string(), 12)].into();
        assert_eq!(parsed.counters, want);

        // A stitched trace (two counters records) sums per name.
        let doubled = format!("{textual}{record}\n");
        let parsed = parse_trace(&doubled).unwrap();
        assert_eq!(parsed.counters["rounds"], 24);
    }

    #[test]
    fn bad_lines_are_rejected_with_location() {
        let cases = [
            "not json",
            "{\"ev\":\"drop\",\"round\":0}",
            "{\"ev\":\"nope\"}",
            "{\"ev\":\"meta\",\"version\":999,\"policy\":\"x\",\"delta\":1,\"locations\":1,\"speed\":1}",
            "{\"ev\":\"drop\",\"round\":0,\"color\":null,\"count\":1}",
            "{\"ev\":\"round\",\"round\":0,\"round\":1}",
            "{\"ev\":\"round\",\"round\":1.0}",
            "[{\"ev\":\"round\",\"round\":0}]",
        ];
        for bad in cases {
            assert!(parse_trace_line(bad).is_err(), "{bad}");
        }
        let err = parse_trace("{\"ev\":\"round\",\"round\":0}\nnot json\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn totals_are_overflow_checked() {
        let arrive = |count: u64| {
            format!("{{\"ev\":\"arrive\",\"round\":0,\"color\":0,\"count\":{count}}}\n")
        };
        let text = format!("\n{}{}", arrive(u64::MAX), arrive(2));
        let err = parse_trace(&text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("arrived overflows"), "{err}");

        let meta = TraceMeta { policy: "p".into(), delta: u64::MAX, locations: 1, speed: 1 };
        let trace = ParsedTrace { meta: Some(meta), reconfigs: 2, ..ParsedTrace::default() };
        assert_eq!(trace.total_cost(), None);
    }

    #[test]
    fn phase_timer_accumulates_all_phases() {
        let mut t = PhaseTimer::new();
        t.on_round_start(0);
        for (mini, phase) in
            [(0, Phase::Drop), (0, Phase::Arrival), (0, Phase::Reconfig), (0, Phase::Execution)]
        {
            t.on_phase_start(0, mini, phase);
        }
        t.on_round_end(0);
        assert_eq!(t.rounds(), 1);
        assert!(t.totals().iter().all(|&(_, d)| d <= t.total()));
        let rendered = t.render();
        for name in ["drop", "arrival", "reconfig", "execution"] {
            assert!(rendered.contains(name), "{rendered}");
        }
    }

    #[test]
    fn sink_defers_io_errors_to_finish() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.on_round_start(0);
        sink.on_round_start(1); // skipped, error already latched
        assert_eq!(sink.lines_written(), 0);
        assert!(sink.finish().is_err());
    }
}
