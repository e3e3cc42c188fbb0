//! Streaming instance ingestion (DESIGN.md §10).
//!
//! [`InstanceSource`] abstracts "where requests come from" so the round
//! loop no longer requires a fully materialized [`Instance`]:
//!
//! * [`MaterializedSource`] adapts an in-memory instance — the existing
//!   behavior, with identical request order and horizon.
//! * [`TextStream`] reads the textio format incrementally from any
//!   [`BufRead`], holding only the current round's request plus one
//!   buffered look-ahead arrival. Memory use is independent of the
//!   horizon, which is what makes ≥10⁶-round runs feasible.
//!
//! A source is driven with strictly increasing rounds: `advance(r)` makes
//! round `r`'s request available through `current()`. The reported
//! [`InstanceSource::horizon`] is a *growing* quantity for streams — it
//! covers every arrival read so far **including the buffered look-ahead**,
//! so driving `round <= horizon()` until it stabilizes visits every round
//! a materialized run would (the look-ahead invariant guarantees the next
//! unread arrival is always reflected before the loop could stop short).

use std::io::BufRead;

use crate::color::{ColorId, ColorTable};
use crate::instance::Instance;
use crate::request::Request;
use crate::textio::{check_arrival, declare_color, parse_line, Line, ParseError};

/// A failure while pulling requests from a source.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A line did not parse, or violated a streaming restriction.
    Parse(ParseError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream read error: {e}"),
            StreamError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Parse(e) => Some(e),
        }
    }
}

impl From<ParseError> for StreamError {
    fn from(e: ParseError) -> Self {
        StreamError::Parse(e)
    }
}

/// An incremental provider of per-round requests.
///
/// Contract: `advance` is called with strictly increasing rounds starting
/// at 0 (no skipping backwards); after `advance(r)` returns, `current()`
/// is round `r`'s request and `horizon()` is an inclusive upper bound on
/// the last round that can still see work (it may grow as more of the
/// input is read, but never past-due: every arrival not yet visible
/// through `current()` is already counted in `horizon()`).
pub trait InstanceSource {
    /// The reconfiguration cost Δ.
    fn delta(&self) -> u64;

    /// The color table. For streams this may gain colors as declarations
    /// are read; ids remain dense and stable.
    fn colors(&self) -> &ColorTable;

    /// Make round `round`'s request available via [`InstanceSource::current`].
    fn advance(&mut self, round: u64) -> Result<(), StreamError>;

    /// The request of the most recently advanced round.
    fn current(&self) -> &Request;

    /// Inclusive last round the simulation must process to drain all work
    /// seen so far (max `arrival_round + D_ℓ` over arrivals read, plus the
    /// buffered look-ahead).
    fn horizon(&self) -> u64;

    /// Whether [`InstanceSource::horizon`] is already final, as for a
    /// materialized instance, rather than growing as the input is read. A
    /// session resuming over a final horizon demands a snapshot taken with
    /// exactly that horizon; over a growing one, the snapshot's horizon is
    /// a floor.
    fn horizon_is_final(&self) -> bool {
        false
    }
}

impl<S: InstanceSource + ?Sized> InstanceSource for &mut S {
    fn delta(&self) -> u64 {
        (**self).delta()
    }
    fn colors(&self) -> &ColorTable {
        (**self).colors()
    }
    fn advance(&mut self, round: u64) -> Result<(), StreamError> {
        (**self).advance(round)
    }
    fn current(&self) -> &Request {
        (**self).current()
    }
    fn horizon(&self) -> u64 {
        (**self).horizon()
    }
    fn horizon_is_final(&self) -> bool {
        (**self).horizon_is_final()
    }
}

/// [`InstanceSource`] over a fully materialized [`Instance`] — the
/// classic in-memory path, with a final horizon.
#[derive(Debug)]
pub struct MaterializedSource<'a> {
    inst: &'a Instance,
    round: u64,
    /// The horizon, computed once: a session asks for it every round.
    horizon: u64,
}

impl<'a> MaterializedSource<'a> {
    /// Wrap an instance, over its natural horizon.
    pub fn new(inst: &'a Instance) -> Self {
        Self { inst, round: 0, horizon: inst.horizon() }
    }

    /// Extend the horizon past the instance's own; it never shrinks.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = self.horizon.max(horizon);
        self
    }
}

impl InstanceSource for MaterializedSource<'_> {
    fn delta(&self) -> u64 {
        self.inst.delta
    }

    fn colors(&self) -> &ColorTable {
        &self.inst.colors
    }

    fn advance(&mut self, round: u64) -> Result<(), StreamError> {
        self.round = round;
        Ok(())
    }

    fn current(&self) -> &Request {
        self.inst.requests.at(self.round)
    }

    fn horizon(&self) -> u64 {
        self.horizon
    }

    fn horizon_is_final(&self) -> bool {
        true
    }
}

/// Incremental textio reader: parses `delta` / `color` / `arrive` lines
/// on demand, holding one round's request at a time.
///
/// Streaming restrictions on top of [`crate::textio::from_text`] (both
/// satisfied by everything [`crate::textio::to_text`] emits):
///
/// * `delta` must appear before the first `arrive`;
/// * `arrive` rounds must be nondecreasing.
#[derive(Debug)]
pub struct TextStream<R: BufRead> {
    reader: R,
    line_no: usize,
    line_buf: String,
    delta: u64,
    colors: ColorTable,
    current: Request,
    /// Next arrival already read but belonging to a future round.
    lookahead: Option<(u64, ColorId, u64)>,
    horizon: u64,
    eof: bool,
}

impl<R: BufRead> TextStream<R> {
    /// Open a stream: reads the prologue (delta and any color
    /// declarations) up to and including the first arrival, which is
    /// buffered as look-ahead.
    pub fn new(reader: R) -> Result<Self, StreamError> {
        let mut s = TextStream {
            reader,
            line_no: 0,
            line_buf: String::new(),
            delta: 0,
            colors: ColorTable::new(),
            current: Request::empty(),
            lookahead: None,
            horizon: 0,
            eof: false,
        };
        let mut delta: Option<u64> = None;
        loop {
            match s.next_line()? {
                None => {
                    s.eof = true;
                    break;
                }
                Some(Line::Delta(_)) if delta.is_some() => return Err(s.err("duplicate delta")),
                Some(Line::Delta(v)) => delta = Some(v),
                Some(Line::Color(id, bound)) => declare_color(&mut s.colors, id, bound, s.line_no)?,
                Some(Line::Arrive(round, color, count)) => {
                    if delta.is_none() {
                        return Err(s.err("streaming requires delta before the first arrive"));
                    }
                    s.buffer_arrival(round, color, count)?;
                    break;
                }
            }
        }
        s.delta = delta.ok_or_else(|| s.err("missing delta"))?;
        Ok(s)
    }

    fn err(&self, message: impl Into<String>) -> StreamError {
        StreamError::Parse(ParseError::at(self.line_no.max(1), message))
    }

    /// Read and parse the next nonblank line; `None` at end of input.
    fn next_line(&mut self) -> Result<Option<Line>, StreamError> {
        loop {
            self.line_buf.clear();
            if self.reader.read_line(&mut self.line_buf).map_err(StreamError::Io)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if let Some(line) = parse_line(&self.line_buf, self.line_no)? {
                return Ok(Some(line));
            }
        }
    }

    /// Validate an arrival line and park it as look-ahead, folding its
    /// deadline into the horizon.
    fn buffer_arrival(&mut self, round: u64, color: u64, count: u64) -> Result<(), StreamError> {
        let (c, deadline) = check_arrival(&self.colors, round, color, self.line_no)?;
        self.horizon = self.horizon.max(deadline);
        self.lookahead = Some((round, c, count));
        Ok(())
    }

    /// Pull lines until the look-ahead holds an arrival for a round past
    /// `round` (or end of input), folding arrivals for `round` itself into
    /// `current`.
    fn fill_round(&mut self, round: u64) -> Result<(), StreamError> {
        loop {
            match self.lookahead {
                Some((r, c, n)) if r <= round => {
                    if r < round {
                        return Err(self.err(format!(
                            "arrive round {r} out of order (already past round {round})"
                        )));
                    }
                    self.current.add(c, n);
                    self.lookahead = None;
                }
                Some(_) => return Ok(()), // future round — done for now
                None if self.eof => return Ok(()),
                None => {}
            }
            match self.next_line()? {
                None => {
                    self.eof = true;
                    return Ok(());
                }
                Some(Line::Delta(_)) => return Err(self.err("duplicate delta")),
                Some(Line::Color(id, bound)) => {
                    declare_color(&mut self.colors, id, bound, self.line_no)?
                }
                Some(Line::Arrive(r, color, count)) => self.buffer_arrival(r, color, count)?,
            }
        }
    }
}

impl<R: BufRead> InstanceSource for TextStream<R> {
    fn delta(&self) -> u64 {
        self.delta
    }

    fn colors(&self) -> &ColorTable {
        &self.colors
    }

    fn advance(&mut self, round: u64) -> Result<(), StreamError> {
        self.current = Request::empty();
        if let Some((r, _, _)) = self.lookahead {
            if r < round {
                return Err(
                    self.err(format!("arrive round {r} out of order (already past round {round})"))
                );
            }
        }
        self.fill_round(round)
    }

    fn current(&self) -> &Request {
        &self.current
    }

    fn horizon(&self) -> u64 {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::textio::to_text;

    fn sample() -> Instance {
        let mut b = InstanceBuilder::new(4);
        let c0 = b.color(4);
        let c1 = b.color(32);
        b.arrive(0, c1, 24).arrive(0, c0, 3).arrive(4, c0, 3).arrive(9, c1, 1);
        b.build()
    }

    /// Drive a source across the full horizon, collecting requests.
    fn drain(src: &mut impl InstanceSource) -> Vec<(u64, Vec<(ColorId, u64)>)> {
        let mut out = Vec::new();
        let mut round = 0;
        while round <= src.horizon() {
            src.advance(round).unwrap();
            if !src.current().is_empty() {
                out.push((round, src.current().pairs().to_vec()));
            }
            round += 1;
        }
        out
    }

    #[test]
    fn text_stream_matches_materialized() {
        let inst = sample();
        let text = to_text(&inst);
        let mut stream = TextStream::new(text.as_bytes()).unwrap();
        assert_eq!(stream.delta(), inst.delta);
        let mut mat = MaterializedSource::new(&inst);
        let from_stream = drain(&mut stream);
        let from_mat = drain(&mut mat);
        assert_eq!(from_stream, from_mat);
        assert_eq!(stream.horizon(), inst.horizon());
        assert_eq!(stream.colors().len(), inst.colors.len());
    }

    #[test]
    fn lookahead_keeps_horizon_ahead_of_gaps() {
        // A long gap between arrivals: the buffered look-ahead must keep
        // the horizon past the gap so a `round <= horizon()` loop does
        // not stop early.
        let text = "delta 1\ncolor 0 2\narrive 0 0 1\narrive 100 0 1\n";
        let mut s = TextStream::new(text.as_bytes()).unwrap();
        s.advance(0).unwrap();
        assert_eq!(s.current().total_jobs(), 1);
        assert_eq!(s.horizon(), 102, "look-ahead arrival already counted");
        for r in 1..=99 {
            s.advance(r).unwrap();
            assert!(s.current().is_empty());
        }
        s.advance(100).unwrap();
        assert_eq!(s.current().total_jobs(), 1);
    }

    #[test]
    fn merges_repeated_arrivals_in_a_round() {
        let text = "delta 1\ncolor 0 2\narrive 3 0 1\narrive 3 0 2\n";
        let mut s = TextStream::new(text.as_bytes()).unwrap();
        for r in 0..=2 {
            s.advance(r).unwrap();
            assert!(s.current().is_empty());
        }
        s.advance(3).unwrap();
        assert_eq!(s.current().count_of(ColorId(0)), 3);
    }

    #[test]
    fn empty_instance_streams() {
        let s = TextStream::new("delta 7\ncolor 0 4\n".as_bytes()).unwrap();
        assert_eq!(s.delta(), 7);
        assert_eq!(s.horizon(), 0);
    }

    #[test]
    fn missing_delta_rejected() {
        let e = TextStream::new("color 0 4\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("missing delta"));
    }

    #[test]
    fn delta_after_arrive_rejected() {
        let e = TextStream::new("color 0 4\narrive 0 0 1\ndelta 2\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("delta before the first arrive"));
    }

    #[test]
    fn decreasing_rounds_rejected() {
        let text = "delta 1\ncolor 0 2\narrive 5 0 1\narrive 2 0 1\n";
        let mut s = TextStream::new(text.as_bytes()).unwrap();
        let mut failed = false;
        for r in 0..=5 {
            if let Err(e) = s.advance(r) {
                assert!(e.to_string().contains("out of order"), "{e}");
                failed = true;
                break;
            }
        }
        assert!(failed, "out-of-order arrival must be rejected");
    }

    #[test]
    fn undeclared_color_rejected() {
        let e = TextStream::new("delta 1\narrive 0 3 1\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("undeclared"));
    }

    #[test]
    fn deadline_overflow_rejected() {
        let text = "delta 2\ncolor 0 18446744073709551615\narrive 1 0 1\n";
        let e = TextStream::new(text.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 3") && e.to_string().contains("overflows"), "{e}");
    }

    #[test]
    fn deadline_of_u64_max_rejected() {
        let text = "delta 1\ncolor 0 18446744073709551615\narrive 0 0 1\n";
        let e = TextStream::new(text.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 3") && e.to_string().contains("overflows"), "{e}");
        let last = "delta 1\ncolor 0 18446744073709551614\narrive 0 0 1\n";
        assert_eq!(TextStream::new(last.as_bytes()).unwrap().horizon(), u64::MAX - 1);
    }

    #[test]
    fn delta_above_u32_max_rejected() {
        let text = "# header\ndelta 4294967296\ncolor 0 1\narrive 0 0 1\n";
        let e = TextStream::new(text.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 2") && e.to_string().contains("exceeds"), "{e}");
        assert!(TextStream::new("delta 4294967295\n".as_bytes()).is_ok());
    }

    #[test]
    fn late_color_declarations_are_allowed() {
        // Colors may be declared between arrivals as long as each arrive
        // references an already-declared color.
        let text = "delta 1\ncolor 0 2\narrive 0 0 1\ncolor 1 4\narrive 2 1 2\n";
        let mut s = TextStream::new(text.as_bytes()).unwrap();
        s.advance(0).unwrap();
        assert_eq!(s.current().count_of(ColorId(0)), 1);
        s.advance(1).unwrap();
        s.advance(2).unwrap();
        assert_eq!(s.current().count_of(ColorId(1)), 2);
        assert_eq!(s.colors().len(), 2);
    }
}
