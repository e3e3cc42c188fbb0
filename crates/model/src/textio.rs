//! A plain-text instance format, for the CLI and golden tests.
//!
//! ```text
//! # rrs instance v1
//! delta 4
//! color 0 4          # color <id> <delay_bound>
//! color 1 32
//! arrive 0 1 24      # arrive <round> <color> <count>
//! arrive 4 0 3
//! ```
//!
//! Lines are independent; `#` starts a comment; blank lines are ignored.
//! Colors must be declared with consecutive ids starting at 0 before use.

use crate::color::{ColorId, ColorTable};
use crate::cost::{check_deadline, check_delta};
use crate::instance::Instance;
use crate::request::RequestSeq;

/// A parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serialize an instance to the text format.
pub fn to_text(inst: &Instance) -> String {
    let mut out = String::from("# rrs instance v1\n");
    out.push_str(&format!("delta {}\n", inst.delta));
    for (c, d) in inst.colors.iter() {
        out.push_str(&format!("color {} {}\n", c.0, d));
    }
    for (round, req) in inst.requests.iter() {
        for &(c, n) in req.pairs() {
            out.push_str(&format!("arrive {} {} {}\n", round, c.0, n));
        }
    }
    out
}

/// Parse an instance from the text format. The delta line may come
/// anywhere, and arrivals in any order.
pub fn from_text(text: &str) -> Result<Instance, ParseError> {
    let mut delta: Option<u64> = None;
    let mut colors = ColorTable::new();
    let mut requests = RequestSeq::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        match parse_line(raw, line)? {
            None => {}
            Some(Line::Delta(_)) if delta.is_some() => {
                return Err(ParseError::at(line, "duplicate delta"));
            }
            Some(Line::Delta(v)) => delta = Some(v),
            Some(Line::Color(id, bound)) => declare_color(&mut colors, id, bound, line)?,
            Some(Line::Arrive(round, color, count)) => {
                let (c, _) = check_arrival(&colors, round, color, line)?;
                requests.add(round, c, count);
            }
        }
    }
    let delta =
        delta.ok_or_else(|| ParseError::at(text.lines().count().max(1), "missing delta"))?;
    Ok(Instance::new(delta, colors, requests))
}

impl ParseError {
    pub(crate) fn at(line: usize, message: impl Into<String>) -> Self {
        ParseError { line, message: message.into() }
    }
}

/// One nonblank line of the text format, tokenized and with a delta in
/// range. What a line means in context — a duplicate delta, a color id out
/// of sequence, an undeclared color — is left to the reader.
pub(crate) enum Line {
    Delta(u64),
    Color(u64, u64),
    Arrive(u64, u64, u64),
}

/// The line parser both readers share: strip the comment, match the
/// keyword, parse its arguments and reject trailing tokens, then check the
/// delta's range. `None` for a blank line. Allocates only on error.
pub(crate) fn parse_line(raw: &str, line: usize) -> Result<Option<Line>, ParseError> {
    let mut parts = raw.split('#').next().unwrap_or("").split_whitespace();
    let Some(keyword) = parts.next() else {
        return Ok(None);
    };
    let mut arg = |name: &str| -> Result<u64, ParseError> {
        let token = parts.next().ok_or_else(|| ParseError::at(line, format!("missing {name}")))?;
        token.parse::<u64>().map_err(|e| ParseError::at(line, format!("bad {name}: {e}")))
    };
    let parsed = match keyword {
        "delta" => Line::Delta(arg("delta value")?),
        "color" => Line::Color(arg("color id")?, arg("delay bound")?),
        "arrive" => Line::Arrive(arg("round")?, arg("color")?, arg("count")?),
        other => return Err(ParseError::at(line, format!("unknown keyword '{other}'"))),
    };
    if parts.next().is_some() {
        return Err(ParseError::at(line, "trailing tokens"));
    }
    if let Line::Delta(v) = parsed {
        check_delta(v).map_err(|m| ParseError::at(line, m))?;
    }
    Ok(Some(parsed))
}

/// Declare color `id` with delay `bound`: ids are consecutive from 0 and
/// bounds positive.
pub(crate) fn declare_color(
    colors: &mut ColorTable,
    id: u64,
    bound: u64,
    line: usize,
) -> Result<(), ParseError> {
    if id != colors.len() as u64 {
        let expected = colors.len();
        let message = format!("color ids must be consecutive; expected {expected}, got {id}");
        return Err(ParseError::at(line, message));
    }
    if bound == 0 {
        return Err(ParseError::at(line, "delay bound must be positive"));
    }
    colors.push(bound);
    Ok(())
}

/// Check an arrival of `color` in `round` against the colors declared so
/// far, returning the color and the arrival's deadline.
pub(crate) fn check_arrival(
    colors: &ColorTable,
    round: u64,
    color: u64,
    line: usize,
) -> Result<(ColorId, u64), ParseError> {
    let c = u32::try_from(color)
        .map(ColorId)
        .map_err(|_| ParseError::at(line, format!("color id {color} out of range")))?;
    let Some(bound) = colors.try_delay_bound(c) else {
        return Err(ParseError::at(line, format!("undeclared color {color}")));
    };
    let deadline = check_deadline(round, bound).map_err(|m| ParseError::at(line, m))?;
    Ok((c, deadline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::stream::{InstanceSource, StreamError, TextStream};

    fn sample() -> Instance {
        let mut b = InstanceBuilder::new(4);
        let c0 = b.color(4);
        let c1 = b.color(32);
        b.arrive(0, c1, 24).arrive(0, c0, 3).arrive(4, c0, 3);
        b.build()
    }

    #[test]
    fn round_trip() {
        let inst = sample();
        let text = to_text(&inst);
        let back = from_text(&text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# header\ndelta 2  # cost\n color 0 4 \n\narrive 0 0 1 # one job\n";
        let inst = from_text(text).unwrap();
        assert_eq!(inst.delta, 2);
        assert_eq!(inst.total_jobs(), 1);
    }

    #[test]
    fn missing_delta_rejected() {
        let e = from_text("color 0 4\n").unwrap_err();
        assert!(e.message.contains("missing delta"));
    }

    #[test]
    fn undeclared_color_rejected() {
        let e = from_text("delta 1\narrive 0 3 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("undeclared"));
    }

    #[test]
    fn non_consecutive_color_ids_rejected() {
        let e = from_text("delta 1\ncolor 1 4\n").unwrap_err();
        assert!(e.message.contains("consecutive"));
    }

    #[test]
    fn duplicate_delta_rejected() {
        let e = from_text("delta 1\ndelta 2\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn trailing_tokens_rejected() {
        let e = from_text("delta 1 2\n").unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn zero_bound_rejected() {
        let e = from_text("delta 1\ncolor 0 0\n").unwrap_err();
        assert!(e.message.contains("positive"));
    }

    #[test]
    fn deadline_overflow_rejected() {
        let e = from_text("delta 2\ncolor 0 18446744073709551615\narrive 1 0 1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("overflows"), "{e}");
    }

    #[test]
    fn deadline_of_u64_max_rejected() {
        let e = from_text("delta 1\ncolor 0 18446744073709551615\narrive 0 0 1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("overflows the round counter"), "{e}");
        let last = from_text("delta 1\ncolor 0 18446744073709551614\narrive 0 0 1\n").unwrap();
        assert_eq!(last.horizon(), u64::MAX - 1);
    }

    #[test]
    fn delta_above_u32_max_rejected() {
        let e = from_text("\ndelta 18446744073709551615\ncolor 0 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("exceeds the maximum 4294967295"), "{e}");
        assert_eq!(from_text("delta 4294967295\n").unwrap().delta, u64::from(u32::MAX));
    }

    /// The error `TextStream` reports on `text`, read to the end.
    fn stream_error(text: &str) -> ParseError {
        let read = TextStream::new(text.as_bytes()).and_then(|mut s| {
            let mut round = 0;
            while round <= s.horizon() {
                s.advance(round)?;
                round += 1;
            }
            Ok(())
        });
        match read {
            Err(StreamError::Parse(e)) => e,
            other => panic!("{text:?}: expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn both_readers_report_the_same_error_for_a_bad_line() {
        // Each line breaks one shared rule, and the last five break two:
        // tokens are checked before meaning, so every one of those reports
        // its trailing tokens. Each line is read both in the prologue and
        // after the first arrival.
        let lines = [
            "delta 4294967296",
            "color 5 4",
            "color 2 0",
            "arrive 0 3 1",
            "arrive 1 1 1",
            "arrive 0 0 1 2",
            "arrive 0 4294967296 1",
            "frob 1",
            "color 2",
            "arrive x 0 1",
            "arrive 0 5 1 extra",
            "color 2 0 extra",
            "color 5 4 extra",
            "arrive 1 1 1 extra",
            "delta 4294967296 extra",
        ];
        let prologue = "delta 1\ncolor 0 2\ncolor 1 18446744073709551615\n";
        for line in lines {
            for text in [format!("{prologue}{line}\n"), format!("{prologue}arrive 0 0 1\n{line}\n")]
            {
                let e = from_text(&text).unwrap_err();
                assert_eq!(e, stream_error(&text), "{text:?}");
                assert_eq!(e.line, text.lines().count());
                if line.ends_with("extra") {
                    assert_eq!(e.message, "trailing tokens", "{text:?}");
                }
            }
        }
    }

    #[test]
    fn merges_repeated_arrivals() {
        let inst = from_text("delta 1\ncolor 0 2\narrive 0 0 1\narrive 0 0 2\n").unwrap();
        assert_eq!(inst.requests.at(0).count_of(ColorId(0)), 3);
    }
}
